package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/atoms"
	"repro/internal/netsim"
)

// E16: incremental control-plane verification under route churn. The
// experiment builds a k-ary fat-tree with its standard routing, replays
// the full FIB into an atoms verifier (the cold-start cost), then
// drives a seeded install/delete churn stream through the switches'
// L3Programs — withdrawing and re-installing host /32s and core pod
// /16s — and measures the per-rule-update verification latency. The
// point of the measurement is the Delta-net property: each update
// rechecks only the atoms its prefix covers (MaxAffected, AvgAffected),
// not the whole partition, so the per-update cost stays flat as the
// fabric grows. Every withdrawal raises a real violation (the discard
// aggregate blackholes the victim) and every reinstall resolves it, so
// the run also exercises the full raise/resolve path and must end
// clean.

// AtomsConfig parameterizes the churn run.
type AtomsConfig struct {
	// K is the fat-tree arity (default 8: 80 switches, 128 hosts).
	K int
	// Updates is the number of route mutations to drive (default 2000).
	// Mutations come in withdraw/reinstall pairs, so the fabric ends in
	// its initial state.
	Updates int
	// Seed drives the churn site selection (default 1).
	Seed int64
}

func (c AtomsConfig) withDefaults() AtomsConfig {
	if c.K == 0 {
		c.K = 8
	}
	if c.Updates == 0 {
		c.Updates = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// AtomsResult is the outcome of one churn run. The counters are a pure
// function of (K, Updates, Seed); only the wall-clock ns fields vary
// across runs.
type AtomsResult struct {
	Config AtomsConfig

	// Fabric shape after watching: switches, expected hosts, live
	// routes, and the settled atom count of the partition.
	Switches int
	Hosts    int
	Routes   int
	Atoms    int

	// ReplayUpdates is the route events replayed at watch time (the
	// whole FIB); ReplayNsPerUpdate is the cold-start cost per event.
	ReplayUpdates     uint64
	ReplayNsPerUpdate float64

	// ChurnUpdates is the mutations driven; ChurnNsPerUpdate is the
	// steady-state incremental verification cost per mutation.
	ChurnUpdates     uint64
	ChurnNsPerUpdate float64

	// MaxAffected/AvgAffected count the atoms rechecked by a single
	// mutation — the partial-recheck proof: both must stay far below
	// Atoms.
	MaxAffected int
	AvgAffected float64

	// Raised/Resolved count violations over the churn (each withdrawal
	// blackholes its victim; each reinstall clears it). Outstanding is
	// the verifier's final violation count and must be zero.
	Raised      uint64
	Resolved    uint64
	Outstanding int
}

// RunAtomsChurn builds the fabric, replays the FIB, and drives the
// churn stream.
func RunAtomsChurn(cfg AtomsConfig) (AtomsResult, error) {
	cfg = cfg.withDefaults()
	res := AtomsResult{Config: cfg}
	k := cfg.K
	half := k / 2

	sim := netsim.NewSimulator()
	ft := netsim.BuildFatTree(sim, netsim.FatTreeConfig{K: k, WithRouting: true})
	v := atoms.New()

	start := time.Now()
	atoms.WatchFabric(v, ft.AllSwitches())
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				v.ExpectHost(netsim.FatTreeHostIP(p, e, h))
				res.Hosts++
			}
		}
	}
	replayWall := time.Since(start)

	st := v.Stats()
	res.Switches = st.Switches
	res.Routes = st.Routes
	res.Atoms = st.Atoms
	res.ReplayUpdates = st.Updates
	if st.Updates > 0 {
		res.ReplayNsPerUpdate = float64(replayWall.Nanoseconds()) / float64(st.Updates)
	}
	if out := v.Outstanding(); len(out) != 0 {
		return res, fmt.Errorf("experiments: k=%d fat-tree routing is not clean before churn: %v", k, out[0])
	}

	// Churn: withdraw/reinstall pairs. Most pairs churn a host /32 on
	// its edge switch; every eighth pair churns a core's pod /16 — a
	// wide update whose recheck spans the pod's atoms, keeping the
	// MaxAffected measurement honest.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var affectedSum, churned uint64
	prevRechecks := v.Stats().Rechecks
	step := func(mutate func()) {
		mutate()
		now := v.Stats().Rechecks
		affected := int(now - prevRechecks)
		prevRechecks = now
		affectedSum += uint64(affected)
		churned++
		if affected > res.MaxAffected {
			res.MaxAffected = affected
		}
	}

	start = time.Now()
	for pair := 0; churned < uint64(cfg.Updates); pair++ {
		p, e, h := rng.Intn(k), rng.Intn(half), rng.Intn(half)
		if pair%8 == 7 {
			g, j := rng.Intn(half), rng.Intn(half)
			prog := ft.Core[g][j].Forwarding.(*netsim.L3Program)
			prefix := netsim.FatTreeHostIP(p, 0, 0) &^ 0xffff
			step(func() { prog.RemoveRoute(prefix, 16) })
			step(func() { prog.AddRoute(prefix, 16, p+1) })
			continue
		}
		prog := ft.Edge[p][e].Forwarding.(*netsim.L3Program)
		host := netsim.FatTreeHostIP(p, e, h)
		step(func() { prog.RemoveRoute(host, 32) })
		step(func() { prog.AddRoute(host, 32, h+1) })
	}
	churnWall := time.Since(start)

	res.ChurnUpdates = churned
	if churned > 0 {
		res.ChurnNsPerUpdate = float64(churnWall.Nanoseconds()) / float64(churned)
		res.AvgAffected = float64(affectedSum) / float64(churned)
	}
	final := v.Stats()
	res.Raised = final.Raised
	res.Resolved = final.Resolved
	res.Outstanding = final.Outstanding
	if res.Outstanding != 0 {
		return res, fmt.Errorf("experiments: churn ended with %d outstanding violations: %v",
			res.Outstanding, v.Outstanding()[0])
	}
	return res, nil
}

// FormatAtoms renders the churn run for hydra-bench output.
func FormatAtoms(r AtomsResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Atoms: incremental control-plane verification, k=%d fat-tree (seed=%d)\n",
		r.Config.K, r.Config.Seed)
	fmt.Fprintf(&b, "  fabric: %d switches, %d hosts, %d routes -> %d atoms\n",
		r.Switches, r.Hosts, r.Routes, r.Atoms)
	fmt.Fprintf(&b, "  full-FIB replay: %d updates at %.0f ns/update\n",
		r.ReplayUpdates, r.ReplayNsPerUpdate)
	fmt.Fprintf(&b, "  churn: %d updates at %.0f ns/update; affected atoms avg %.1f, max %d (of %d)\n",
		r.ChurnUpdates, r.ChurnNsPerUpdate, r.AvgAffected, r.MaxAffected, r.Atoms)
	fmt.Fprintf(&b, "  violations: %d raised, %d resolved, %d outstanding\n",
		r.Raised, r.Resolved, r.Outstanding)
	return b.String()
}
