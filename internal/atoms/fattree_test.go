package atoms

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// podPrefix is pod p's /16 (10.<p>.0.0), the prefix the cores route on.
func podPrefix(p int) dataplane.IP4 { return dataplane.IP4(uint32(10)<<24 | uint32(p)<<16) }

// watchFatTree builds a k-ary fat-tree, applies muts to its FIBs, and
// only then builds a verifier over it, expecting every host.
func watchFatTree(t *testing.T, k int, muts ...func(*netsim.FatTree)) (*netsim.FatTree, *Verifier) {
	t.Helper()
	sim := netsim.NewSimulator()
	ft := netsim.BuildFatTree(sim, netsim.FatTreeConfig{K: k, WithRouting: true})
	for _, mut := range muts {
		mut(ft)
	}
	v := New()
	WatchFabric(v, ft.AllSwitches())
	half := k / 2
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				v.ExpectHost(netsim.FatTreeHostIP(p, e, h))
			}
		}
	}
	return ft, v
}

// TestFatTreeGolden is the k=8 routing-correctness golden: the standard
// two-level InstallRouting tables are loop-free and deliver every one of
// the 128 hosts from every edge switch — zero static violations.
func TestFatTreeGolden(t *testing.T) {
	_, v := watchFatTree(t, 8)
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("k=8 fat-tree routing has %d static violations; first: %v", len(out), out[0])
	}
	st := v.Stats()
	if st.Switches != 80 {
		t.Errorf("verifier saw %d switches, want 80", st.Switches)
	}
	// 128 host /32s + 32 pod /24 boundaries (shared with the /32 spans)
	// + 8 /16s: the partition is fabric-sized, not address-space-sized.
	if st.Atoms < 100 || st.Atoms > 400 {
		t.Errorf("k=8 fat-tree settled at %d atoms, expected a few hundred", st.Atoms)
	}
	if st.Routes == 0 || st.Updates == 0 {
		t.Errorf("route replay did not reach the verifier: %+v", st)
	}
}

// TestLeafSpineGolden: the campus (leaf-spine) fabric's InstallRouting
// is clean under the same full expectations — the zero-false-positive
// baseline for the chaos static layer.
func TestLeafSpineGolden(t *testing.T) {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2, WithRouting: true,
	})
	v := New()
	WatchFabric(v, ls.AllSwitches())
	for l := range ls.Hosts {
		for h := range ls.Hosts[l] {
			v.ExpectHost(netsim.HostIP(l, h))
		}
	}
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("leaf-spine routing has static violations: %v", out)
	}
}

// TestFatTreeIncremental pins the Delta-net claim the bench guard also
// leans on: a single host-route update on the settled k=8 fabric
// rechecks only the atoms the prefix covers, not the whole partition.
func TestFatTreeIncremental(t *testing.T) {
	ft, v := watchFatTree(t, 8)
	total := v.Stats().Atoms

	prog := ft.Edge[0][0].Forwarding.(*netsim.L3Program)
	hostIP := netsim.FatTreeHostIP(0, 0, 0)

	if !prog.RemoveRoute(hostIP, 32) {
		t.Fatal("host /32 not installed")
	}
	before := v.Stats()
	prog.AddRoute(hostIP, 32, 1)
	delta := v.Stats().Rechecks - before.Rechecks
	if delta == 0 || delta > 2 {
		t.Errorf("re-adding a /32 rechecked %d atoms (of %d), want 1-2", delta, total)
	}
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("clean churn left violations: %v", out)
	}
}

// TestFatTreePerturbations is the seeded property test: random
// single-fault perturbations of the k=8 route tables (withdrawn host
// routes, withdrawn core routes, misrouted core and edge entries) must
// each raise at least one static violation covering the victim address,
// and undoing the perturbation must clear it.
func TestFatTreePerturbations(t *testing.T) {
	ft, v := watchFatTree(t, 8)
	k, half := 8, 4
	rng := rand.New(rand.NewSource(11))

	assertFlagged := func(victim uint32, what string) {
		t.Helper()
		for _, x := range v.Outstanding() {
			if uint32(x.Lo) <= victim && victim <= uint32(x.Hi) {
				return
			}
		}
		t.Fatalf("%s: no static violation covers victim %d.%d.%d.%d; outstanding: %v",
			what, victim>>24&0xff, victim>>16&0xff, victim>>8&0xff, victim&0xff, v.Outstanding())
	}
	assertClean := func(what string) {
		t.Helper()
		if out := v.Outstanding(); len(out) != 0 {
			t.Fatalf("%s: violations remain after undo: %v", what, out)
		}
	}

	for trial := 0; trial < 40; trial++ {
		p, e, h := rng.Intn(k), rng.Intn(half), rng.Intn(half)
		victim := uint32(netsim.FatTreeHostIP(p, e, h))
		switch trial % 4 {
		case 0:
			// Withdraw a host /32: the edge's own-/24 discard route takes
			// over the host's atom — blackhole at the edge.
			prog := ft.Edge[p][e].Forwarding.(*netsim.L3Program)
			prog.RemoveRoute(netsim.FatTreeHostIP(p, e, h), 32)
			assertFlagged(victim, "withdrawn /32")
			prog.AddRoute(netsim.FatTreeHostIP(p, e, h), 32, h+1)
			assertClean("withdrawn /32")
		case 1:
			// Withdraw a core's pod /16: inter-pod traffic for p dies at
			// that core — blackhole.
			g, j := rng.Intn(half), rng.Intn(half)
			prog := ft.Core[g][j].Forwarding.(*netsim.L3Program)
			prog.RemoveRoute(podPrefix(p), 16)
			assertFlagged(victim, "withdrawn /16")
			prog.AddRoute(podPrefix(p), 16, p+1)
			assertClean("withdrawn /16")
		case 2:
			// Misroute a core's pod /16 to another pod: the wrong pod's
			// agg defaults back up to the same core — loop.
			g, j := rng.Intn(half), rng.Intn(half)
			wrong := (p+1)%k + 1
			prog := ft.Core[g][j].Forwarding.(*netsim.L3Program)
			prog.AddRoute(podPrefix(p), 16, wrong)
			assertFlagged(victim, "misrouted /16")
			prog.AddRoute(podPrefix(p), 16, p+1)
			assertClean("misrouted /16")
		case 3:
			// Point the host /32 at a sibling host's port: misdelivery.
			prog := ft.Edge[p][e].Forwarding.(*netsim.L3Program)
			prog.AddRoute(netsim.FatTreeHostIP(p, e, h), 32, (h+1)%half+1)
			assertFlagged(victim, "misrouted /32")
			prog.AddRoute(netsim.FatTreeHostIP(p, e, h), 32, h+1)
			assertClean("misrouted /32")
		}
	}
}

// TestIncrementalMatchesRecomputation is Delta-net's own oracle: after
// every step of a seeded churn on a k=4 fat-tree — host /32 and core /16
// withdrawals and reinstalls, and misrouted entries (a host /32 on a
// core among them, whose withdrawal hands the host back to the /16),
// left in place as they accumulate — a verifier built from scratch on
// the current FIBs must see the same violations and the same route count
// as the one that followed every mutation incrementally. Outstanding
// merges contiguous atoms, so where the two split the address space does
// not matter.
func TestIncrementalMatchesRecomputation(t *testing.T) {
	const k, half, steps = 4, 2, 240
	live, v := watchFatTree(t, k)
	rng := rand.New(rand.NewSource(39))

	// log replays the mutations so far on a fabric built from scratch.
	var log []func(*netsim.FatTree)
	for step := 0; step < steps; step++ {
		p, e, h := rng.Intn(k), rng.Intn(half), rng.Intn(half)
		g, j := rng.Intn(half), rng.Intn(half)
		host := netsim.FatTreeHostIP(p, e, h)
		var mut func(*netsim.FatTree)
		switch rng.Intn(8) {
		case 0:
			mut = func(ft *netsim.FatTree) { l3(ft.Edge[p][e]).RemoveRoute(host, 32) }
		case 1:
			mut = func(ft *netsim.FatTree) { l3(ft.Edge[p][e]).AddRoute(host, 32, h+1) }
		case 2:
			mut = func(ft *netsim.FatTree) { l3(ft.Edge[p][e]).AddRoute(host, 32, (h+1)%half+1) }
		case 3:
			mut = func(ft *netsim.FatTree) { l3(ft.Core[g][j]).RemoveRoute(podPrefix(p), 16) }
		case 4:
			mut = func(ft *netsim.FatTree) { l3(ft.Core[g][j]).AddRoute(podPrefix(p), 16, p+1) }
		case 5:
			mut = func(ft *netsim.FatTree) { l3(ft.Core[g][j]).AddRoute(podPrefix(p), 16, (p+1)%k+1) }
		case 6:
			mut = func(ft *netsim.FatTree) { l3(ft.Core[g][j]).AddRoute(host, 32, (p+1)%k+1) }
		case 7:
			// The pod /16 (if present) takes the host back over.
			mut = func(ft *netsim.FatTree) { l3(ft.Core[g][j]).RemoveRoute(host, 32) }
		}
		mut(live)
		log = append(log, mut)

		_, w := watchFatTree(t, k, log...)
		if got, want := v.Outstanding(), w.Outstanding(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: incremental violations %v, recomputed %v", step, got, want)
		}
		if got, want := v.Stats().Routes, w.Stats().Routes; got != want {
			t.Fatalf("step %d: incremental verifier holds %d routes, recomputed %d", step, got, want)
		}
	}
}

// l3 is a fat-tree switch's routing program.
func l3(sw *netsim.Switch) *netsim.L3Program { return sw.Forwarding.(*netsim.L3Program) }
