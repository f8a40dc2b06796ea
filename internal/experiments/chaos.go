package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/atoms"
	"repro/internal/checkers"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/reportbus"
)

// The chaos experiment replays the campus workload once per fault
// class (plus a healthy baseline) and scores every corpus checker as a
// detector: which checkers raise digests under which faults. The whole
// run is a pure function of (seed, config) — virtual-time bus, seeded
// injectors, deterministic simulator — so the detection matrix is
// byte-reproducible (TestChaosDeterministic) and CI can assert on it
// (TestChaosDetectionMatrix).

// ChaosConfig parameterizes the chaos replay.
type ChaosConfig struct {
	// Packets per scenario pass (default 20,000).
	Packets int
	// Seed drives the traffic generator and, via faults.SubSeed, every
	// fault injector (default 1).
	Seed int64
	// FaultRate is the per-packet/per-frame probability for the
	// probabilistic fault classes (default 0.02).
	FaultRate float64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Packets == 0 {
		c.Packets = 20_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FaultRate == 0 {
		c.FaultRate = 0.02
	}
	return c
}

// ExpectedDetectors maps each fault class to the corpus checkers that
// must detect it (raise at least one digest) in the chaos replay. The
// wire-level classes — drop, duplicate, reorder, flap — are honestly
// absent: Hydra's per-packet path checkers verify properties of packets
// that arrive, so pure loss, duplication of a valid packet, and
// reordering are invisible to them (detecting absence needs the flow
// checkers of §4.4, future work). Corrupt is seed-dependent — which
// checker fires depends on which bits flip — so it carries no required
// detectors either; its firings are recorded as collateral.
var ExpectedDetectors = map[faults.Class][]string{
	faults.Misroute:       {"loop-freedom", "routing-validity"},
	faults.TeleRewrite:    {"routing-validity", "waypointing"},
	faults.Crash:          {"egress-validity", "stateful-firewall", "vlan-isolation"},
	faults.StaleTable:     {"vlan-isolation"},
	faults.PartialInstall: {"stateful-firewall"},
	faults.DelayedInstall: {"stateful-firewall"},
}

// ExpectedStatic maps each fault class to whether the static layer —
// the atoms route verifier plus the control-install audit — must flag
// it before a single packet flows. Misroute is mirrored into the
// verifier as the route-table state the fault emulates, so it surfaces
// as a forwarding loop; partial-install and delayed-install are
// withheld or late control installs the audit sees as missing intents.
// The remaining classes are invisible statically by design: the wire
// faults (drop, corrupt, duplicate, reorder, flap) and the runtime
// state faults (crash's register wipe, stale-table's direct mutation)
// never pass through the observed control plane, which is exactly why
// Hydra pairs static verification with runtime checking.
var ExpectedStatic = map[faults.Class]bool{
	faults.Misroute:       true,
	faults.PartialInstall: true,
	faults.DelayedInstall: true,
}

// ScenarioResult is one scenario's row of the detection matrix. Every
// field is virtual-time deterministic; wall-clock throughput lives
// outside the matrix (ChaosResult.WallPPS).
type ScenarioResult struct {
	// Class is the fault class, or "baseline" for the healthy run.
	Class string `json:"class"`
	// Injected counts the fault events actually applied, by kind
	// (e.g. "drops", "misroutes", "withheld_pairs").
	Injected map[string]uint64 `json:"injected,omitempty"`
	// Delivered is the sink host's received packet count.
	Delivered uint64 `json:"delivered"`
	// ParseErrors sums the switches' undecodable-frame and
	// checker-execution-error counters (corruption shows up here).
	ParseErrors uint64 `json:"parse_errors,omitempty"`
	// Digests counts raised digests per checker (bus tap).
	Digests map[string]uint64 `json:"digests,omitempty"`
	// Rejected counts checker-rejected packets per checker — recorded
	// for the reject-only checkers, though detection is scored on
	// digests.
	Rejected map[string]uint64 `json:"rejected,omitempty"`
	// Detected/Missed partition the class's expected detectors by
	// whether they raised a digest; Collateral lists unexpected
	// checkers that fired (legitimate cross-detections, not false
	// positives — a real fault was active).
	Detected   []string `json:"detected,omitempty"`
	Missed     []string `json:"missed,omitempty"`
	Collateral []string `json:"collateral,omitempty"`
}

// CheckerSummary aggregates one checker's detection record across the
// whole campaign.
type CheckerSummary struct {
	// TP counts fault scenarios where the checker was an expected
	// detector and raised a digest.
	TP int `json:"tp"`
	// FP counts digests the checker raised on the healthy baseline —
	// must be zero for every checker.
	FP uint64 `json:"fp"`
	// Missed counts fault scenarios where the checker was expected but
	// silent.
	Missed int `json:"missed"`
	// Collateral counts fault scenarios where the checker fired without
	// being the class's expected detector.
	Collateral int `json:"collateral"`
}

// ChaosMatrix is the serializable detection matrix: byte-identical
// across runs with the same seed and config (json.Marshal sorts map
// keys; slices are sorted explicitly; no wall-clock anywhere).
type ChaosMatrix struct {
	Seed      int64                     `json:"seed"`
	Packets   int                       `json:"packets"`
	FaultRate float64                   `json:"fault_rate"`
	Baseline  ScenarioResult            `json:"baseline"`
	Scenarios []ScenarioResult          `json:"scenarios"`
	Checkers  map[string]CheckerSummary `json:"checkers"`
}

// StaticScenario is the static-verification row of one chaos scenario:
// what the atoms route verifier and the control-install audit concluded
// from control-plane state alone, snapshotted after fault arming but
// before the first packet is replayed.
type StaticScenario struct {
	// Class is the fault class, or "baseline" for the healthy run.
	Class string `json:"class"`
	// RouteUpdates counts the route events replayed into the verifier
	// (the fabric FIBs plus, for misroute, the mirrored bad route).
	RouteUpdates uint64 `json:"route_updates"`
	// Atoms is the settled size of the destination-space partition.
	Atoms int `json:"atoms"`
	// Digests counts the atoms digests published on the static report
	// bus while the FIBs were replayed.
	Digests uint64 `json:"digests,omitempty"`
	// Violations is the verifier's outstanding set, rendered.
	Violations []string `json:"violations,omitempty"`
	// MissingInstalls counts declared control intents with no applied
	// install at snapshot time.
	MissingInstalls int `json:"missing_installs,omitempty"`
	// Expected and Detected say whether the class must be — and was —
	// flagged statically (any violation or missing install).
	Expected bool `json:"expected"`
	Detected bool `json:"detected"`
}

// StaticMatrix aggregates the static rows of a chaos campaign. It is
// byte-reproducible exactly like ChaosMatrix but serialized separately,
// so the runtime detection matrix golden stays byte-identical to its
// pre-static pinning.
type StaticMatrix struct {
	Seed      int64            `json:"seed"`
	Packets   int              `json:"packets"`
	FaultRate float64          `json:"fault_rate"`
	Baseline  StaticScenario   `json:"baseline"`
	Scenarios []StaticScenario `json:"scenarios"`
}

// ChaosResult pairs the matrix with the static verdicts and the
// wall-clock throughput of each scenario (kept out of both matrices so
// reproducibility is exact).
type ChaosResult struct {
	Matrix  ChaosMatrix
	Static  StaticMatrix
	WallPPS map[string]float64
}

// RunChaos replays the campus workload under every fault class and
// scores the corpus checkers.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	out := ChaosResult{WallPPS: map[string]float64{}}
	m := ChaosMatrix{Seed: cfg.Seed, Packets: cfg.Packets, FaultRate: cfg.FaultRate, Checkers: map[string]CheckerSummary{}}
	sm := StaticMatrix{Seed: cfg.Seed, Packets: cfg.Packets, FaultRate: cfg.FaultRate}
	// The healthy baseline ("") first, then every fault class.
	for i, class := range append([]faults.Class{""}, faults.Classes()...) {
		sc, st, pps, err := runChaosScenario(cfg, class)
		if err != nil {
			return out, fmt.Errorf("experiments: chaos %s: %w", sc.Class, err)
		}
		out.WallPPS[sc.Class] = pps
		if i == 0 {
			m.Baseline, sm.Baseline = sc, st
			continue
		}
		m.Scenarios = append(m.Scenarios, sc)
		sm.Scenarios = append(sm.Scenarios, st)
	}

	for _, p := range checkers.All {
		s := CheckerSummary{FP: m.Baseline.Digests[p.Key]}
		for _, sc := range m.Scenarios {
			if slices.Contains(sc.Detected, p.Key) {
				s.TP++
			}
			if slices.Contains(sc.Missed, p.Key) {
				s.Missed++
			}
			if slices.Contains(sc.Collateral, p.Key) {
				s.Collateral++
			}
		}
		m.Checkers[p.Key] = s
	}
	out.Matrix = m
	out.Static = sm
	return out, nil
}

// runChaosScenario runs one replay pass with the given fault class
// injected ("" = healthy baseline) and scores the digests raised
// against the class's expected detectors. Alongside the runtime pass
// it runs the static layer — an atoms verifier over the fabric FIBs
// and an install audit on the controller — and snapshots its verdict
// before the first packet flows.
func runChaosScenario(cfg ChaosConfig, class faults.Class) (ScenarioResult, StaticScenario, float64, error) {
	res := ScenarioResult{
		Class:    string(class),
		Injected: map[string]uint64{},
		Digests:  map[string]uint64{},
		Rejected: map[string]uint64{},
	}
	if class == "" {
		res.Class = "baseline"
	}
	st := StaticScenario{Class: res.Class, Expected: ExpectedStatic[class]}

	f := newCampusFabric(cfg.Packets, cfg.Seed)
	sim, ls, sink, pairs, span := f.sim, f.ls, f.sink, f.pairs, f.span

	// The tap counts every raised digest per checker. The controller's
	// producers are inline, so the tap runs on the simulator's loop.
	ctl, bus := f.controller(reportbus.Config{})
	bus.Tap(func(d reportbus.Digest) { res.Digests[d.Checker]++ })

	// Static layer, part 1: the install audit observes every control
	// mutation the controller actually applies, to cross-check against
	// the declared per-pair firewall intents — withheld and late
	// installs show up as missing. Attached before any install so it
	// sees them all.
	audit := atoms.NewAudit()
	ctl.Observer = audit

	all := ls.AllSwitches()
	if err := f.deployCorpus(ctl, false); err != nil {
		return res, st, 0, err
	}

	// Static layer, part 2: an atoms verifier watches every fabric FIB
	// (Watch replays the already-installed routes) and checks loop
	// freedom and sink reachability from the route tables alone. Its
	// digests ride a private bus so the runtime detection matrix —
	// golden-pinned — is untouched. Wired before fault arming: WrapNode
	// swaps the forwarding program, so watching must come first.
	ver := atoms.New()
	var staticDigests uint64
	sbus := f.bus(reportbus.Config{})
	sbus.Tap(func(reportbus.Digest) { staticDigests++ })
	atoms.Publish(ver, sbus.InlineProducer("static"), sbus.Now)
	atoms.WatchFabric(ver, all)
	ver.ExpectHost(sink.IP)

	// Static layer, part 3: declare the control intents — every unique
	// flow pair, both directions, on every switch — before the seeding
	// fault site runs, so withheld installs are auditable.
	swIDs := make([]uint32, len(all))
	for i, sw := range all {
		swIDs[i] = sw.ID
	}
	for _, p := range pairs {
		audit.Expect("stateful-firewall", "allowed", []uint64{uint64(p[0]), uint64(p[1])}, swIDs...)
		audit.Expect("stateful-firewall", "allowed", []uint64{uint64(p[1]), uint64(p[0])}, swIDs...)
	}

	// deferredErr carries failures out of fault callbacks that fire
	// mid-simulation.
	var deferredErr error
	fail := func(err error) {
		if err != nil && deferredErr == nil {
			deferredErr = err
		}
	}

	// Firewall seeding is itself a fault site: the partial-install class
	// withholds a deterministic subset of pairs, the delayed-install
	// class installs everything only at mid-replay. Seeding goes through
	// the controller's typed install path so the audit observes what was
	// actually delivered; the installed entries are identical to
	// FirewallSeed's (a boolean true per direction).
	seedSwitches := func(pairs [][2]uint32) error {
		for _, sw := range all {
			for _, p := range pairs {
				for _, k := range [][]uint64{
					{uint64(p[0]), uint64(p[1])},
					{uint64(p[1]), uint64(p[0])},
				} {
					if err := ctl.PutDict("stateful-firewall", sw.ID, "allowed", k, 1); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	switch class {
	case faults.PartialInstall:
		withheld := faults.Withhold(faults.SubSeed(cfg.Seed, "partial-install"), len(pairs), cfg.FaultRate)
		if !slices.Contains(withheld, true) && len(withheld) > 0 {
			// A tiny rate may select nothing; the scenario must not be
			// vacuous, so deterministically withhold the first pair.
			withheld[0] = true
		}
		kept := pairs[:0:0]
		for i, p := range pairs {
			if withheld[i] {
				res.Injected["withheld_pairs"]++
				continue
			}
			kept = append(kept, p)
		}
		if err := seedSwitches(kept); err != nil {
			return res, st, 0, err
		}
	case faults.DelayedInstall:
		res.Injected["delayed_pairs"] = uint64(len(pairs))
		sim.At(span/2, func() { fail(seedSwitches(pairs)) })
	default:
		if err := seedSwitches(pairs); err != nil {
			return res, st, 0, err
		}
	}

	// Fault placement. Link faults sit on both of leaf-1's uplinks (ECMP
	// splits flows across the spines, the fault must see them all); node
	// faults target spine 1 (mid-path misbehavior) except crash, which
	// takes down leaf 2 — the last hop, where the checker block runs.
	var lf *faults.LinkFaults
	var nf *faults.NodeFaults
	linkFaults := map[faults.Class]faults.LinkFaultConfig{
		faults.Drop:      {DropRate: cfg.FaultRate},
		faults.Corrupt:   {CorruptRate: cfg.FaultRate},
		faults.Duplicate: {DupRate: cfg.FaultRate, DupDelay: 10 * netsim.Microsecond},
		faults.Reorder:   {ReorderRate: cfg.FaultRate, ReorderJitter: 20 * netsim.Microsecond},
		// The link is down for the first 1/80 of every span/8 — eight
		// outages of 10% duty over the replay.
		faults.Flap: {FlapPeriod: span / 8, FlapDown: span / 80},
	}
	if linkCfg, ok := linkFaults[class]; ok {
		lf = faults.NewLinkFaults(faults.SubSeed(cfg.Seed, "link:"+string(class)), linkCfg)
		ls.Leaves[0].Link(1).Fault = lf
		ls.Leaves[0].Link(2).Fault = lf
	}
	switch class {
	case faults.Misroute:
		// Spine 1 bounces packets back out port 1 toward leaf 1: the
		// revisit shows up in the path telemetry.
		nf = faults.WrapNode(ls.Spines[0], faults.SubSeed(cfg.Seed, "node:misroute"), faults.NodeFaultConfig{
			MisrouteRate: cfg.FaultRate,
			MisroutePort: 1,
		})
		// Mirror the fault into the verifier as the route-table state it
		// emulates — the spine's default pointing back at leaf 1 — so the
		// static layer sees what a buggy controller would have installed:
		// a forwarding loop, caught before any packet flows.
		ver.Install(ls.Spines[0].ID, 0, 0, []int{1})
	case faults.TeleRewrite:
		nf = faults.WrapNode(ls.Spines[0], faults.SubSeed(cfg.Seed, "node:tele-rewrite"), faults.NodeFaultConfig{
			TeleRewriteRate: cfg.FaultRate,
		})
	case faults.Crash:
		// Leaf 2 is down for [30%, 50%) of the replay (blackhole), then
		// restarts with every checker's registers and tables wiped — the
		// control plane does not reinstall, so every post-restart packet
		// is checked against factory state.
		crashAt, crashUntil := span*3/10, span/2
		nf = faults.WrapNode(ls.Leaves[1], 0, faults.NodeFaultConfig{
			CrashAt: crashAt, CrashUntil: crashUntil,
		})
		id := ls.Leaves[1].ID
		sim.At(crashUntil, func() {
			res.Injected["wiped_attachments"] = uint64(ctl.WipeSwitch(id))
		})
	case faults.StaleTable:
		// Spine 1's VLAN membership table loses its entries at 40% of the
		// replay — the stale state a crashed controller connection leaves
		// behind.
		id := ls.Spines[0].ID
		sim.At(span*2/5, func() {
			att, err := ctl.Attachment("vlan-isolation", id)
			if err != nil {
				fail(err)
				return
			}
			tbl := att.State.Tables["vlan_members"]
			res.Injected["stale_cleared_entries"] = uint64(tbl.Len())
			tbl.Clear()
		})
	}

	// Static verdict: snapshotted before the first packet flows. For
	// delayed-install the seeding is still scheduled, so every declared
	// pair is missing here — exactly the pre-traffic gap the static
	// layer exists to flag.
	stats := ver.Stats()
	st.RouteUpdates = stats.Updates
	st.Atoms = stats.Atoms
	st.Digests = staticDigests
	for _, x := range ver.Outstanding() {
		st.Violations = append(st.Violations, x.String())
	}
	st.MissingInstalls = len(audit.Missing())
	st.Detected = len(st.Violations) > 0 || st.MissingInstalls > 0

	pps, err := f.run()
	if err != nil {
		return res, st, 0, err
	}
	bus.Close()
	if deferredErr != nil {
		return res, st, 0, deferredErr
	}

	res.Delivered = f.delivered()
	for _, sw := range all {
		res.ParseErrors += sw.ParseErrors
	}
	var inj map[string]uint64
	if lf != nil {
		inj = map[string]uint64{
			"drops": lf.Dropped, "corrupted": lf.Corrupted,
			"duplicated": lf.Duplicated, "reordered": lf.Reordered,
			"flap_drops": lf.FlapDropped,
		}
	}
	if nf != nil {
		inj = map[string]uint64{
			"misroutes": nf.Misrouted, "tele_rewrites": nf.Rewritten,
			"crash_drops": nf.CrashDropped,
		}
	}
	for k, v := range inj {
		if v > 0 {
			res.Injected[k] = v
		}
	}
	for _, p := range checkers.All {
		if n := ctl.Rejected(p.Key); n > 0 {
			res.Rejected[p.Key] = n
		}
	}

	expected := ExpectedDetectors[class]
	for _, e := range expected {
		if res.Digests[e] > 0 {
			res.Detected = append(res.Detected, e)
		} else {
			res.Missed = append(res.Missed, e)
		}
	}
	for name := range res.Digests {
		if !slices.Contains(expected, name) {
			res.Collateral = append(res.Collateral, name)
		}
	}
	sort.Strings(res.Detected)
	sort.Strings(res.Missed)
	sort.Strings(res.Collateral)
	return res, st, pps, nil
}

// FormatChaos renders the chaos campaign for hydra-bench output.
func FormatChaos(r ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: campus replay under seeded faults (seed=%d rate=%g packets=%d)\n",
		r.Matrix.Seed, r.Matrix.FaultRate, r.Matrix.Packets)
	fmt.Fprintf(&b, "%-16s %9s %10s %8s %12s  %s\n",
		"class", "injected", "delivered", "digests", "pps", "detected (missed) [collateral]")
	row := func(sc ScenarioResult) {
		var injected, digests uint64
		for _, v := range sc.Injected {
			injected += v
		}
		for _, v := range sc.Digests {
			digests += v
		}
		var tail []string
		if len(sc.Detected) > 0 {
			tail = append(tail, strings.Join(sc.Detected, ","))
		}
		if len(sc.Missed) > 0 {
			tail = append(tail, "("+strings.Join(sc.Missed, ",")+")")
		}
		if len(sc.Collateral) > 0 {
			tail = append(tail, "["+strings.Join(sc.Collateral, ",")+"]")
		}
		if len(tail) == 0 {
			tail = append(tail, "-")
		}
		fmt.Fprintf(&b, "%-16s %9d %10d %8d %12.0f  %s\n",
			sc.Class, injected, sc.Delivered, digests, r.WallPPS[sc.Class], strings.Join(tail, " "))
	}
	row(r.Matrix.Baseline)
	for _, sc := range r.Matrix.Scenarios {
		row(sc)
	}

	b.WriteString("static (atoms route verifier + install audit), pre-traffic verdicts:\n")
	fmt.Fprintf(&b, "  %-16s %9s %6s %11s %8s  %s\n",
		"class", "updates", "atoms", "violations", "missing", "verdict")
	srow := func(s StaticScenario) {
		verdict := "silent"
		switch {
		case s.Expected && s.Detected:
			verdict = "detected"
		case s.Expected:
			verdict = "MISSED"
		case s.Detected:
			verdict = "FALSE POSITIVE"
		}
		fmt.Fprintf(&b, "  %-16s %9d %6d %11d %8d  %s\n",
			s.Class, s.RouteUpdates, s.Atoms, len(s.Violations), s.MissingInstalls, verdict)
	}
	srow(r.Static.Baseline)
	for _, s := range r.Static.Scenarios {
		srow(s)
	}

	b.WriteString("per-checker: tp/fp/missed/collateral\n")
	names := make([]string, 0, len(r.Matrix.Checkers))
	for name := range r.Matrix.Checkers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Matrix.Checkers[name]
		fmt.Fprintf(&b, "  %-18s %d/%d/%d/%d\n", name, s.TP, s.FP, s.Missed, s.Collateral)
	}
	return b.String()
}
