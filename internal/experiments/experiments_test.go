package experiments

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/resources"
)

func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// PHV occupancy is a deterministic function of the compiler's field
	// layout, so it is pinned per checker: a layout change shows here and
	// the table is updated with it, and a checker added to Table 1
	// without a row fails.
	goldenPHV := map[string]float64{
		"app-filtering":     50.1940625,
		"egress-validity":   48.2409375,
		"load-balance":      56.24875,
		"loop-freedom":      52.9284375,
		"multi-tenancy":     48.43625,
		"routing-validity":  47.264375,
		"service-chain":     52.1471875,
		"source-routing":    54.4909375,
		"stateful-firewall": 47.264375,
		"vlan-isolation":    47.655,
		"waypointing":       48.826875,
	}
	if len(rows) != len(goldenPHV) {
		t.Fatalf("Table 1 has %d rows, want %d", len(rows), len(goldenPHV))
	}
	ratios := 0.0
	for _, r := range rows {
		if want, ok := goldenPHV[r.Key]; !ok {
			t.Errorf("%s: no golden phv_pct row", r.Key)
		} else if math.Abs(r.PHVPct-want) > 0.01 {
			t.Errorf("%s: phv_pct = %.4f, golden %.4f — a compiler layout change", r.Key, r.PHVPct, want)
		}
		delete(goldenPHV, r.Key) // a second row of one checker has no golden left
		// The conciseness claim: generated P4 is always larger than the
		// Indus source (the paper's own app-filtering row is only ~2x,
		// so the per-row bound is loose and the average is checked below).
		if r.P4LoC < r.IndusLoC*3/2 {
			t.Errorf("%s: P4 %d vs Indus %d — conciseness ratio too small", r.Key, r.P4LoC, r.IndusLoC)
		}
		ratios += float64(r.P4LoC) / float64(r.IndusLoC)
		// Stage result: checkers do not grow the baseline's 12 stages.
		if r.Stages != resources.BaselineStages {
			t.Errorf("%s: stages %d, want %d", r.Key, r.Stages, resources.BaselineStages)
		}
		// PHV is above baseline and bounded.
		if r.PHVPct <= resources.BaselinePHVPct || r.PHVPct > resources.BaselinePHVPct+12 {
			t.Errorf("%s: PHV %.2f%% out of band", r.Key, r.PHVPct)
		}
	}
	if avg := ratios / float64(len(rows)); avg < 4 {
		t.Errorf("average P4/Indus ratio %.1f, want the order-of-magnitude shape (>= 4)", avg)
	}
	out := FormatTable1(rows)
	for _, want := range []string{"Multi-Tenancy", "Application filtering", "Baseline", "44.53"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestFig12NoSignificantDifference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	r, err := RunFig12(Fig12Config{
		Duration:      1 * netsim.Second,
		PingInterval:  4 * netsim.Millisecond,
		BackgroundBps: 400_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Baseline.RTT) < 100 || len(r.Checkers.RTT) < 100 {
		t.Fatalf("too few samples: %d / %d", len(r.Baseline.RTT), len(r.Checkers.RTT))
	}
	// The paper's result: no statistically significant latency
	// difference between baseline and all checkers.
	if r.TTest.Significant(0.01) {
		t.Fatalf("unexpected significant RTT difference: %v", r.TTest)
	}
	// Sanity: RTTs are sub-millisecond on this fabric (Figure 12 shows
	// 0.1–0.3 ms).
	for _, v := range r.Baseline.RTT {
		if v <= 0 || v > 5 {
			t.Fatalf("implausible baseline RTT %v ms", v)
		}
	}
	if !strings.Contains(FormatFig12b(r), "welch t-test") {
		t.Error("formatting lost the t-test")
	}
	if !strings.Contains(FormatFig12a(r), "time_s") {
		t.Error("formatting lost the series header")
	}
}

func TestThroughputParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	base, chk, err := RunThroughput(WireReplayConfig{Packets: 20_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// The paper: throughput with and without Hydra is almost identical.
	if base.DeliveredRatio < 0.99 {
		t.Fatalf("baseline delivered only %.1f%%", base.DeliveredRatio*100)
	}
	if chk.DeliveredRatio < 0.99 {
		t.Fatalf("all-checkers delivered only %.1f%%", chk.DeliveredRatio*100)
	}
	rel := chk.DeliveredPps / base.DeliveredPps
	if rel < 0.98 || rel > 1.02 {
		t.Fatalf("delivered rate diverged: baseline %.0f pps vs checkers %.0f pps", base.DeliveredPps, chk.DeliveredPps)
	}
	if base.OfferedPps < 300_000 || base.OfferedPps > 400_000 {
		t.Fatalf("offered load %.0f pps, want ≈350K", base.OfferedPps)
	}
}

func TestAttachAllConfiguresEveryChecker(t *testing.T) {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 2, WithRouting: true})
	atts, err := AttachAllCheckers(ls)
	if err != nil {
		t.Fatal(err)
	}
	if len(atts) != 12 {
		t.Fatalf("attached %d checkers, want 12", len(atts))
	}
	for key, list := range atts {
		if len(list) != 4 {
			t.Errorf("%s attached to %d switches, want 4", key, len(list))
		}
	}
	// With benign config, a ping and a UDP flow must pass unharmed.
	if err := AllowFlows(atts, [][2]uint32{{uint32(ls.Host(0, 0).IP), uint32(ls.Host(1, 0).IP)}}); err != nil {
		t.Fatal(err)
	}
	ls.Host(0, 0).Ping(ls.Host(1, 0).IP, 1)
	ls.Host(0, 0).SendUDP(ls.Host(1, 0).IP, 999, 80, 100)
	sim.RunAll()
	if len(ls.Host(0, 0).RTTs) != 1 {
		rej := map[string]uint64{}
		for key, list := range atts {
			for _, a := range list {
				rej[key] += a.Rejected
			}
		}
		t.Fatalf("ping lost under all-checkers config; rejections: %v", rej)
	}
	if ls.Host(1, 0).RxUDP != 1 {
		t.Fatal("udp flow lost under all-checkers config")
	}
}

func TestWireReplayBenign(t *testing.T) {
	res, err := replayCampus(WireReplayConfig{Packets: 2_000, Seed: 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredRatio != 1 {
		t.Fatalf("benign wire replay delivered %.1f%%, want 100%%", res.DeliveredRatio*100)
	}
	if res.Rejected != 0 || res.ParseErrors != 0 {
		t.Fatalf("benign wire replay: rejected=%d errors=%d", res.Rejected, res.ParseErrors)
	}
	// Every packet crosses two spines-worth of telemetry-only hops; the
	// in-place fast path must dominate mid-fabric transmissions.
	if res.FastTxFrames == 0 {
		t.Fatal("wire replay never used the in-place fast path")
	}
	if res.Checked == 0 {
		t.Fatal("no checker verdicts recorded")
	}
}

// seedState is a fresh state holding an empty allowed dictionary.
func seedState() *pipeline.State {
	return &pipeline.State{Tables: map[string]*pipeline.Table{"allowed": pipeline.NewTable("allowed",
		[]pipeline.KeySpec{{Name: "src", Width: 32}, {Name: "dst", Width: 32}},
		[]pipeline.FieldRef{"allowed.value"}, []pipeline.Value{pipeline.BoolV(false)})}}
}

// seedPairs is n distinct (src, dst) pairs.
func seedPairs(n int) [][2]uint32 {
	pairs := make([][2]uint32, n)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i) + 1, ^uint32(i)}
	}
	return pairs
}

// TestFirewallSeedAllocs: laying out the seed and installing it into a
// fresh state costs a fixed number of allocations — one chunk's two
// buffers, the table's array — however many pairs there are.
func TestFirewallSeedAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		pairs := seedPairs(n)
		var tbl *pipeline.Table
		got := testing.AllocsPerRun(5, func() {
			st := seedState()
			tbl = st.Tables["allowed"]
			if err := FirewallSeed(pairs)(st); err != nil {
				t.Fatal(err)
			}
		})
		if tbl.Len() != 2*n {
			t.Fatalf("%d pairs seeded %d entries, want %d", n, tbl.Len(), 2*n)
		}
		if a, hit := tbl.Lookup([]uint64{uint64(^uint32(n - 1)), uint64(n)}); !hit || !a[0].Bool() {
			t.Fatalf("the reverse direction of the last pair: %v, %t", a, hit)
		}
		return got
	}
	// The runtime books a couple of extra objects for arrays large
	// enough to get spans of their own, hence the slack; one allocation
	// per entry would be 80 000.
	small, large := allocs(100), allocs(40_000)
	if large > small+6 {
		t.Fatalf("FirewallSeed allocates %v times for 100 pairs and %v for 40 000: the install must not allocate per pair", small, large)
	}

	// Every table after the first adopts it: no array, no batch, whatever
	// the seed's size.
	pairs := seedPairs(40_000)
	seed := FirewallSeed(pairs)
	if err := seed(seedState()); err != nil {
		t.Fatal(err)
	}
	states := make([]*pipeline.State, 7) // AllocsPerRun's warm-up run takes one too
	for i := range states {
		states[i] = seedState()
	}
	next := 0
	adopting := testing.AllocsPerRun(len(states)-1, func() {
		if err := seed(states[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	for _, st := range states {
		if tbl := st.Tables["allowed"]; tbl.Len() != 2*len(pairs) {
			t.Fatalf("an adopting table holds %d entries, want %d", tbl.Len(), 2*len(pairs))
		}
	}
	if adopting > 2 {
		t.Fatalf("an adopting FirewallSeed call allocates %v times, want at most 2", adopting)
	}
}

// TestFirewallSeedBytes: a seed install holds one chunk, not the seed.
// 40 000 pairs may allocate more bytes than 100 by what the larger
// record array costs, plus seedChunkBytes for one full chunk's buffers,
// and nothing more; a seed laid out whole before the first insert is
// ≈ 9.6 MB over.
func TestFirewallSeedBytes(t *testing.T) {
	const seedChunkBytes = 512 << 10 // a 1 024-pair chunk's buffers are ≈ 240 KB
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	install := func(n int) uint64 {
		pairs, st := seedPairs(n), seedState()
		return allocated(func() {
			if err := FirewallSeed(pairs)(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	array := func(n int) uint64 {
		tbl := seedState().Tables["allowed"]
		return allocated(func() { tbl.Grow(2 * n) })
	}
	small, large := install(100), install(40_000)
	if budget := small + array(40_000) - array(100) + seedChunkBytes; large > budget {
		t.Fatalf("FirewallSeed allocates %d bytes for 40 000 pairs, %d for 100: %d over the budget of the larger record array plus one chunk",
			large, small, large-budget)
	}
}
