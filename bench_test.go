// Benchmarks regenerating the paper's evaluation artifacts (one per
// table/figure, §6) plus the ablations DESIGN.md calls out. Custom
// metrics carry the experiment outputs: tele_B (telemetry bytes on the
// wire), p4_loc (generated lines), phv_pct, rtt_*_ms, pps, and so on.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/experiments"
	"repro/internal/indus/eval"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/pipeline"
	"repro/internal/resources"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// Table 1

// BenchmarkTable1Compile measures the Indus compiler over the full
// corpus (the paper's compiler is ~2500 lines of OCaml; ours must at
// least be fast).
func BenchmarkTable1Compile(b *testing.B) {
	infos := make([]*types.Info, 0, len(checkers.All))
	for _, p := range checkers.All {
		infos = append(infos, checkers.MustParse(p.Key))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, info := range infos {
			if _, err := compiler.Compile(info, compiler.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(infos)), "programs/op")
}

// BenchmarkTable1Resources regenerates the Tofino columns of Table 1
// and reports the corpus-wide PHV figure.
func BenchmarkTable1Resources(b *testing.B) {
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxPHV float64
	for _, r := range rows {
		if r.PHVPct > maxPHV {
			maxPHV = r.PHVPct
		}
	}
	b.ReportMetric(maxPHV, "max_phv_pct")
	b.ReportMetric(float64(resources.BaselineStages), "stages")
}

// BenchmarkTable1P4Emission measures the P4 backend and reports the
// total generated line count.
func BenchmarkTable1P4Emission(b *testing.B) {
	progs := make([]*pipeline.Program, 0, len(checkers.All))
	for _, p := range checkers.All {
		progs = append(progs, compiler.MustCompile(checkers.MustParse(p.Key), compiler.Options{Name: p.Key}))
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = 0
		for _, prog := range progs {
			total += p4.LineCount(p4.Emit(prog))
		}
	}
	b.ReportMetric(float64(total), "p4_loc")
}

// ---------------------------------------------------------------------------
// Figure 12

// BenchmarkFig12RTT runs a scaled-down Figure 12 experiment per
// iteration and reports the two mean RTTs plus the t-test p-value; the
// paper's result is p >> 0.05 (no significant difference).
func BenchmarkFig12RTT(b *testing.B) {
	var r experiments.Fig12Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunFig12(experiments.Fig12Config{
			Duration:      500 * netsim.Millisecond,
			PingInterval:  4 * netsim.Millisecond,
			BackgroundBps: 300_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Summarize(r.Baseline.RTT).Mean, "rtt_base_ms")
	b.ReportMetric(stats.Summarize(r.Checkers.RTT).Mean, "rtt_chk_ms")
	b.ReportMetric(r.TTest.P, "t_test_p")
}

// ---------------------------------------------------------------------------
// Throughput (§6.2 text result)

func benchThroughput(b *testing.B, withCheckers bool) {
	var res experiments.ThroughputResult
	for i := 0; i < b.N; i++ {
		var base, chk experiments.ThroughputResult
		var err error
		base, chk, err = experiments.RunThroughput(experiments.ThroughputConfig{Packets: 10_000, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		if withCheckers {
			res = chk
		} else {
			res = base
		}
	}
	b.ReportMetric(res.DeliveredRatio*100, "delivered_pct")
	b.ReportMetric(res.WallPktsPerSec, "sw_pps")
}

// BenchmarkThroughputBaseline replays the campus trace without Hydra.
func BenchmarkThroughputBaseline(b *testing.B) { benchThroughput(b, false) }

// BenchmarkThroughputAllCheckers replays it with all checkers linked.
func BenchmarkThroughputAllCheckers(b *testing.B) { benchThroughput(b, true) }

// ---------------------------------------------------------------------------
// Sharded checker engine

// benchEngineShards replays the campus trace through the flow-sharded
// engine with all corpus checkers attached. The engine is rebuilt per
// iteration so per-shard load sensors start cold each time; `pps` is
// the engine's packet-checking rate. Parallel speedup needs cores: on a
// multi-core machine shards scale the rate, under GOMAXPROCS=1 they
// tie.
func benchEngineShards(b *testing.B, shards int) {
	const packets = 10_000
	var res experiments.EngineReplayResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunEngineReplay(experiments.EngineReplayConfig{
			Packets: packets, Seed: 5, Shards: shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Counts.Forwarded != packets || res.Counts.Errors != 0 {
			b.Fatalf("replay outcome changed: %+v", res.Counts)
		}
	}
	b.ReportMetric(res.WallPktsPerSec, "pps")
}

func BenchmarkEngineShards1(b *testing.B) { benchEngineShards(b, 1) }
func BenchmarkEngineShards4(b *testing.B) { benchEngineShards(b, 4) }
func BenchmarkEngineShards8(b *testing.B) { benchEngineShards(b, 8) }

// BenchmarkNetsimReplay measures the end-to-end wire path: the campus
// trace through the event-driven fabric with all checkers attached —
// pooled parse, plan-based header binding, in-place telemetry rewrite,
// and single-pass serialization. `pps` is wall-clock end-to-end
// throughput; `fast_pct` is the share of switch transmissions that took
// the in-place rewrite fast path.
func BenchmarkNetsimReplay(b *testing.B) {
	const packets = 10_000
	var res experiments.WireReplayResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunWireReplay(experiments.WireReplayConfig{Packets: packets, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		if res.DeliveredRatio != 1 || res.Rejected != 0 || res.ParseErrors != 0 {
			b.Fatalf("replay outcome changed: delivered=%.2f rejected=%d errors=%d",
				res.DeliveredRatio, res.Rejected, res.ParseErrors)
		}
	}
	b.ReportMetric(res.WallPktsPerSec, "pps")
	b.ReportMetric(res.FastShare*100, "fast_pct")
}

// BenchmarkStormReplay measures the report-bus pipeline under a
// worst-case report storm: the campus trace with an always-violating
// probe raising a digest at every hop, aggregated and rate-limited by
// the bus. `storm_pps` is replay throughput with the storm active;
// `pps_ratio` is storm over baseline (probe disarmed) — the cost of the
// report path itself.
func BenchmarkStormReplay(b *testing.B) {
	var res experiments.StormResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunStorm(experiments.StormConfig{
			Packets: 10_000, Seed: 5, Repeats: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Storm.Unaccounted != 0 || res.Storm.ExportedDigests != res.Storm.Raised {
			b.Fatalf("storm accounting broke: raised=%d exported=%d unaccounted=%d",
				res.Storm.Raised, res.Storm.ExportedDigests, res.Storm.Unaccounted)
		}
	}
	b.ReportMetric(res.Storm.WallPktsPerSec, "storm_pps")
	b.ReportMetric(res.PPSRatio, "pps_ratio")
	b.ReportMetric(float64(res.Storm.MaxLiveAggregates), "max_live_aggs")
}

// ---------------------------------------------------------------------------
// Per-checker hot path

// linkOne links rt as a set of one on a context of its own: the VM side
// of the per-program ablations below.
func linkOne(b *testing.B, rt *compiler.Runtime) *difftest.Linked {
	b.Helper()
	vm, err := difftest.Link(rt)
	if err != nil {
		b.Fatal(err)
	}
	return vm
}

// BenchmarkCheckerPerPacket measures one telemetry-hop execution of
// each compiled corpus checker — the per-packet work a switch does.
func BenchmarkCheckerPerPacket(b *testing.B) {
	for _, p := range checkers.All {
		p := p
		b.Run(p.Key, func(b *testing.B) {
			prog := compiler.MustCompile(checkers.MustParse(p.Key), compiler.Options{Name: p.Key})
			vm := linkOne(b, &compiler.Runtime{Prog: prog})
			st := prog.NewState()
			headers := map[string]pipeline.Value{}
			for _, path := range prog.HeaderBindings {
				headers[path] = pipeline.B(32, 1)
			}
			env := difftest.HopEnv{State: st, SwitchID: 7, Headers: headers, PacketLen: 256}
			var blob []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hr, err := vm.RunHop(blob, env, i == 0, false)
				if err != nil {
					b.Fatal(err)
				}
				blob = hr.Blob
			}
			b.ReportMetric(float64((prog.TeleWireBits()+7)/8), "tele_B")
		})
	}
}

// BenchmarkPHVSlots is the slot-resolution ablation: one telemetry-hop
// execution of the loop-freedom checker on the map-PHV interpreter vs
// the bytecode VM (flat []Value PHV, one dispatch loop, static-offset
// telemetry codec): the reference semantics against a set of one on a
// resident context, each one wire pass per hop.
func BenchmarkPHVSlots(b *testing.B) {
	prog := compiler.MustCompile(checkers.MustParse("loop-freedom"), compiler.Options{})
	for _, mode := range []struct {
		name string
		run  func([]byte, difftest.HopEnv, bool, bool) (difftest.HopResult, error)
	}{
		{"map", difftest.Reference{Prog: prog}.RunHop},
		{"vm", linkOne(b, &compiler.Runtime{Prog: prog}).RunHop},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			st := prog.NewState()
			env := difftest.HopEnv{State: st, SwitchID: 7, PacketLen: 256}
			var blob []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hr, err := mode.run(blob, env, i == 0, false)
				if err != nil {
					b.Fatal(err)
				}
				blob = hr.Blob
			}
		})
	}
}

// BenchmarkTableLookup measures the match-action table hot paths: the
// packed-key exact table in cache and out of it, the keyless (scalar
// control) table that never probes, the wide-key (string fallback) exact
// map, and the pre-sorted TCAM scan with compiled per-entry matchers.
func BenchmarkTableLookup(b *testing.B) {
	b.Run("exact-packed", func(b *testing.B) {
		t := pipeline.NewTable("t", []pipeline.KeySpec{{Width: 32}, {Width: 16}},
			[]pipeline.FieldRef{"ctrl.v"}, []pipeline.Value{pipeline.B(16, 0)})
		for i := 0; i < 256; i++ {
			if err := t.Insert(pipeline.Entry{
				Keys:   []pipeline.KeyMatch{pipeline.ExactKey(uint64(i)), pipeline.ExactKey(uint64(i % 16))},
				Action: []pipeline.Value{pipeline.B(16, uint64(i))},
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit := t.LookupPacked(pipeline.PackedKey{uint64(i % 256), uint64(i % 16)}); !hit {
				b.Fatal("miss")
			}
		}
	})
	// exact-packed above is 256 entries, all in L1: it times the hash and
	// the compare. A per-flow table outgrows every cache, and there a
	// lookup costs what its layout makes it touch — so this one holds
	// 1<<18 two-column entries (a 16 MB record array) and visits them in
	// a fixed pseudo-random order, as hits and as misses. It consumes
	// the action, and the next key depends on it, as the VM's writeOut
	// and the branch after it do: a loop that drops the action never
	// loads it, and independent lookups overlap their misses, which a
	// packet's two lookups a thousand instructions apart cannot.
	b.Run("exact-packed-cold", func(b *testing.B) {
		const n = 1 << 18
		t := pipeline.NewTable("t", []pipeline.KeySpec{{Width: 32}, {Width: 32}},
			[]pipeline.FieldRef{"ctrl.v"}, []pipeline.Value{pipeline.B(16, 0)})
		key := func(i uint64) pipeline.PackedKey { return pipeline.PackedKey{0x0a000000 + i, 0x0a800000 + i>>3} }
		batch, keys, acts := make([]pipeline.Entry, n), make([]pipeline.KeyMatch, 2*n), make([]pipeline.Value, n)
		for i := range batch {
			k := key(uint64(i))
			keys[2*i], keys[2*i+1], acts[i] = pipeline.ExactKey(k[0]), pipeline.ExactKey(k[1]), pipeline.B(32, 4*uint64(i))
			batch[i] = pipeline.Entry{Keys: keys[2*i : 2*i+2], Action: acts[i : i+1]}
		}
		if err := t.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
		t.WarmSnapshot()
		for _, v := range []struct {
			name string
			base uint64 // n past the installed keys: every lookup misses
		}{{"hit", 0}, {"miss", n}} {
			b.Run(v.name, func(b *testing.B) {
				i := uint64(0)
				next := func() bool {
					a, hit := t.LookupPacked(key(v.base + i))
					// A hit's action is 4i, a miss's 0: either way the
					// multiplier stays 1 mod 4, so the LCG keeps its full
					// period over the n keys.
					i = (i*1664525 + 1013904223 + a[0].V) % n
					return hit
				}
				if allocs := testing.AllocsPerRun(1000, func() { next() }); allocs != 0 {
					b.Fatalf("%.1f allocs per lookup, want 0", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for j := 0; j < b.N; j++ {
					if next() != (v.base == 0) {
						b.Fatal("a hit where a miss belongs, or the reverse")
					}
				}
			})
		}
	})
	b.Run("keyless", func(b *testing.B) {
		// A scalar control variable: no key columns, one entry.
		t := pipeline.NewTable("t", nil, []pipeline.FieldRef{"ctrl.v"}, []pipeline.Value{pipeline.B(16, 0)})
		if err := t.Insert(pipeline.Entry{Action: []pipeline.Value{pipeline.B(16, 7)}}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit := t.LookupPacked(pipeline.PackedKey{}); !hit {
				b.Fatal("miss")
			}
		}
	})
	b.Run("exact-wide", func(b *testing.B) {
		keys := make([]pipeline.KeySpec, 6)
		for i := range keys {
			keys[i] = pipeline.KeySpec{Width: 16}
		}
		t := pipeline.NewTable("t", keys, []pipeline.FieldRef{"ctrl.v"}, []pipeline.Value{pipeline.B(16, 0)})
		for i := 0; i < 64; i++ {
			km := make([]pipeline.KeyMatch, 6)
			for j := range km {
				km[j] = pipeline.ExactKey(uint64(i + j))
			}
			if err := t.Insert(pipeline.Entry{Keys: km, Action: []pipeline.Value{pipeline.B(16, uint64(i))}}); err != nil {
				b.Fatal(err)
			}
		}
		vals := make([]uint64, 6)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range vals {
				vals[j] = uint64(i%64 + j)
			}
			if _, hit := t.Lookup(vals); !hit {
				b.Fatal("miss")
			}
		}
	})
	b.Run("tcam", func(b *testing.B) {
		t := pipeline.NewTable("t",
			[]pipeline.KeySpec{{Width: 32, Kind: pipeline.MatchTernary}, {Width: 16, Kind: pipeline.MatchRange}},
			[]pipeline.FieldRef{"ctrl.v"}, []pipeline.Value{pipeline.B(16, 0)})
		for i := 0; i < 64; i++ {
			if err := t.Insert(pipeline.Entry{
				Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(uint64(i), 0xFF), pipeline.RangeKey(uint64(i*10), uint64(i*10+9))},
				Priority: i,
				Action:   []pipeline.Value{pipeline.B(16, uint64(i))},
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i % 64)
			if _, hit := t.LookupPacked(pipeline.PackedKey{k, k*10 + 5}); !hit {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkInterpreterVsPipeline compares the reference interpreter
// against the compiled pipeline on the same trace (a compiler speedup
// ablation: the differential tests prove they agree; this measures the
// gap).
func BenchmarkInterpreterVsPipeline(b *testing.B) {
	info := checkers.MustParse("loop-freedom")

	b.Run("interpreter", func(b *testing.B) {
		m := eval.New(info)
		sws := []*eval.SwitchState{eval.NewSwitchState(1), eval.NewSwitchState(2), eval.NewSwitchState(3)}
		hops := []eval.Hop{
			{Switch: sws[0], PacketLen: 100},
			{Switch: sws[1], PacketLen: 100},
			{Switch: sws[2], PacketLen: 100},
		}
		for i := 0; i < b.N; i++ {
			if _, err := m.RunTrace(hops); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		prog := compiler.MustCompile(info, compiler.Options{})
		vm := linkOne(b, &compiler.Runtime{Prog: prog})
		st := prog.NewState()
		envs := [][]difftest.HopEnv{{
			{State: st, SwitchID: 1, PacketLen: 100},
			{State: st, SwitchID: 2, PacketLen: 100},
			{State: st, SwitchID: 3, PacketLen: 100},
		}}
		for i := 0; i < b.N; i++ {
			if _, err := vm.RunTrace(envs, difftest.Wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation 1 (§4.3): last-hop vs per-hop checking

// BenchmarkAblationCheckPlacement compares the two linking modes on the
// loop checker: per-hop checking runs the checker block at every switch
// (more work per hop, violations caught mid-network), last-hop checking
// only at the edge.
func BenchmarkAblationCheckPlacement(b *testing.B) {
	info := checkers.MustParse("loop-freedom")
	prog := compiler.MustCompile(info, compiler.Options{})
	for _, mode := range []struct {
		name     string
		everyHop bool
	}{{"last-hop", false}, {"per-hop", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			vm := linkOne(b, &compiler.Runtime{Prog: prog, CheckEveryHop: mode.everyHop})
			st := prog.NewState()
			envs := []difftest.HopEnv{
				{State: st, SwitchID: 1, PacketLen: 100},
				{State: st, SwitchID: 2, PacketLen: 100},
				{State: st, SwitchID: 1, PacketLen: 100}, // loop!
				{State: st, SwitchID: 3, PacketLen: 100},
			}
			caughtAt := -1
			for i := 0; i < b.N; i++ {
				var blob []byte
				caughtAt = -1
				for h, env := range envs {
					hr, err := vm.RunHop(blob, env, h == 0, h == len(envs)-1)
					if err != nil {
						b.Fatal(err)
					}
					blob = hr.Blob
					if hr.Reject && caughtAt < 0 {
						caughtAt = h
					}
				}
			}
			b.ReportMetric(float64(caughtAt), "caught_at_hop")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation 2: loop unrolling factor / telemetry array capacity

// BenchmarkAblationArrayCapacity sweeps the path-trace capacity of the
// loop checker: larger arrays mean more telemetry bytes on the wire,
// more generated P4, and more unrolled work per hop.
func BenchmarkAblationArrayCapacity(b *testing.B) {
	for _, capacity := range []int{2, 4, 8, 16} {
		capacity := capacity
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			src := fmt.Sprintf(`
tele bit<32>[%d] path;
tele bool revisited = false;
{ }
{
  if (switch_id in path) { revisited = true; }
  path.push(switch_id);
}
{ if (revisited) { reject; } }
`, capacity)
			prog, err := parser.Parse("ablation.indus", src)
			if err != nil {
				b.Fatal(err)
			}
			info, err := types.Check(prog)
			if err != nil {
				b.Fatal(err)
			}
			compiled, err := compiler.Compile(info, compiler.Options{Name: "ablation"})
			if err != nil {
				b.Fatal(err)
			}
			vm := linkOne(b, &compiler.Runtime{Prog: compiled})
			st := compiled.NewState()
			env := difftest.HopEnv{State: st, SwitchID: 9, PacketLen: 100}
			var blob []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hr, err := vm.RunHop(blob, env, i == 0, false)
				if err != nil {
					b.Fatal(err)
				}
				blob = hr.Blob
			}
			b.ReportMetric(float64((compiled.TeleWireBits()+7)/8), "tele_B")
			b.ReportMetric(float64(p4.LineCount(p4.Emit(compiled))), "p4_loc")
			b.ReportMetric(float64(resources.Analyze(compiled).AddedPHVBits), "phv_bits")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation 4: telemetry on-wire cost across the corpus

// BenchmarkAblationTelemetryBytes reports each checker's wire overhead
// (the bytes the Hydra header adds to every packet), the quantity that
// showed up as the serialization-delay delta in Figure 12.
func BenchmarkAblationTelemetryBytes(b *testing.B) {
	total := 0
	for _, p := range checkers.All {
		prog := compiler.MustCompile(checkers.MustParse(p.Key), compiler.Options{Name: p.Key})
		total += (prog.TeleWireBits() + 7) / 8
	}
	for i := 0; i < b.N; i++ {
		_ = total
	}
	b.ReportMetric(float64(total), "all_checkers_tele_B")
}

// ---------------------------------------------------------------------------
// End-to-end fabric benchmark

// BenchmarkFabricPacket measures a full end-to-end packet delivery
// (host -> leaf -> spine -> leaf -> host) through the simulator, with
// and without a checker attached.
func BenchmarkFabricPacket(b *testing.B) {
	run := func(b *testing.B, attach bool) {
		sim := netsim.NewSimulator()
		ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
		if attach {
			prog := compiler.MustCompile(checkers.MustParse("loop-freedom"), compiler.Options{})
			rt := &compiler.Runtime{Prog: prog}
			for _, sw := range ls.AllSwitches() {
				sw.AttachChecker(rt, nil)
			}
		}
		h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h1.SendUDP(h2.IP, uint16(i), 80, 64)
			sim.RunAll()
		}
		if h2.RxUDP != uint64(b.N) {
			b.Fatalf("delivered %d/%d", h2.RxUDP, b.N)
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false) })
	b.Run("with-checker", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTelemetryEncoding compares the packed (deparser
// bit-packed) and byte-aligned telemetry encodings across the corpus:
// wire bytes and codec time per hop.
func BenchmarkAblationTelemetryEncoding(b *testing.B) {
	for _, mode := range []struct {
		name    string
		aligned bool
	}{{"packed", false}, {"aligned", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			total := 0
			progs := make([]*pipeline.Program, 0, len(checkers.All))
			for _, p := range checkers.All {
				prog := compiler.MustCompile(checkers.MustParse(p.Key), compiler.Options{Name: p.Key, AlignedTele: mode.aligned})
				progs = append(progs, prog)
				total += (prog.TeleWireBits() + 7) / 8
			}
			phv := pipeline.PHV{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, prog := range progs {
					if err := prog.DecodeTele(nil, phv); err != nil {
						b.Fatal(err)
					}
					blob := prog.EncodeTele(phv)
					if err := prog.DecodeTele(blob, phv); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(total), "all_checkers_tele_B")
		})
	}
}
