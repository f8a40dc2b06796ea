package repro_test

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/experiments"
)

// benchBaseline is the committed performance envelope in
// BENCH_baseline.json. PHV usage is a deterministic compile-time
// metric, so it is guarded tightly; packets-per-second is wall-clock
// and machine-dependent, so the guard only fails when throughput drops
// below EnginePPS×PPSMinFactor. The factor is 0.5: tight enough that
// losing the resident-context VM loop (or an accidental O(n²), or a
// lock on the per-packet path) fails the guard, loose enough not to
// flake on slower hardware. See README for the baseline update
// workflow.
type benchBaseline struct {
	Note         string  `json:"note"`
	EnginePPS    float64 `json:"engine_pps"`
	PPSMinFactor float64 `json:"pps_min_factor"`
	// BatchPPS is the steady-state batched bytecode-VM checking rate
	// (Sequential.ProcessBatch, single shard, no dispatch queues) — the
	// hot path the BenchmarkEngineBatch* benchmarks track. Guarded by
	// the same min factor.
	BatchPPS float64 `json:"batch_pps"`
	// WirePPS is the end-to-end wire-path replay rate (netsim fabric,
	// all checkers), guarded by the same min factor as the engine rate.
	WirePPS float64 `json:"wire_pps"`
	// WireParPPS is the same wire replay on a 4-shard partitioned
	// simulator (-simshards 4). On a multi-core runner it should exceed
	// WirePPS; on a single-core container it trails it (the window
	// barriers cost ~1 handoff per microsecond of simulated time with
	// nothing to overlap), so the guard only pins it against itself —
	// catching a regression in the parallel coordinator, not demanding a
	// speedup the hardware cannot give. See EXPERIMENTS.md E15.
	WireParPPS float64 `json:"wire_par_pps"`
	// StormPPS is the wire-path replay rate with the always-violating
	// storm probe armed — every packet raises a digest at every hop into
	// the report bus. Guarded by the same min factor: a per-digest
	// allocation or lock on the publish path shows up here first.
	StormPPS float64 `json:"storm_pps"`
	// ParseIntoNs/AppendToNs are the codec hot-path costs; the guard
	// fails when either slows down by more than CodecMaxFactor.
	ParseIntoNs    float64 `json:"parse_into_ns"`
	AppendToNs     float64 `json:"append_to_ns"`
	CodecMaxFactor float64 `json:"codec_max_factor"`
	// AtomsUpdateNs is the per-rule-update latency of the incremental
	// control-plane verifier under k=8 fat-tree churn (E16); the guard
	// fails when it slows down by more than AtomsMaxFactor — catching a
	// full-partition recheck creeping into the incremental path.
	AtomsUpdateNs  float64            `json:"atoms_update_ns"`
	AtomsMaxFactor float64            `json:"atoms_max_factor"`
	PHVTolerance   float64            `json:"phv_tolerance"`
	PHVPct         map[string]float64 `json:"phv_pct"`
}

const baselinePath = "BENCH_baseline.json"

func measureEnginePPS(t testing.TB) float64 {
	res, err := experiments.RunEngineReplay(experiments.EngineReplayConfig{
		Packets: 20_000, Shards: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Forwarded != res.Counts.Packets || res.Counts.Errors != 0 {
		t.Fatalf("benign replay must forward everything: %+v", res.Counts)
	}
	return res.WallPktsPerSec
}

func measureBatchPPS(t testing.TB) float64 {
	res, err := experiments.RunSequentialReplay(experiments.EngineReplayConfig{
		Packets: 20_000, Seed: 5, BatchSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Forwarded != res.Counts.Packets || res.Counts.Errors != 0 {
		t.Fatalf("benign batch replay must forward everything: %+v", res.Counts)
	}
	return res.WallPktsPerSec
}

func measureWirePPS(t testing.TB) float64 {
	res, err := experiments.RunWireReplay(experiments.WireReplayConfig{
		Packets: 20_000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredRatio != 1 || res.Rejected != 0 || res.ParseErrors != 0 {
		t.Fatalf("benign wire replay must deliver everything: delivered=%.2f rejected=%d errors=%d",
			res.DeliveredRatio, res.Rejected, res.ParseErrors)
	}
	return res.WallPktsPerSec
}

func measureWireParPPS(t testing.TB) float64 {
	res, err := experiments.RunWireReplay(experiments.WireReplayConfig{
		Packets: 20_000, Seed: 5, SimShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredRatio != 1 || res.Rejected != 0 || res.ParseErrors != 0 {
		t.Fatalf("benign parallel wire replay must deliver everything: delivered=%.2f rejected=%d errors=%d",
			res.DeliveredRatio, res.Rejected, res.ParseErrors)
	}
	if res.Sim.Shards != 4 {
		t.Fatalf("parallel wire replay ran on %d shards, want 4", res.Sim.Shards)
	}
	return res.WallPktsPerSec
}

func measureStormPPS(t testing.TB) float64 {
	res, err := experiments.RunStorm(experiments.StormConfig{
		Packets: 20_000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Storm.Unaccounted != 0 || res.Storm.Dropped != 0 ||
		res.Storm.ExportedDigests != res.Storm.Raised {
		t.Fatalf("storm replay accounting broke: raised=%d exported=%d dropped=%d unaccounted=%d",
			res.Storm.Raised, res.Storm.ExportedDigests, res.Storm.Dropped, res.Storm.Unaccounted)
	}
	return res.Storm.WallPktsPerSec
}

// measureAtomsNs times the incremental verifier's per-rule-update cost
// on the standard E16 churn (k=8 fat-tree, 2000 mutations) and asserts
// its correctness contract on the way: clean end state and a per-update
// recheck that stays well below the partition size.
func measureAtomsNs(t testing.TB) float64 {
	res, err := experiments.RunAtomsChurn(experiments.AtomsConfig{K: 8, Updates: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outstanding != 0 || res.Raised != res.Resolved {
		t.Fatalf("atoms churn must end clean: %+v", res)
	}
	if res.MaxAffected >= res.Atoms/2 {
		t.Fatalf("atoms churn rechecked %d of %d atoms in one update — incremental property lost", res.MaxAffected, res.Atoms)
	}
	return res.ChurnNsPerUpdate
}

// codecBenchFrame mirrors the packet shape of the dataplane package's
// BenchmarkParseInto/BenchmarkAppendTo: VLAN + 24-byte Hydra blob + UDP.
func codecBenchFrame() []byte {
	pkt := &dataplane.Decoded{
		Eth: dataplane.Ethernet{
			Dst: dataplane.MACFromUint64(2), Src: dataplane.MACFromUint64(1),
			Type: dataplane.EtherTypeIPv4,
		},
		HasVLAN: true,
		VLAN:    dataplane.VLAN{VID: 42},
		HasIPv4: true,
		IPv4: dataplane.IPv4{
			TTL: 64, Protocol: dataplane.ProtoUDP,
			Src: dataplane.MustIP4("10.0.0.1"), Dst: dataplane.MustIP4("10.0.0.2"),
		},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 1234, DstPort: 80},
		Payload: []byte("benchmark payload bytes"),
	}
	pkt.InsertHydra(make([]byte, 24))
	return pkt.Serialize()
}

// measureCodecNs times the two codec hot paths with testing.Benchmark —
// the same loops as the dataplane package's benchmarks, runnable from
// the regression guard.
func measureCodecNs(t testing.TB) (parseIntoNs, appendToNs float64) {
	frame := codecBenchFrame()
	var dec dataplane.Decoded
	parse := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := dataplane.ParseInto(&dec, frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := dataplane.ParseInto(&dec, frame); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, dec.WireLen())
	app := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = dec.AppendTo(buf[:0])
		}
	})
	return float64(parse.NsPerOp()), float64(app.NsPerOp())
}

// TestBenchRegressionGuard compares the current build against the
// committed baseline. Set BENCH_BASELINE_UPDATE=1 to remeasure and
// rewrite BENCH_baseline.json instead (do this deliberately, with the
// diff reviewed — the file is the contract).
func TestBenchRegressionGuard(t *testing.T) {
	rows, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	phv := make(map[string]float64, len(rows))
	for _, r := range rows {
		phv[r.Key] = r.PHVPct
	}

	if os.Getenv("BENCH_BASELINE_UPDATE") != "" {
		parseNs, appendNs := measureCodecNs(t)
		base := benchBaseline{
			Note:           "regenerate with: BENCH_BASELINE_UPDATE=1 go test -run TestBenchRegressionGuard",
			EnginePPS:      measureEnginePPS(t),
			PPSMinFactor:   0.5,
			BatchPPS:       measureBatchPPS(t),
			WirePPS:        measureWirePPS(t),
			WireParPPS:     measureWireParPPS(t),
			StormPPS:       measureStormPPS(t),
			ParseIntoNs:    parseNs,
			AppendToNs:     appendNs,
			CodecMaxFactor: 2.0,
			AtomsUpdateNs:  measureAtomsNs(t),
			AtomsMaxFactor: 3.0,
			PHVTolerance:   0.01,
			PHVPct:         phv,
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %.0f pps, %d phv rows", baselinePath, base.EnginePPS, len(base.PHVPct))
		return
	}

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with BENCH_BASELINE_UPDATE=1): %v", baselinePath, err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing %s: %v", baselinePath, err)
	}

	for key, want := range base.PHVPct {
		got, ok := phv[key]
		if !ok {
			t.Errorf("checker %q is in %s but no longer in Table 1 — regenerate the baseline", key, baselinePath)
			continue
		}
		if math.Abs(got-want) > base.PHVTolerance {
			t.Errorf("%s: phv_pct = %.4f, baseline %.4f (tolerance %.4f) — a compiler layout change; "+
				"if intended, regenerate the baseline", key, got, want, base.PHVTolerance)
		}
	}
	for key := range phv {
		if _, ok := base.PHVPct[key]; !ok {
			t.Errorf("checker %q has no phv_pct baseline — regenerate %s", key, baselinePath)
		}
	}

	if testing.Short() {
		t.Skip("skipping wall-clock pps guard in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock pps guard is meaningless under the race detector")
	}
	floor := base.EnginePPS * base.PPSMinFactor
	if pps := measureEnginePPS(t); pps < floor {
		t.Errorf("engine replay ran at %.0f pps, below the guard floor %.0f (baseline %.0f × %.2f)",
			pps, floor, base.EnginePPS, base.PPSMinFactor)
	}
	if base.BatchPPS > 0 {
		batchFloor := base.BatchPPS * base.PPSMinFactor
		if pps := measureBatchPPS(t); pps < batchFloor {
			t.Errorf("batched replay ran at %.0f pps, below the guard floor %.0f (baseline %.0f × %.2f)",
				pps, batchFloor, base.BatchPPS, base.PPSMinFactor)
		}
	}
	if base.WirePPS > 0 {
		wireFloor := base.WirePPS * base.PPSMinFactor
		if pps := measureWirePPS(t); pps < wireFloor {
			t.Errorf("wire replay ran at %.0f pps, below the guard floor %.0f (baseline %.0f × %.2f)",
				pps, wireFloor, base.WirePPS, base.PPSMinFactor)
		}
	}
	if base.WireParPPS > 0 {
		parFloor := base.WireParPPS * base.PPSMinFactor
		if pps := measureWireParPPS(t); pps < parFloor {
			t.Errorf("4-shard wire replay ran at %.0f pps, below the guard floor %.0f (baseline %.0f × %.2f)",
				pps, parFloor, base.WireParPPS, base.PPSMinFactor)
		}
	}
	if base.StormPPS > 0 {
		stormFloor := base.StormPPS * base.PPSMinFactor
		if pps := measureStormPPS(t); pps < stormFloor {
			t.Errorf("storm replay ran at %.0f pps, below the guard floor %.0f (baseline %.0f × %.2f)",
				pps, stormFloor, base.StormPPS, base.PPSMinFactor)
		}
	}
	if base.AtomsUpdateNs > 0 && base.AtomsMaxFactor > 0 {
		ceil := base.AtomsUpdateNs * base.AtomsMaxFactor
		if ns := measureAtomsNs(t); ns > ceil {
			t.Errorf("atoms churn ran at %.0f ns/update, above the guard ceiling %.0f (baseline %.0f × %.1f)",
				ns, ceil, base.AtomsUpdateNs, base.AtomsMaxFactor)
		}
	}
}

// TestCodecRegressionGuard is the benchstat-style compare for the two
// wire-codec hot paths: it re-times ParseInto and AppendTo and fails
// when either exceeds the committed baseline by more than
// codec_max_factor (wall-clock, so the factor is generous — it catches
// an accidental per-parse allocation or quadratic scan, not jitter).
func TestCodecRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock codec guard in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock codec guard is meaningless under the race detector")
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with BENCH_BASELINE_UPDATE=1): %v", baselinePath, err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parsing %s: %v", baselinePath, err)
	}
	if base.ParseIntoNs == 0 || base.AppendToNs == 0 || base.CodecMaxFactor == 0 {
		t.Fatalf("%s has no codec baseline — regenerate with BENCH_BASELINE_UPDATE=1", baselinePath)
	}
	parseNs, appendNs := measureCodecNs(t)
	if ceil := base.ParseIntoNs * base.CodecMaxFactor; parseNs > ceil {
		t.Errorf("ParseInto runs at %.1f ns/op, above the guard ceiling %.1f (baseline %.1f × %.1f)",
			parseNs, ceil, base.ParseIntoNs, base.CodecMaxFactor)
	}
	if ceil := base.AppendToNs * base.CodecMaxFactor; appendNs > ceil {
		t.Errorf("AppendTo runs at %.1f ns/op, above the guard ceiling %.1f (baseline %.1f × %.1f)",
			appendNs, ceil, base.AppendToNs, base.CodecMaxFactor)
	}
}
