package experiments

import "testing"

// stormTestConfig is a small storm replay: 4000 packets, and a live-key
// cap far below the campus flow count so the overflow buckets engage.
func stormTestConfig() StormConfig {
	return StormConfig{Packets: 4000, Seed: 5, MaxKeys: 128, Repeats: 1}
}

// TestStormAccounting runs a small storm replay and checks the bus's
// conservation and memory-bound guarantees — the exact-arithmetic side
// of the experiment, independent of wall-clock throughput.
func TestStormAccounting(t *testing.T) {
	cfg := stormTestConfig()
	r, err := RunStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: probe disarmed, benign configuration — nothing reports.
	if r.Baseline.Raised != 0 || r.Baseline.ExportedDigests != 0 {
		t.Fatalf("baseline pass raised %d digests (exported %d), want 0",
			r.Baseline.Raised, r.Baseline.ExportedDigests)
	}
	if r.Baseline.Unaccounted != 0 {
		t.Fatalf("baseline unaccounted = %d", r.Baseline.Unaccounted)
	}
	if r.Baseline.Delivered == 0 {
		t.Fatal("baseline delivered no packets")
	}

	// Storm: the probe reports at every egress hop of every packet. The
	// leaf-spine path is leaf -> spine -> leaf = 3 hops.
	wantRaised := uint64(3 * cfg.Packets)
	if r.Storm.Raised != wantRaised {
		t.Fatalf("storm raised %d digests, want %d (3 hops x %d packets)",
			r.Storm.Raised, wantRaised, cfg.Packets)
	}

	// Conservation: inline producers never drop, so after the final
	// flush the exporter must have seen every raised digest, exactly.
	if r.Storm.ExportedDigests != r.Storm.Raised {
		t.Fatalf("exported %d digests != raised %d — the storm lost or invented reports",
			r.Storm.ExportedDigests, r.Storm.Raised)
	}
	if r.Storm.Unaccounted != 0 {
		t.Fatalf("storm unaccounted = %d", r.Storm.Unaccounted)
	}

	// Storm control actually engaged, and the overflow buckets absorbed
	// the key-space beyond MaxKeys.
	if r.Storm.Suppressed == 0 {
		t.Fatal("storm pass saw no storm-control suppression — rate budget never engaged")
	}
	if r.Storm.OverflowDigests == 0 {
		t.Fatal("storm pass saw no overflow digests — MaxKeys never engaged")
	}

	// Memory bound: live aggregates can never exceed MaxKeys plus one
	// overflow bucket per (checker, switch) pair. 4 switches, corpus
	// checkers + probe — bound generously by MaxKeys + 64.
	if max := cfg.MaxKeys + 64; r.Storm.MaxLiveAggregates > max {
		t.Fatalf("collector held %d live aggregates, memory bound is %d",
			r.Storm.MaxLiveAggregates, max)
	}

	// Both passes moved packets; the ratio is wall-clock, but of two
	// passes of this run on this machine, so a collapse of the report
	// path shows on any hardware.
	if r.PPSRatio <= 0.2 {
		t.Fatalf("storm/baseline pps ratio %.3f — report path collapsed", r.PPSRatio)
	}
}
