package pipeline_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// TestProbeLength pins what a hit costs in the largest table a campus
// replay installs: the stateful firewall's allowed dictionary, seeded
// from CampusEnginePackets(196608, 1)'s pairs (152 054 entries, 304 108
// slots). Linear probing at half load expects 1.5 slots per hit, and
// this seed measures 1.4965 and a longest run of 26; a hash that reads
// only the first key word clusters the records (1.6457 and 30) and fails
// both bounds.
func TestProbeLength(t *testing.T) {
	_, pairs := experiments.CampusEnginePackets(196608, 1)
	tbl := pipeline.NewTable("allowed",
		[]pipeline.KeySpec{{Name: "src", Width: 32}, {Name: "dst", Width: 32}},
		[]pipeline.FieldRef{"allowed.value"}, []pipeline.Value{pipeline.BoolV(false)})
	if err := experiments.FirewallSeed(pairs)(&pipeline.State{Tables: map[string]*pipeline.Table{"allowed": tbl}}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Len(); n != 152054 {
		t.Fatalf("the seed installed %d entries, want 152054", n)
	}
	mean, longest := pipeline.ProbeLengths(tbl)
	t.Logf("%.4f slots per hit, %d at most", mean, longest)
	if mean > 1.6 || longest > 26 {
		t.Fatalf("a hit visits %.4f slots on average (want <= 1.6) and %d at most (want <= 26)", mean, longest)
	}
}
