package pipeline_test

import (
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// seededAllowed is the stateful firewall's allowed dictionary seeded
// from CampusEnginePackets(196608, 1)'s pairs, the largest table a
// campus replay installs (152 054 entries, 304 108 slots). It is built
// once for the tests that read it.
var seededAllowed = sync.OnceValues(func() (*pipeline.Table, error) {
	_, pairs := experiments.CampusEnginePackets(196608, 1)
	tbl := pipeline.NewTable("allowed",
		[]pipeline.KeySpec{{Name: "src", Width: 32}, {Name: "dst", Width: 32}},
		[]pipeline.FieldRef{"allowed.value"}, []pipeline.Value{pipeline.BoolV(false)})
	err := experiments.FirewallSeed(pairs)(&pipeline.State{Tables: map[string]*pipeline.Table{"allowed": tbl}})
	return tbl, err
})

func allowedTable(t *testing.T) *pipeline.Table {
	t.Helper()
	tbl, err := seededAllowed()
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.Len(); n != 152054 {
		t.Fatalf("the seed installed %d entries, want 152054", n)
	}
	return tbl
}

// TestProbeLength pins what a hit costs in allowed. Linear probing at
// half load expects 1.5 slots per hit; this seed measures 1.4965 and a
// longest run of 26. A hash that reads only the low half of the key word
// (the first column) clusters the records (1.6457 and 30), and one
// multiply over the whole word stretches the longest run (1.5008 and
// 37): each fails a bound. At the store's 16-byte stride the runs span
// 1.1239 64-byte lines per hit; at the 32 bytes a record took when its
// key and action were Values, the same runs spanned 1.2485, and at 24
// bytes, a stride that straddles lines, 1.4357.
func TestProbeLength(t *testing.T) {
	tbl := allowedTable(t)
	mean, longest := pipeline.ProbeLengths(tbl)
	lines := pipeline.ProbeLines(tbl)
	t.Logf("%.4f slots per hit, %d at most; %.4f lines per hit", mean, longest, lines)
	if mean > 1.5 || longest > 26 {
		t.Fatalf("a hit visits %.4f slots on average (want <= 1.5) and %d at most (want <= 26)", mean, longest)
	}
	if lines > 1.15 {
		t.Fatalf("a hit's probe run spans %.4f cache lines on average, want <= 1.15", lines)
	}
}

// TestAllowedRecordBytes pins allowed's record: its two 32-bit columns
// in one key word and one word indexing the action profile, 16 bytes a
// slot at two slots an entry — 4.87 MB, where key and action as Values
// took 32 bytes a slot.
func TestAllowedRecordBytes(t *testing.T) {
	bytes, slots := pipeline.RecordBytes(allowedTable(t))
	if slots != 304108 || bytes != 16*slots {
		t.Fatalf("allowed holds %d slots in %d bytes (%.1f a slot), want 304108 slots of 16 bytes", slots, bytes, float64(bytes)/float64(slots))
	}
}
