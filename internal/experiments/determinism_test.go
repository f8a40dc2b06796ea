package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Determinism goldens: same verdicts, same counters, same detection
// matrix, from the same seed, byte for byte. Regenerate with
// EXPERIMENTS_GOLDEN_UPDATE=1 only for a change meant to move them.

const (
	chaosMatrixGolden  = "testdata/chaos_matrix.golden.json"
	chaosStaticGolden  = "testdata/chaos_static.golden.json"
	wireCountersGolden = "testdata/wire_counters.golden"
)

func updateGolden(t *testing.T, path, got string) bool {
	t.Helper()
	if os.Getenv("EXPERIMENTS_GOLDEN_UPDATE") == "" {
		return false
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(got))
	return true
}

func checkGolden(t *testing.T, path, got, label string) {
	t.Helper()
	if updateGolden(t, path, got) {
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with EXPERIMENTS_GOLDEN_UPDATE=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from the sequential-simulator golden (%d vs %d bytes)\ngot:\n%s",
			label, len(got), len(want), got)
	}
}

// wireCounters renders the deterministic (non-wall-clock) outcome of a
// wire replay.
func wireCounters(r WireReplayResult) string {
	return fmt.Sprintf(
		"delivered=%d ratio=%.4f checked=%d rejected=%d errors=%d tx=%d fast=%d slow=%d\n",
		r.Delivered, r.DeliveredRatio, r.Checked, r.Rejected, r.ParseErrors,
		r.TxFrames, r.FastTxFrames, r.SlowTxFrames)
}

// The simulator runs one event loop, so shards=1 is the only case; the
// subtest keeps the name the golden was first pinned under.
func TestWireReplayMatchesSequentialGolden(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		res, err := RunWireReplay(WireReplayConfig{Packets: 5000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, wireCountersGolden, wireCounters(res), "wire replay counters")
	})
}

func TestChaosMatchesSequentialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos campaign")
	}
	r, err := RunChaos(chaosTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.MarshalIndent(r.Matrix, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, chaosMatrixGolden, string(j), "chaos detection matrix")
	s, err := json.MarshalIndent(r.Static, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, chaosStaticGolden, string(s), "chaos static matrix")
}

const (
	stormCountersGolden = "testdata/storm_counters.golden"
	throughputGolden    = "testdata/throughput.golden"
)

// stormCounters renders a storm pass's deterministic bus accounting.
// OverflowDigests is among it: a window emits in argument order, not in
// the order of the per-process ArgsHash, so which aggregates it defers —
// and so what later overflows — is the same in every process.
func stormCounters(name string, p StormPass) string {
	return fmt.Sprintf(
		"%s delivered=%d raised=%d exported=%d aggs=%d suppressed=%d max_live=%d unaccounted=%d overflow=%d\n",
		name, p.Delivered, p.Raised, p.ExportedDigests, p.EmittedAggregates,
		p.Suppressed, p.MaxLiveAggregates, p.Unaccounted, p.OverflowDigests)
}

// TestStormMatchesGolden pins both storm passes' bus accounting at
// TestStormAccounting's configuration.
func TestStormMatchesGolden(t *testing.T) {
	r, err := RunStorm(stormTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := stormCounters("baseline", r.Baseline) + stormCounters("storm", r.Storm)
	checkGolden(t, stormCountersGolden, got, "storm counters")
}

// TestThroughputMatchesGolden pins the §6.2 columns of both throughput
// configurations, everything but the wall-clock rate.
func TestThroughputMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	base, chk, err := RunThroughput(WireReplayConfig{Packets: 20_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, row := range []struct {
		name string
		r    WireReplayResult
	}{{"baseline", base}, {"all-checkers", chk}} {
		got += fmt.Sprintf("%s offered_pps=%.3f delivered_pps=%.3f gbps=%.6f ratio=%.4f\n",
			row.name, row.r.OfferedPps, row.r.DeliveredPps, row.r.DeliveredGbps, row.r.DeliveredRatio)
	}
	checkGolden(t, throughputGolden, got, "throughput columns")
}
