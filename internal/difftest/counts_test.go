package difftest_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// TestCampusVMCounts replays the engine-campus mix through Sequential and
// pins the VM's performance-model counters per packet: TableApplies and
// OpsExecuted count IR ops, so no fused instruction, lifted prologue entry
// or other dispatch-level rewrite may move them.
func TestCampusVMCounts(t *testing.T) {
	const n = 196608
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	pkts, pairs := experiments.CampusEnginePackets(n, 7)
	seq := engine.NewSequential(engine.Config{Checkers: chks})
	if err := experiments.ConfigureReplayEngine(seq.Install, pairs); err != nil {
		t.Fatal(err)
	}
	seq.Warm()
	_, c := seq.VMContext()
	applies, ops := c.TableApplies, c.OpsExecuted
	for i := 0; i < n; i += 256 {
		seq.ProcessBatch(pkts[i : i+256])
	}
	gotApplies := fmt.Sprintf("%.4f", float64(c.TableApplies-applies)/n)
	gotOps := fmt.Sprintf("%.4f", float64(c.OpsExecuted-ops)/n)
	if gotApplies != "41.0000" || gotOps != "204.7517" {
		t.Errorf("per packet: TableApplies %s, OpsExecuted %s; want 41.0000, 204.7517", gotApplies, gotOps)
	}
}
