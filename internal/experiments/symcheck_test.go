package experiments

import (
	"strings"
	"testing"
)

// TestSymcheckCorpus is the tentpole gate: the symbolic equivalence run
// must prove all twelve corpus checkers identical across the three
// backends over the modeled space, with a non-empty violation frontier
// each.
func TestSymcheckCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("symcheck sweep skipped in -short")
	}
	res, err := RunSymcheck(SymcheckConfig{})
	if err != nil {
		t.Fatalf("RunSymcheck: %v", err)
	}
	out := FormatSymcheck(res)
	t.Log("\n" + out)
	if !res.Passed {
		t.Fatalf("symcheck failed:\n%s", out)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("expected 12 corpus checkers, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Replayed == 0 {
			t.Errorf("%s: nothing replayed", row.Checker)
		}
		if row.SetChecks != 12*row.Replayed {
			t.Errorf("%s: %d set checks for %d replays, want every replay beside all 12 members", row.Checker, row.SetChecks, row.Replayed)
		}
		if row.Counterexample != nil {
			t.Errorf("%s: unexpected counterexample: %s", row.Checker, row.Counterexample.Detail)
		}
	}
	if !strings.Contains(out, "PROVEN") {
		t.Errorf("formatted report missing PROVEN status:\n%s", out)
	}
}
