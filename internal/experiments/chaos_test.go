package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/faults"
)

// chaosTestConfig keeps the campaign small enough for CI while leaving
// every fault class enough packets to fire: ~6k packets spread over
// ~200 flows, fault rate high enough that each probabilistic class
// injects dozens of events.
func chaosTestConfig() ChaosConfig {
	return ChaosConfig{Packets: 6000, Seed: 3, FaultRate: 0.05}
}

// TestChaosDeterministic pins the reproducibility contract: the same
// seed and fault config produce a byte-identical detection matrix.
func TestChaosDeterministic(t *testing.T) {
	cfg := chaosTestConfig()
	r1, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("first chaos run: %v", err)
	}
	r2, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("second chaos run: %v", err)
	}
	j1, err := json.MarshalIndent(r1.Matrix, "", "  ")
	if err != nil {
		t.Fatalf("marshal first matrix: %v", err)
	}
	j2, err := json.MarshalIndent(r2.Matrix, "", "  ")
	if err != nil {
		t.Fatalf("marshal second matrix: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("detection matrix not byte-reproducible across runs\nfirst:\n%s\nsecond:\n%s", j1, j2)
	}
	s1, err := json.MarshalIndent(r1.Static, "", "  ")
	if err != nil {
		t.Fatalf("marshal first static matrix: %v", err)
	}
	s2, err := json.MarshalIndent(r2.Static, "", "  ")
	if err != nil {
		t.Fatalf("marshal second static matrix: %v", err)
	}
	if !bytes.Equal(s1, s2) {
		t.Errorf("static matrix not byte-reproducible across runs\nfirst:\n%s\nsecond:\n%s", s1, s2)
	}
}

// TestChaosStaticVerdicts asserts the static layer's contract on the
// chaos campaign: the healthy baseline is statically silent (zero
// false positives), every control-plane fault class — misroute,
// partial-install, delayed-install — is flagged before a single packet
// flows, and the runtime-only classes stay statically silent (they
// never pass through the observed control plane).
func TestChaosStaticVerdicts(t *testing.T) {
	r, err := RunChaos(chaosTestConfig())
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	sm := r.Static
	if j, err := json.MarshalIndent(sm, "", "  "); err == nil {
		t.Logf("static matrix:\n%s", j)
	}

	if sm.Baseline.Detected || len(sm.Baseline.Violations) != 0 || sm.Baseline.MissingInstalls != 0 {
		t.Errorf("healthy baseline flagged statically: %+v", sm.Baseline)
	}
	if sm.Baseline.RouteUpdates == 0 || sm.Baseline.Atoms == 0 {
		t.Errorf("verifier saw no routes on the baseline: %+v", sm.Baseline)
	}

	byClass := map[string]StaticScenario{}
	for _, s := range sm.Scenarios {
		byClass[s.Class] = s
		if s.Detected != s.Expected {
			t.Errorf("class %s: static detected=%v, expected=%v (%+v)", s.Class, s.Detected, s.Expected, s)
		}
		if !s.Expected && (len(s.Violations) != 0 || s.MissingInstalls != 0) {
			t.Errorf("runtime-only class %s flagged statically: %+v", s.Class, s)
		}
	}

	// Misroute surfaces as a forwarding loop in the mirrored route
	// state, published as at least one atoms digest.
	mis := byClass[string(faults.Misroute)]
	if len(mis.Violations) == 0 || mis.Digests == 0 {
		t.Errorf("misroute raised no static violations/digests: %+v", mis)
	}
	// The install faults surface through the audit, not the route
	// verifier: partial-install misses the withheld pairs, delayed
	// misses everything at snapshot time.
	part := byClass[string(faults.PartialInstall)]
	if part.MissingInstalls == 0 || len(part.Violations) != 0 {
		t.Errorf("partial-install: want missing installs only, got %+v", part)
	}
	del := byClass[string(faults.DelayedInstall)]
	if del.MissingInstalls <= part.MissingInstalls {
		t.Errorf("delayed-install missing %d installs, want more than partial-install's %d",
			del.MissingInstalls, part.MissingInstalls)
	}
}

// TestChaosDetectionMatrix asserts the campaign's detection guarantees:
// a clean healthy baseline (zero false positives, zero rejects), every
// expected detector firing for its fault class (no misses), and at
// least three fault classes each detected by at least one corpus
// checker.
func TestChaosDetectionMatrix(t *testing.T) {
	r, err := RunChaos(chaosTestConfig())
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	m := r.Matrix
	if j, err := json.MarshalIndent(m, "", "  "); err == nil {
		t.Logf("detection matrix:\n%s", j)
	}

	if len(m.Baseline.Digests) != 0 {
		t.Errorf("healthy baseline raised digests (false positives): %v", m.Baseline.Digests)
	}
	if len(m.Baseline.Rejected) != 0 {
		t.Errorf("healthy baseline rejected packets: %v", m.Baseline.Rejected)
	}
	if m.Baseline.Delivered == 0 {
		t.Fatalf("baseline delivered no packets")
	}
	for name, s := range m.Checkers {
		if s.FP != 0 {
			t.Errorf("checker %s: %d false positives on healthy baseline", name, s.FP)
		}
	}

	detectedClasses := 0
	byClass := map[string]ScenarioResult{}
	for _, sc := range m.Scenarios {
		byClass[sc.Class] = sc
		if len(sc.Detected) > 0 {
			detectedClasses++
		}
		if len(sc.Missed) > 0 {
			t.Errorf("class %s: expected detectors stayed silent: %v (digests %v)",
				sc.Class, sc.Missed, sc.Digests)
		}
	}
	if detectedClasses < 3 {
		t.Errorf("only %d fault classes detected by at least one checker, want >= 3", detectedClasses)
	}

	// Spot-check the fault injectors actually injected.
	for class, key := range map[faults.Class]string{
		faults.Drop:           "drops",
		faults.Corrupt:        "corrupted",
		faults.Duplicate:      "duplicated",
		faults.Reorder:        "reordered",
		faults.Flap:           "flap_drops",
		faults.Misroute:       "misroutes",
		faults.TeleRewrite:    "tele_rewrites",
		faults.Crash:          "crash_drops",
		faults.StaleTable:     "stale_cleared_entries",
		faults.PartialInstall: "withheld_pairs",
		faults.DelayedInstall: "delayed_pairs",
	} {
		sc, ok := byClass[string(class)]
		if !ok {
			t.Errorf("class %s missing from matrix", class)
			continue
		}
		if sc.Injected[key] == 0 {
			t.Errorf("class %s injected no %s events: %v", class, key, sc.Injected)
		}
	}
	// The crash restart must have wiped every deployed checker on the
	// victim switch.
	if got := byClass[string(faults.Crash)].Injected["wiped_attachments"]; got == 0 {
		t.Errorf("crash scenario wiped no attachments")
	}
	// Fault scenarios drop traffic; the baseline must deliver at least
	// as much as any faulted run.
	for _, sc := range m.Scenarios {
		if sc.Delivered > m.Baseline.Delivered+uint64(m.Packets)/10 {
			t.Errorf("class %s delivered %d, implausibly above baseline %d",
				sc.Class, sc.Delivered, m.Baseline.Delivered)
		}
	}
}
