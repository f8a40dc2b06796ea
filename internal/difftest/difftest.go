// Package difftest is the reusable differential-testing harness: it
// runs an Indus program on every backend — the reference interpreter
// (internal/indus/eval), the map-based pipeline interpreter (Reference,
// which lives here), and the bytecode VM (internal/bytecode) as the one
// thing the packet paths run, a linked Set on a resident context
// (Linked), resident across the trace and pass by pass through the wire
// codec — with identical switch state, and fails the test on any
// divergence in verdicts, report payloads, or (between the pipeline
// executors) the byte-exact telemetry blob. The conformance suite in
// this package sweeps the whole checker corpus through randomized
// traces; the symbolic suite (internal/symexec) replays its witnesses
// and frontier corpus through the same Runner core; other packages'
// tests import Reference and Linked for their own oracles. The package
// imports none of engine, netsim, ltlf and fleet, so all of them can;
// nothing on a packet path may import it.
package difftest

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/indus/types"
)

// Harness wraps a Runner with testing.TB failure plumbing: any backend
// divergence or install error fails the test immediately.
type Harness struct {
	tb testing.TB
	r  *Runner
}

// NewHarness parses, checks and compiles src for every backend.
func NewHarness(tb testing.TB, src string) *Harness {
	tb.Helper()
	c, err := CompileSource(src)
	if err != nil {
		tb.Fatalf("%v", err)
	}
	return &Harness{tb: tb, r: c.NewRunner()}
}

// CorpusHarness builds a harness for a checker from the corpus.
func CorpusHarness(tb testing.TB, key string) *Harness {
	tb.Helper()
	p, ok := checkers.ByKey(key)
	if !ok {
		tb.Fatalf("unknown corpus key %s", key)
	}
	return NewHarness(tb, p.Source)
}

// Info exposes the type-checked program (decl table etc.).
func (h *Harness) Info() *types.Info { return h.r.c.Info }

// InstallDict installs key->val into dict `name` on switch id, on all
// backends.
func (h *Harness) InstallDict(id uint32, name string, key []uint64, val uint64) {
	h.tb.Helper()
	if err := h.r.InstallDict(id, name, key, val); err != nil {
		h.tb.Fatalf("%v", err)
	}
}

// InstallScalar sets scalar control `name` on switch id on all backends.
func (h *Harness) InstallScalar(id uint32, name string, val uint64) {
	h.tb.Helper()
	if err := h.r.InstallScalar(id, name, val); err != nil {
		h.tb.Fatalf("%v", err)
	}
}

// InstallSet adds a member to control set `name` on switch id.
func (h *Harness) InstallSet(id uint32, name string, key ...uint64) {
	h.tb.Helper()
	if err := h.r.InstallSet(id, name, key...); err != nil {
		h.tb.Fatalf("%v", err)
	}
}

// RunBoth executes the trace on every backend and compares verdicts,
// report payloads, and (between the pipeline executors) the final
// telemetry blob; it returns (rejected, reports).
func (h *Harness) RunBoth(trace []HopSpec) (bool, [][]uint64) {
	h.tb.Helper()
	out, err := h.r.RunTrace(trace)
	if err != nil {
		h.tb.Fatalf("%v", err)
	}
	return out.Reject, out.Reports
}
