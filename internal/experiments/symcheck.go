package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/checkers"
	"repro/internal/difftest"
	"repro/internal/symexec"
	"repro/internal/trafficgen"
)

// SymcheckConfig drives the symbolic backend-equivalence run: explore
// each corpus checker's modeled trace space symbolically, then replay
// every explored path and frontier witness through every backend
// (reference interpreter, map pipeline, bytecode VM, and the VM with the
// whole corpus linked into one bytecode.Set, the program the engine
// runs), checking the concrete outcome byte-for-byte against the
// symbolic prediction.
type SymcheckConfig struct {
	// FrontierDir, when set, writes the violation-frontier corpus as
	// one JSON seed file per checker.
	FrontierDir string
	// FuzzSeedDir, when set, writes one FuzzParse seed per checker:
	// the first frontier-violating packet rendered onto the wire.
	FuzzSeedDir string
}

// SymcheckCounterexample is a backend divergence found by replay.
type SymcheckCounterexample struct {
	Detail    string        `json:"detail"`
	Trace     symexec.Trace `json:"trace"`
	Minimized symexec.Trace `json:"minimized"`
}

// SymcheckRow is one checker's verdict.
type SymcheckRow struct {
	Checker       string `json:"checker"`
	Instances     int    `json:"instances"`
	Paths         int    `json:"paths"`
	FrontierPairs int    `json:"frontier_pairs"`
	Replayed      int    `json:"replayed"`
	// SetChecks counts the member outcomes the linked-set backend
	// reproduced: every replay runs all corpus checkers as one Set and
	// compares each member with its solo run.
	SetChecks    int `json:"set_checks"`
	FlipsSolved  int `json:"flips_solved"`
	FlipsUnsat   int `json:"flips_unsat"`
	FlipsUnknown int `json:"flips_unknown"`
	// Complete: the bounded space was fully explored (no solver
	// give-ups, no path caps).
	Complete bool `json:"complete"`
	// Equivalent: no backend disagreed with another on any replay.
	Equivalent bool `json:"equivalent"`
	// ModelFaithful: the symbolic prediction (verdict, report args,
	// final blob) matched the backends on every replay.
	ModelFaithful bool     `json:"model_faithful"`
	Notes         []string `json:"notes,omitempty"`

	Counterexample *SymcheckCounterexample `json:"counterexample,omitempty"`
}

// Passed is the per-checker acceptance bar: equivalence proven over a
// completely explored space, with a non-empty violation frontier.
func (r SymcheckRow) Passed() bool {
	return r.Equivalent && r.ModelFaithful && r.Complete && r.FrontierPairs > 0
}

// SymcheckResult is the full run.
type SymcheckResult struct {
	Rows   []SymcheckRow `json:"rows"`
	Passed bool          `json:"passed"`
}

// RunSymcheck explores and replays every corpus checker, within
// symexec's default exploration bounds.
func RunSymcheck(cfg SymcheckConfig) (SymcheckResult, error) {
	corpus, err := difftest.CompileCorpusSet()
	if err != nil {
		return SymcheckResult{}, err
	}
	res := SymcheckResult{Passed: true}
	for member, p := range checkers.All {
		row, frontier, err := symcheckOne(member, corpus)
		if err != nil {
			return SymcheckResult{}, fmt.Errorf("symcheck %s: %w", p.Key, err)
		}
		if cfg.FrontierDir != "" && len(frontier) > 0 {
			if err := difftest.WriteFrontierFile(cfg.FrontierDir, difftest.FrontierFile{Checker: p.Key, Pairs: frontier}); err != nil {
				return SymcheckResult{}, fmt.Errorf("symcheck %s: write frontier: %w", p.Key, err)
			}
		}
		if cfg.FuzzSeedDir != "" && len(frontier) > 0 {
			if err := writeFuzzSeed(cfg.FuzzSeedDir, p.Key, frontier[0].Violate); err != nil {
				return SymcheckResult{}, fmt.Errorf("symcheck %s: write fuzz seed: %w", p.Key, err)
			}
		}
		res.Rows = append(res.Rows, row)
		if !row.Passed() {
			res.Passed = false
		}
	}
	return res, nil
}

// symcheckOne explores corpus checker member and replays its paths
// and frontier.
func symcheckOne(member int, corpus []*difftest.Compiled) (SymcheckRow, []symexec.FrontierPair, error) {
	key := checkers.All[member].Key
	ex, err := symexec.ForChecker(key, symexec.Config{})
	if err != nil {
		return SymcheckRow{}, nil, err
	}
	sym, err := ex.Explore()
	if err != nil {
		return SymcheckRow{}, nil, err
	}
	// One replay runs this checker on all four backends and, beside it in
	// one Set, every other corpus checker on the same headers.
	replay := func(tr symexec.Trace) (difftest.Outcome, error) {
		s, err := difftest.NewCorpusSetRunner(corpus, nil)
		if err != nil {
			return difftest.Outcome{}, err
		}
		outs, err := s.RunTrace(corpus[member].ByPath(difftest.HopSpecs(tr)))
		if err != nil {
			return difftest.Outcome{}, err
		}
		return outs[member], nil
	}

	row := SymcheckRow{
		Checker:       key,
		Instances:     sym.Instances,
		Paths:         len(sym.Paths),
		FrontierPairs: len(sym.Frontier),
		FlipsSolved:   sym.FlipsSolved,
		FlipsUnsat:    sym.FlipsUnsat,
		FlipsUnknown:  sym.FlipsUnknown,
		Complete:      sym.Complete,
		Equivalent:    true,
		ModelFaithful: true,
		Notes:         sym.Notes,
	}
	note := func(format string, args ...any) {
		if len(row.Notes) < 8 {
			row.Notes = append(row.Notes, fmt.Sprintf(format, args...))
		}
	}
	diverged := func(tr symexec.Trace, err error) {
		row.Equivalent = false
		min := symexec.Minimize(tr, func(t symexec.Trace) bool {
			_, e := replay(t)
			var d *difftest.Divergence
			return errors.As(e, &d)
		})
		row.Counterexample = &SymcheckCounterexample{Detail: err.Error(), Trace: tr, Minimized: min}
	}

	for _, p := range sym.Paths {
		if row.Counterexample != nil {
			break
		}
		out, err := replay(p.Trace)
		var d *difftest.Divergence
		if errors.As(err, &d) {
			diverged(p.Trace, err)
			break
		}
		if err != nil {
			return SymcheckRow{}, nil, err
		}
		row.Replayed++
		row.SetChecks += len(corpus)
		if out.Reject != p.Verdict.Reject || len(out.Reports) != p.Verdict.Reports {
			row.ModelFaithful = false
			note("prediction mismatch on %v: predicted %+v, backends reject=%v reports=%d",
				p.Trace.Hops, p.Verdict, out.Reject, len(out.Reports))
			continue
		}
		for i := range out.Reports {
			if len(p.Reports) <= i || !slices.Equal(out.Reports[i], p.Reports[i]) {
				row.ModelFaithful = false
				note("report args mismatch on %v", p.Trace.Hops)
				break
			}
		}
		if !bytes.Equal(out.FinalBlob, p.FinalBlob) {
			row.ModelFaithful = false
			note("final blob mismatch on %v: predicted %x, backends %x", p.Trace.Hops, p.FinalBlob, out.FinalBlob)
		}
	}

	for _, fp := range sym.Frontier {
		if row.Counterexample != nil {
			break
		}
		for _, side := range []struct {
			tr   symexec.Trace
			want symexec.Verdict
		}{{fp.Conform, fp.ConformVerdict}, {fp.Violate, fp.ViolateVerdict}} {
			out, err := replay(side.tr)
			var d *difftest.Divergence
			if errors.As(err, &d) {
				diverged(side.tr, err)
				break
			}
			if err != nil {
				return SymcheckRow{}, nil, err
			}
			row.Replayed++
			row.SetChecks += len(corpus)
			if out.Reject != side.want.Reject || len(out.Reports) != side.want.Reports {
				row.ModelFaithful = false
				note("frontier verdict mismatch on %q", fp.Cond)
			}
		}
	}
	return row, sym.Frontier, nil
}

// writeFuzzSeed renders the first hop of a frontier-violating trace
// onto the wire and writes it as a Go fuzz corpus seed for FuzzParse.
func writeFuzzSeed(dir, key string, tr symexec.Trace) error {
	ex, err := symexec.ForChecker(key, symexec.Config{})
	if err != nil {
		return err
	}
	paths := map[string]string{}
	for _, h := range ex.Headers() {
		paths[h.Name] = h.Path
	}
	hop := tr.Hops[0]
	ah := trafficgen.AdversarialHop{Headers: map[string]uint64{}, PktLen: hop.PktLen}
	for name, v := range hop.Headers {
		ah.Headers[paths[name]] = v
	}
	wire := trafficgen.AdversarialPacket(ah).Decode().Serialize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(wire))
	return os.WriteFile(filepath.Join(dir, "frontier_"+key), []byte(content), 0o644)
}

// FormatSymcheck renders the run as the E13 table.
func FormatSymcheck(r SymcheckResult) string {
	var b strings.Builder
	b.WriteString("E13 symcheck: symbolic backend equivalence over the modeled space\n")
	b.WriteString("checker              inst  paths  frontier  flips(sat/unsat/unk)  replayed  set-checks  status\n")
	for _, row := range r.Rows {
		status := "PROVEN"
		switch {
		case !row.Equivalent:
			status = "DIVERGED"
		case !row.ModelFaithful:
			status = "MODEL-DRIFT"
		case !row.Complete:
			status = "INCOMPLETE"
		case row.FrontierPairs == 0:
			status = "NO-FRONTIER"
		}
		fmt.Fprintf(&b, "%-20s %4d  %5d  %8d  %9s  %8d  %10d  %s\n",
			row.Checker, row.Instances, row.Paths, row.FrontierPairs,
			fmt.Sprintf("%d/%d/%d", row.FlipsSolved, row.FlipsUnsat, row.FlipsUnknown),
			row.Replayed, row.SetChecks, status)
		if row.Counterexample != nil {
			fmt.Fprintf(&b, "  counterexample: %s\n  minimized: %+v\n",
				row.Counterexample.Detail, row.Counterexample.Minimized.Hops)
		}
		for _, n := range row.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
	}
	if r.Passed {
		b.WriteString("all checkers: interpreter = map pipeline = bytecode VM = member of the linked corpus set over the modeled space\n")
	} else {
		b.WriteString("FAILED: see rows above\n")
	}
	return b.String()
}
