package checkers

import (
	"testing"

	"repro/internal/indus/ast"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
)

func TestCorpusParsesAndChecks(t *testing.T) {
	for _, p := range All {
		p := p
		t.Run(p.Key, func(t *testing.T) {
			info, err := p.Parse()
			if err != nil {
				t.Fatalf("%v", err)
			}
			if info.Prog.Init == nil || info.Prog.Telemetry == nil || info.Prog.Checker == nil {
				t.Fatal("program missing a block")
			}
		})
	}
}

func TestCorpusKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All {
		if seen[p.Key] {
			t.Errorf("duplicate key %q", p.Key)
		}
		seen[p.Key] = true
	}
	if len(All) != 12 {
		t.Errorf("corpus has %d entries, want 12 (11 Table 1 rows + valley-free)", len(All))
	}
}

func TestByKey(t *testing.T) {
	p, ok := ByKey("multi-tenancy")
	if !ok || p.Name != "Multi-Tenancy" {
		t.Fatalf("ByKey failed: %+v %v", p, ok)
	}
	if _, ok := ByKey("no-such"); ok {
		t.Fatal("ByKey should miss")
	}
}

func TestMustParsePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("no-such-property")
}

func TestCountLoC(t *testing.T) {
	tests := []struct {
		src  string
		want int
	}{
		{"", 0},
		{"a;\nb;\n", 2},
		{"// comment only\na;\n", 1},
		{"/* block */\na;\n", 1},
		{"a; /* trailing */\n", 1},
		{"/* multi\nline\ncomment */\na;\n", 1},
		{"a; // eol comment\n\n\nb;\n", 2},
		{"x /* inline */ = 1;\n", 1},
	}
	for _, tt := range tests {
		if got := CountLoC(tt.src); got != tt.want {
			t.Errorf("CountLoC(%q) = %d, want %d", tt.src, got, tt.want)
		}
	}
}

// TestIndusLoCNearPaper checks the conciseness claim of Table 1: our
// transcriptions should be within a factor of 2 of the paper's Indus
// line counts (exact counts differ with formatting and with the
// optimizations §6.1 mentions; the paper's point is the order of
// magnitude vs P4, which TestP4LoCNearPaper checks).
func TestIndusLoCNearPaper(t *testing.T) {
	for _, p := range All {
		if p.PaperIndusLoC == 0 {
			continue
		}
		got := p.IndusLoC()
		lo, hi := p.PaperIndusLoC/2, p.PaperIndusLoC*2
		if got < lo || got > hi {
			t.Errorf("%s: Indus LoC %d is far from paper's %d (allowed %d..%d)", p.Key, got, p.PaperIndusLoC, lo, hi)
		}
	}
}

func TestHeaderVars(t *testing.T) {
	info := MustParse("multi-tenancy")
	hs := info.Prog.DeclsOfKind(ast.KindHeader)
	if len(hs) != 2 || hs[0].Name != "in_port" || hs[1].Name != "eg_port" {
		t.Fatalf("header variables = %+v", hs)
	}
	for _, h := range hs {
		if h.Kind != ast.KindHeader {
			t.Errorf("%s is not a header decl", h.Name)
		}
	}
}

func TestCorpusReportArity(t *testing.T) {
	info := MustParse("app-filtering")
	if info.MaxReportArity != 5 {
		t.Fatalf("app-filtering report arity = %d, want 5", info.MaxReportArity)
	}
}

func TestFigure2VariantParses(t *testing.T) {
	// The pedagogical Figure 2 program (telemetry arrays + lockstep for
	// loop) must remain a valid Indus program even though Table 1
	// measures the optimized variant.
	prog, err := parser.Parse("fig2.indus", LoadBalanceFig2Src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := types.Check(prog); err != nil {
		t.Fatalf("types: %v", err)
	}
}
