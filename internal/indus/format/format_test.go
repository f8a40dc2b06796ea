package format

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/ltlf"
)

// roundTrip asserts that formatting is parse-stable: the formatted
// output parses, type-checks, and re-formats to the same text.
func roundTrip(t *testing.T, label, src string) {
	t.Helper()
	prog1, err := parser.Parse(label, src)
	if err != nil {
		t.Fatalf("%s: original does not parse: %v", label, err)
	}
	out1 := Program(prog1)

	prog2, err := parser.Parse(label+".fmt", out1)
	if err != nil {
		t.Fatalf("%s: formatted output does not parse: %v\n%s", label, err, out1)
	}
	if _, err := types.Check(prog2); err != nil {
		t.Fatalf("%s: formatted output does not type-check: %v\n%s", label, err, out1)
	}
	out2 := Program(prog2)
	if out1 != out2 {
		t.Fatalf("%s: formatting is not idempotent:\n--- first ---\n%s\n--- second ---\n%s", label, out1, out2)
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	for _, p := range checkers.All {
		roundTrip(t, p.Key, p.Source)
	}
	roundTrip(t, "fig2", checkers.LoadBalanceFig2Src)
}

// generatedLTLf is 20 Indus programs translated from random LTLf
// formulas over two atoms.
func generatedLTLf() []string {
	rng := rand.New(rand.NewSource(99))
	srcs := make([]string, 20)
	for i := range srcs {
		srcs[i] = ltlf.ToIndus(ltlf.Random(rng, []string{"p", "q"}, 3), 6)
	}
	return srcs
}

func TestGeneratedLTLfRoundTrip(t *testing.T) {
	for _, src := range generatedLTLf() {
		roundTrip(t, "ltlf", src)
	}
}

// FuzzIndus drives the front end on arbitrary source: lexing, parsing,
// type checking and compiling never panic, and whatever parses formats
// to a fixed point — the formatted text parses and formats to itself.
// Seeds are the corpus checkers and the generated LTLf programs.
func FuzzIndus(f *testing.F) {
	for _, p := range checkers.All {
		f.Add(p.Source)
	}
	for _, src := range generatedLTLf() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse("fuzz.indus", src)
		if err != nil {
			return
		}
		out1 := Program(prog)
		prog2, err := parser.Parse("fuzz.fmt", out1)
		if err != nil {
			t.Fatalf("formatted output does not parse: %v\n%s", err, out1)
		}
		if out2 := Program(prog2); out2 != out1 {
			t.Fatalf("formatting is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
		}
		info, err := types.Check(prog)
		if err != nil {
			return
		}
		_, _ = compiler.Compile(info, compiler.Options{Name: "fuzz"})
	})
}

func TestSurfaceSyntax(t *testing.T) {
	src := `
tele bit<8> x;
header bit<8> p @ "hdr.p";
{ x = p; }
{
  if (x == 1) { x = 2; } elsif (x == 2) { x = 3; } else { pass; }
}
{ if (x != 0) { reject; } }
`
	prog, err := parser.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	out := Program(prog)
	for _, want := range []string{
		`header bit<8> p @ "hdr.p";`,
		"} elsif ((x == 2)) {",
		"} else {",
		"reject;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyBlocks(t *testing.T) {
	prog, err := parser.Parse("t", "{ }{ }{ }")
	if err != nil {
		t.Fatal(err)
	}
	if got := Program(prog); got != "{ }\n{ }\n{ }\n" {
		t.Fatalf("empty program formats as %q", got)
	}
}
