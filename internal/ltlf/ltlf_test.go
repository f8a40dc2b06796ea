package ltlf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/indus/eval"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

func a(name string) Formula { return Atom{Name: name} }

func TestSemanticsBasics(t *testing.T) {
	tr := Trace{
		{"p": true, "q": false},
		{"p": true, "q": false},
		{"p": false, "q": true},
	}
	cases := []struct {
		f    Formula
		at   int
		want bool
	}{
		{a("p"), 0, true},
		{a("q"), 0, false},
		{Not{a("q")}, 0, true},
		{And{a("p"), a("q")}, 0, false},
		{Or{a("p"), a("q")}, 0, true},
		{Next{a("p")}, 0, true},
		{Next{a("q")}, 1, true},
		{Next{a("p")}, 2, false}, // strong next: no successor
		{Until{a("p"), a("q")}, 0, true},
		{Until{a("q"), a("p")}, 0, true}, // ψ holds immediately
		{Until{a("p"), Atom{"r"}}, 0, false},
		{Eventually{a("q")}, 0, true},
		{Eventually{a("q")}, 2, true},
		{Globally{a("p")}, 0, false},
		{Globally{a("p")}, 3, true}, // vacuous beyond the trace
		{Globally{Or{a("p"), a("q")}}, 0, true},
	}
	for _, c := range cases {
		if got := Holds(c.f, tr, c.at); got != c.want {
			t.Errorf("%s at %d = %v, want %v", c.f, c.at, got, c.want)
		}
	}
}

// TestNoLoopFormula encodes the paper's §3.1 example — □¬(A ∧ O◇A), "the
// packet must not visit switch A twice" — and checks it against traces.
func TestNoLoopFormula(t *testing.T) {
	noRevisit := Globally{Not{And{a("A"), Next{Eventually{a("A")}}}}}
	visit := func(flags ...bool) Trace {
		tr := make(Trace, len(flags))
		for i, f := range flags {
			tr[i] = Event{"A": f}
		}
		return tr
	}
	if !Holds(noRevisit, visit(true, false, false), 0) {
		t.Error("single visit must satisfy")
	}
	if !Holds(noRevisit, visit(false, false), 0) {
		t.Error("no visit must satisfy")
	}
	if Holds(noRevisit, visit(true, false, true), 0) {
		t.Error("revisit must violate")
	}
}

func TestAtoms(t *testing.T) {
	f := And{Until{a("p"), a("q")}, Next{a("p")}}
	got := Atoms(f)
	if len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Fatalf("Atoms = %v", got)
	}
}

// translateAndRun evaluates the translated Indus program over the trace
// on both the interpreter and the compiled pipeline, returning the two
// verdicts (true = formula holds, i.e. the packet is forwarded).
func translateAndRun(t *testing.T, f Formula, tr Trace) (bool, bool) {
	t.Helper()
	src := ToIndus(f, 8)
	prog, err := parser.Parse("ltlf.indus", src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("generated program does not type-check: %v\n%s", err, src)
	}

	// Interpreter run.
	m := eval.New(info)
	hops := make([]eval.Hop, len(tr))
	for i, ev := range tr {
		headers := map[string]eval.Value{}
		for _, atom := range Atoms(f) {
			headers[atom] = eval.Bool(ev[atom])
		}
		hops[i] = eval.Hop{Switch: eval.NewSwitchState(uint32(i + 1)), Headers: headers, PacketLen: 100}
	}
	out, err := m.RunTrace(hops)
	if err != nil {
		t.Fatalf("interpreter: %v\n%s", err, src)
	}

	// Compiled pipeline run.
	compiled, err := compiler.Compile(info, compiler.Options{Name: "ltlf"})
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	vm, err := difftest.Link(&compiler.Runtime{Prog: compiled})
	if err != nil {
		t.Fatalf("link: %v\n%s", err, src)
	}
	st := compiled.NewState()
	envs := make([]difftest.HopEnv, len(tr))
	for i, ev := range tr {
		headers := map[string]pipeline.Value{}
		for _, atom := range Atoms(f) {
			headers["hdr."+atom] = pipeline.BoolV(ev[atom])
		}
		envs[i] = difftest.HopEnv{State: st, SwitchID: uint32(i + 1), Headers: headers, PacketLen: 100}
	}
	res, err := vm.RunTrace([][]difftest.HopEnv{envs}, difftest.Wire)
	if err != nil {
		t.Fatalf("pipeline: %v\n%s", err, src)
	}
	return out.Verdict == eval.VerdictForward, !res[0].Reject
}

// TestTheorem31 is the expressiveness theorem as an executable property:
// for random LTLf formulas and random traces, the translated Indus
// checker forwards the packet iff the formula holds — on both the
// reference interpreter and the compiled pipeline.
func TestTheorem31(t *testing.T) {
	atoms := []string{"p", "q", "s"}
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := Random(rng, atoms, 3)
		tr := randomTrace(rng, atoms, 1+rng.Intn(6))
		want := Holds(f, tr, 0)
		gotInterp, gotPipe := translateAndRun(t, f, tr)
		if gotInterp != want || gotPipe != want {
			t.Logf("formula %s over %d-event trace: ltlf=%v interp=%v pipeline=%v",
				f, len(tr), want, gotInterp, gotPipe)
			return false
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem31Exhaustive checks every formula of a curated set against
// every boolean trace of length up to 4 over one atom.
func TestTheorem31Exhaustive(t *testing.T) {
	formulas := []Formula{
		a("p"),
		Not{a("p")},
		Next{a("p")},
		Next{Next{a("p")}},
		Eventually{a("p")},
		Globally{a("p")},
		Until{a("p"), Not{a("p")}},
		Globally{Not{And{a("p"), Next{Eventually{a("p")}}}}}, // no-revisit
	}
	for _, f := range formulas {
		for n := 1; n <= 4; n++ {
			for bits := 0; bits < 1<<n; bits++ {
				tr := make(Trace, n)
				for i := 0; i < n; i++ {
					tr[i] = Event{"p": bits>>i&1 == 1}
				}
				want := Holds(f, tr, 0)
				gotInterp, gotPipe := translateAndRun(t, f, tr)
				if gotInterp != want || gotPipe != want {
					t.Fatalf("%s over %v: ltlf=%v interp=%v pipe=%v", f, tr, want, gotInterp, gotPipe)
				}
			}
		}
	}
}

func TestGeneratedProgramShape(t *testing.T) {
	src := ToIndus(Until{a("p"), a("q")}, 8)
	prog, err := parser.Parse("gen.indus", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if _, err := types.Check(prog); err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if len(prog.Telemetry.Stmts) != 3 { // trace_idx push + two atom pushes
		t.Fatalf("telemetry stmts = %d\n%s", len(prog.Telemetry.Stmts), src)
	}
}

func TestParseFormula(t *testing.T) {
	cases := []struct{ src, want string }{
		{"p", "p"},
		{"!p", "!p"},
		{"p & q", "(p & q)"},
		{"p | q & s", "(p | (q & s))"},
		{"p U q", "(p U q)"},
		{"p U q U s", "(p U (q U s))"}, // right associative
		{"X p", "X(p)"},
		{"F p & q", "(F(p) & q)"}, // unary binds tighter
		{"G !(a & X F a)", "G(!(a & X(F(a))))"},
		{"(p | q) U s", "((p | q) U s)"},
	}
	for _, c := range cases {
		f, err := ParseFormula(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got := f.String(); got != c.want {
			t.Errorf("%q parsed as %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseFormulaErrors(t *testing.T) {
	for _, src := range []string{"", "p &", "(p", "p)", "& p", "p q", "p # q", "U p"} {
		if _, err := ParseFormula(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

// TestParsePrintRoundTrip: printing a random formula and re-parsing it
// yields the same structure (String() emits parseable syntax).
func TestParsePrintRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		f := Random(rng, []string{"p", "q", "s"}, 4)
		got, err := ParseFormula(f.String())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if got.String() != f.String() {
			t.Fatalf("round trip: %s != %s", got, f)
		}
	}
}

func TestParsedFormulaCompilesEndToEnd(t *testing.T) {
	// The §3.1 property, parsed from text, translated, compiled, and
	// evaluated over a revisiting trace.
	f, err := ParseFormula("G !(a & X F a)")
	if err != nil {
		t.Fatal(err)
	}
	tr := Trace{{"a": true}, {"a": false}, {"a": true}}
	if Holds(f, tr, 0) {
		t.Fatal("revisit should violate")
	}
	gotInterp, gotPipe := translateAndRun(t, f, tr)
	if gotInterp || gotPipe {
		t.Fatal("translated checker must reject the revisiting packet")
	}
}

// randomTrace generates a random trace of the given length.
func randomTrace(rng *rand.Rand, atoms []string, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		ev := Event{}
		for _, a := range atoms {
			ev[a] = rng.Intn(2) == 1
		}
		tr[i] = ev
	}
	return tr
}
