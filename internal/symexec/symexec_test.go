package symexec

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/checkers"
	"repro/internal/pipeline"
)

// exprGen builds a random Expr tree and its mirroring Term at once, so
// the test can check Term evaluation against the pipeline's own
// semantics on arbitrary trees.
type exprGen struct {
	rng  *rand.Rand
	vars []varInfo
	refs []pipeline.FieldRef
}

func (g *exprGen) gen(depth int) (pipeline.Expr, *Term) {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		if g.rng.Intn(2) == 0 {
			i := g.rng.Intn(len(g.vars))
			return pipeline.Field{Ref: g.refs[i], Width: g.vars[i].width},
				varTerm(i, g.vars[i].name, g.vars[i].width)
		}
		ws := []int{1, 8, 16, 32, 64}
		w := ws[g.rng.Intn(len(ws))]
		v := g.rng.Uint64()
		return pipeline.C(w, v), constTerm(pipeline.B(w, v))
	}
	switch g.rng.Intn(6) {
	case 0:
		ops := []pipeline.OpCode{pipeline.OpNot, pipeline.OpBNot, pipeline.OpNeg, pipeline.OpAbs}
		op := ops[g.rng.Intn(len(ops))]
		xe, xt := g.gen(depth - 1)
		return pipeline.Unary{Op: op, X: xe}, unTerm(op, xt)
	case 1:
		ce, ct := g.gen(depth - 1)
		xe, xt := g.gen(depth - 1)
		ye, yt := g.gen(depth - 1)
		return pipeline.Mux{Cond: ce, X: xe, Y: ye}, muxTerm(ct, xt, yt)
	default:
		ops := []pipeline.OpCode{
			pipeline.OpAdd, pipeline.OpSub, pipeline.OpMul, pipeline.OpDiv, pipeline.OpMod,
			pipeline.OpBAnd, pipeline.OpBOr, pipeline.OpBXor, pipeline.OpShl, pipeline.OpShr,
			pipeline.OpEq, pipeline.OpNe, pipeline.OpLt, pipeline.OpLe, pipeline.OpGt,
			pipeline.OpGe, pipeline.OpLAnd, pipeline.OpLOr, pipeline.OpMax, pipeline.OpMin,
		}
		op := ops[g.rng.Intn(len(ops))]
		xe, xt := g.gen(depth - 1)
		ye, yt := g.gen(depth - 1)
		return pipeline.Bin{Op: op, X: xe, Y: ye}, binTerm(op, xt, yt)
	}
}

// TestTermMirrorsExpr pins the core soundness property: a term
// evaluates to exactly the Value its expression evaluates to, for
// random trees over random assignments.
func TestTermMirrorsExpr(t *testing.T) {
	g := &exprGen{
		rng: rand.New(rand.NewSource(1)),
		vars: []varInfo{
			{name: "a", width: 8},
			{name: "b", width: 16},
			{name: "c", width: 32},
			{name: "d", width: 1},
		},
		refs: []pipeline.FieldRef{"h.a", "h.b", "h.c", "h.d"},
	}
	for trial := 0; trial < 2000; trial++ {
		e, term := g.gen(4)
		for round := 0; round < 4; round++ {
			asn := make([]uint64, len(g.vars))
			phv := make(pipeline.PHV)
			for i, v := range g.vars {
				asn[i] = pipeline.Mask(v.width, g.rng.Uint64())
				phv.Set(g.refs[i], pipeline.B(v.width, asn[i]))
			}
			want := e.Eval(phv)
			got := term.Eval(asn)
			if got != want {
				t.Fatalf("trial %d: %s\n term %s\n got %v want %v (asn %v)", trial, e, term, got, want, asn)
			}
		}
	}
}

func TestSolverBasics(t *testing.T) {
	vars := []varInfo{{name: "x", width: 8}, {name: "y", width: 8, def: 7}}
	defaults := []uint64{0, 7}
	x := varTerm(0, "x", 8)

	eq := func(t *Term, v uint64) constraint {
		return constraint{t: binTerm(pipeline.OpEq, t, constTerm(pipeline.B(8, v))), want: true}
	}
	asn, st := solve([]constraint{eq(x, 5)}, vars, defaults)
	if st != solveSat || asn[0] != 5 {
		t.Fatalf("x==5: status %v asn %v", st, asn)
	}
	if asn[1] != 7 {
		t.Fatalf("unconstrained var should keep default, got %d", asn[1])
	}
	_, st = solve([]constraint{eq(x, 5), eq(x, 6)}, vars, defaults)
	if st != solveUnsat {
		t.Fatalf("x==5&&x==6: want unsat, got %v", st)
	}
	// Inequality chains force neighbor mining: x > 200 && x < 202.
	gt := constraint{t: binTerm(pipeline.OpGt, x, constTerm(pipeline.B(8, 200))), want: true}
	lt := constraint{t: binTerm(pipeline.OpLt, x, constTerm(pipeline.B(8, 202))), want: true}
	asn, st = solve([]constraint{gt, lt}, vars, defaults)
	if st != solveSat || asn[0] != 201 {
		t.Fatalf("200<x<202: status %v asn %v", st, asn)
	}
}

// TestExploreCorpus sweeps every corpus checker: exploration must
// terminate, cover the modeled space completely, and find a non-empty
// violation frontier (both verdicts reachable).
func TestExploreCorpus(t *testing.T) {
	for _, p := range checkers.All {
		p := p
		t.Run(p.Key, func(t *testing.T) {
			ex, err := ForChecker(p.Key)
			if err != nil {
				t.Fatalf("ForChecker: %v", err)
			}
			res, err := ex.Explore()
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if !res.Complete {
				t.Errorf("exploration incomplete: %v", res.Notes)
			}
			if len(res.Frontier) == 0 {
				t.Fatalf("no frontier pairs (paths %d, flips sat/unsat/unknown %d/%d/%d)",
					len(res.Paths), res.FlipsSolved, res.FlipsUnsat, res.FlipsUnknown)
			}
			// A property is violated on an explicit reject or any report.
			violation := func(v Verdict) bool { return v.Reject || v.Reports > 0 }
			var conform, violate bool
			for _, pp := range res.Paths {
				if violation(pp.Verdict) {
					violate = true
				} else {
					conform = true
				}
			}
			for _, fp := range res.Frontier {
				if violation(fp.ConformVerdict) || !violation(fp.ViolateVerdict) {
					t.Errorf("frontier pair %q has wrong orientation", fp.Cond)
				}
				if len(fp.Violate.Hops) == 0 || len(fp.Conform.Hops) == 0 {
					t.Errorf("frontier pair %q has empty trace", fp.Cond)
				}
				violate = true
				conform = true
			}
			if !conform || !violate {
				t.Errorf("modeled space misses a verdict: conform=%v violate=%v", conform, violate)
			}
			t.Logf("instances %d, paths %d, frontier %d, flips sat/unsat/unknown %d/%d/%d",
				res.Instances, len(res.Paths), len(res.Frontier),
				res.FlipsSolved, res.FlipsUnsat, res.FlipsUnknown)
		})
	}
}

// TestExploreDeterministic pins reproducibility: two explorations of
// the same checker must produce identical results, since the frontier
// corpus and fuzz seeds are committed artifacts.
func TestExploreDeterministic(t *testing.T) {
	run := func() *Result {
		ex, err := ForChecker("multi-tenancy")
		if err != nil {
			t.Fatalf("ForChecker: %v", err)
		}
		res, err := ex.Explore()
		if err != nil {
			t.Fatalf("Explore: %v", err)
		}
		return res
	}
	a, _ := json.Marshal(run())
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatalf("exploration is not deterministic")
	}
}
