// Package symexec is a concolic executor over the pipeline IR: it runs
// a compiled checker concretely while shadowing every PHV field with a
// symbolic bit-vector term over the trace's header variables, recording
// the path conditions taken at branches, table lookups, and
// runtime-indexed register/array accesses. A generational search
// (execute, negate one recorded condition, solve, re-execute) enumerates
// the reachable path space of a bounded trace model; every explored path
// carries a concrete witness trace that is directly replayable through
// internal/difftest against all three backends. The verdict-flipping
// pairs along the way form the checker's violation frontier.
//
// The solver is an in-repo bounded search over candidate values mined
// from the path conditions' constants — no external SMT dependency.
package symexec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pipeline"
)

type termKind uint8

const (
	tConst termKind = iota
	tVar
	tCast
	tUn
	tBin
	tMux
)

// Term is a symbolic bit-vector expression over trace variables. Term
// evaluation mirrors pipeline expression semantics exactly — evaluating
// a term under an assignment yields the same Value the corresponding
// Expr tree yields on the concrete PHV (pinned by TestTermMirrorsExpr
// and re-checked at every op during concolic execution).
type Term struct {
	kind termKind

	val pipeline.Value // tConst

	varID   int    // tVar
	varName string // tVar
	varW    int    // tVar

	castW int // tCast: truncate x to castW bits

	op      pipeline.OpCode // tUn, tBin
	x, y, z *Term           // operands; tMux uses x=cond, y=then, z=else
}

func constTerm(v pipeline.Value) *Term { return &Term{kind: tConst, val: v} }

func varTerm(id int, name string, w int) *Term {
	return &Term{kind: tVar, varID: id, varName: name, varW: w}
}

// castTerm truncates x to w bits, mirroring the masking a field write
// (AssignOp dst width, telemetry wire roundtrip) applies.
func castTerm(w int, x *Term) *Term {
	if x.kind == tConst {
		return constTerm(pipeline.B(w, x.val.V))
	}
	return &Term{kind: tCast, castW: w, x: x}
}

func unTerm(op pipeline.OpCode, x *Term) *Term {
	t := &Term{kind: tUn, op: op, x: x}
	if x.kind == tConst {
		return constTerm(t.Eval(nil))
	}
	return t
}

func binTerm(op pipeline.OpCode, x, y *Term) *Term {
	t := &Term{kind: tBin, op: op, x: x, y: y}
	if x.kind == tConst && y.kind == tConst {
		return constTerm(t.Eval(nil))
	}
	return t
}

// muxTerm folds a constant condition to the taken side, which is exact:
// Mux.Eval evaluates only that side.
func muxTerm(cond, x, y *Term) *Term {
	if cond.kind == tConst {
		if cond.val.Bool() {
			return x
		}
		return y
	}
	return &Term{kind: tMux, x: cond, y: x, z: y}
}

func (t *Term) isConst() bool { return t.kind == tConst }

// Eval computes the term under the assignment, mirroring
// pipeline.Expr.Eval semantics operator for operator.
func (t *Term) Eval(asn []uint64) pipeline.Value {
	switch t.kind {
	case tConst:
		return t.val
	case tVar:
		return pipeline.B(t.varW, asn[t.varID])
	case tCast:
		return pipeline.B(t.castW, t.x.Eval(asn).V)
	case tUn:
		x := t.x.Eval(asn)
		switch t.op {
		case pipeline.OpNot:
			return pipeline.BoolV(!x.Bool())
		case pipeline.OpBNot:
			return pipeline.B(x.W, ^x.V)
		case pipeline.OpNeg:
			return pipeline.B(x.W, -x.V)
		case pipeline.OpAbs:
			s := x.Signed()
			if s < 0 {
				s = -s
			}
			return pipeline.B(x.W, uint64(s))
		}
		panic("symexec: bad unary opcode " + t.op.String())
	case tBin:
		// The short-circuit logical operators are pure, so evaluating
		// both sides eagerly matches Bin.Eval.
		switch t.op {
		case pipeline.OpLAnd:
			return pipeline.BoolV(t.x.Eval(asn).Bool() && t.y.Eval(asn).Bool())
		case pipeline.OpLOr:
			return pipeline.BoolV(t.x.Eval(asn).Bool() || t.y.Eval(asn).Bool())
		}
		x, y := t.x.Eval(asn), t.y.Eval(asn)
		w := x.W
		switch t.op {
		case pipeline.OpAdd:
			return pipeline.B(w, x.V+y.V)
		case pipeline.OpSub:
			return pipeline.B(w, x.V-y.V)
		case pipeline.OpMul:
			return pipeline.B(w, x.V*y.V)
		case pipeline.OpDiv:
			if y.V == 0 {
				return pipeline.B(w, 0)
			}
			return pipeline.B(w, x.V/y.V)
		case pipeline.OpMod:
			if y.V == 0 {
				return pipeline.B(w, 0)
			}
			return pipeline.B(w, x.V%y.V)
		case pipeline.OpBAnd:
			return pipeline.B(w, x.V&y.V)
		case pipeline.OpBOr:
			return pipeline.B(w, x.V|y.V)
		case pipeline.OpBXor:
			return pipeline.B(w, x.V^y.V)
		case pipeline.OpShl:
			if y.V >= 64 {
				return pipeline.B(w, 0)
			}
			return pipeline.B(w, x.V<<y.V)
		case pipeline.OpShr:
			if y.V >= 64 {
				return pipeline.B(w, 0)
			}
			return pipeline.B(w, x.V>>y.V)
		case pipeline.OpEq:
			return pipeline.BoolV(x.V == y.V)
		case pipeline.OpNe:
			return pipeline.BoolV(x.V != y.V)
		case pipeline.OpLt:
			return pipeline.BoolV(x.V < y.V)
		case pipeline.OpLe:
			return pipeline.BoolV(x.V <= y.V)
		case pipeline.OpGt:
			return pipeline.BoolV(x.V > y.V)
		case pipeline.OpGe:
			return pipeline.BoolV(x.V >= y.V)
		case pipeline.OpMax:
			if x.V >= y.V {
				return pipeline.B(w, x.V)
			}
			return pipeline.B(w, y.V)
		case pipeline.OpMin:
			if x.V <= y.V {
				return pipeline.B(w, x.V)
			}
			return pipeline.B(w, y.V)
		}
		panic("symexec: bad binary opcode " + t.op.String())
	case tMux:
		if t.x.Eval(asn).Bool() {
			return t.y.Eval(asn)
		}
		return t.z.Eval(asn)
	}
	panic("symexec: bad term kind")
}

// String renders the term; path signatures and frontier condition
// labels are built from it, so it must be deterministic.
func (t *Term) String() string {
	var b strings.Builder
	t.writeString(&b)
	return b.String()
}

func (t *Term) writeString(b *strings.Builder) {
	switch t.kind {
	case tConst:
		b.WriteString(strconv.FormatUint(t.val.V, 10))
	case tVar:
		b.WriteString(t.varName)
	case tCast:
		fmt.Fprintf(b, "trunc%d(", t.castW)
		t.x.writeString(b)
		b.WriteByte(')')
	case tUn:
		b.WriteString(t.op.String())
		b.WriteByte('(')
		t.x.writeString(b)
		b.WriteByte(')')
	case tBin:
		b.WriteByte('(')
		t.x.writeString(b)
		b.WriteByte(' ')
		b.WriteString(t.op.String())
		b.WriteByte(' ')
		t.y.writeString(b)
		b.WriteByte(')')
	case tMux:
		b.WriteByte('(')
		t.x.writeString(b)
		b.WriteString(" ? ")
		t.y.writeString(b)
		b.WriteString(" : ")
		t.z.writeString(b)
		b.WriteByte(')')
	}
}

// collectVars adds the IDs of all variables the term mentions.
func (t *Term) collectVars(set map[int]bool) {
	switch t.kind {
	case tVar:
		set[t.varID] = true
	case tCast, tUn:
		t.x.collectVars(set)
	case tBin:
		t.x.collectVars(set)
		t.y.collectVars(set)
	case tMux:
		t.x.collectVars(set)
		t.y.collectVars(set)
		t.z.collectVars(set)
	}
}

// collectConsts adds every literal the term mentions to the pool; the
// solver mines its candidate values from this.
func (t *Term) collectConsts(pool map[uint64]bool) {
	switch t.kind {
	case tConst:
		pool[t.val.V] = true
	case tCast, tUn:
		t.x.collectConsts(pool)
	case tBin:
		t.x.collectConsts(pool)
		t.y.collectConsts(pool)
	case tMux:
		t.x.collectConsts(pool)
		t.y.collectConsts(pool)
		t.z.collectConsts(pool)
	}
}
