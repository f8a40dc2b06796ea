package pipeline

import "fmt"

// OpCode enumerates the expression operators of the pipeline IR.
type OpCode int

// Expression opcodes. Arithmetic wraps at the result width; division and
// modulo by zero yield zero (the pipeline has no traps); comparisons are
// unsigned; Abs interprets its operand as two's complement.
const (
	OpAdd OpCode = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpBAnd
	OpBOr
	OpBXor
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLAnd
	OpLOr
	OpNot  // logical not (unary)
	OpBNot // bitwise complement (unary)
	OpNeg  // two's-complement negation (unary)
	OpAbs  // |x| under two's complement (unary)
	OpMax
	OpMin

	// opCodeCount must stay last: it ties the opNames table to the
	// opcode list at compile time.
	opCodeCount
)

// opNames is indexed by OpCode — an array lookup, not a map hash, since
// OpCode.String sits on interpreter error paths and debug output. The
// sparse-literal form keeps each name next to its opcode.
var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpBAnd: "&", OpBOr: "|", OpBXor: "^", OpShl: "<<", OpShr: ">>",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpLAnd: "&&", OpLOr: "||", OpNot: "!", OpBNot: "~", OpNeg: "-",
	OpAbs: "abs", OpMax: "max", OpMin: "min",
}

// Compile-time exhaustiveness check: adding an opcode without naming it
// (or naming one past the end) changes len(opNames) away from
// opCodeCount and this assignment stops compiling. A unit test covers
// the remaining gap (a new opcode indexed below an existing one, which
// would leave an empty string in the middle).
var _ [opCodeCount]string = opNames

func (o OpCode) String() string {
	if o >= 0 && int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OpCode(%d)", int(o))
}

// Expr is a compiled expression over PHV fields.
type Expr interface {
	// Eval computes the expression against the PHV.
	Eval(phv PHV) Value
	// String renders the expression in P4-ish syntax.
	String() string
}

// Field reads a PHV field.
type Field struct {
	Ref   FieldRef
	Width int
}

// Eval implements Expr.
func (f Field) Eval(phv PHV) Value {
	v := phv.Get(f.Ref)
	if v.W == 0 {
		return Value{W: f.Width}
	}
	return v
}

func (f Field) String() string { return string(f.Ref) }

// Const is a literal.
type Const struct{ Val Value }

// C returns a width-w constant expression.
func C(w int, v uint64) Const { return Const{Val: B(w, v)} }

// Eval implements Expr.
func (c Const) Eval(PHV) Value { return c.Val }

func (c Const) String() string { return fmt.Sprintf("%d", c.Val.V) }

// Unary applies a unary opcode.
type Unary struct {
	Op OpCode
	X  Expr
}

// Eval implements Expr.
func (u Unary) Eval(phv PHV) Value {
	x := u.X.Eval(phv)
	switch u.Op {
	case OpNot:
		return BoolV(!x.Bool())
	case OpBNot:
		return B(x.W, ^x.V)
	case OpNeg:
		return B(x.W, -x.V)
	case OpAbs:
		s := x.Signed()
		if s < 0 {
			s = -s
		}
		return B(x.W, uint64(s))
	}
	panic("pipeline: bad unary opcode " + u.Op.String())
}

func (u Unary) String() string {
	if u.Op == OpAbs {
		return fmt.Sprintf("abs(%s)", u.X)
	}
	return fmt.Sprintf("%s(%s)", u.Op, u.X)
}

// Bin applies a binary opcode. An arithmetic or bitwise result has its
// left operand's width, the static width the bytecode VM gives it too.
type Bin struct {
	Op   OpCode
	X, Y Expr
}

// Eval implements Expr.
func (b Bin) Eval(phv PHV) Value {
	// Short-circuit logical operators.
	switch b.Op {
	case OpLAnd:
		if !b.X.Eval(phv).Bool() {
			return BoolV(false)
		}
		return BoolV(b.Y.Eval(phv).Bool())
	case OpLOr:
		if b.X.Eval(phv).Bool() {
			return BoolV(true)
		}
		return BoolV(b.Y.Eval(phv).Bool())
	}

	x, y := b.X.Eval(phv), b.Y.Eval(phv)
	w := x.W
	switch b.Op {
	case OpAdd:
		return B(w, x.V+y.V)
	case OpSub:
		return B(w, x.V-y.V)
	case OpMul:
		return B(w, x.V*y.V)
	case OpDiv:
		if y.V == 0 {
			return B(w, 0)
		}
		return B(w, x.V/y.V)
	case OpMod:
		if y.V == 0 {
			return B(w, 0)
		}
		return B(w, x.V%y.V)
	case OpBAnd:
		return B(w, x.V&y.V)
	case OpBOr:
		return B(w, x.V|y.V)
	case OpBXor:
		return B(w, x.V^y.V)
	case OpShl:
		if y.V >= 64 {
			return B(w, 0)
		}
		return B(w, x.V<<y.V)
	case OpShr:
		if y.V >= 64 {
			return B(w, 0)
		}
		return B(w, x.V>>y.V)
	case OpEq:
		return BoolV(x.V == y.V)
	case OpNe:
		return BoolV(x.V != y.V)
	case OpLt:
		return BoolV(x.V < y.V)
	case OpLe:
		return BoolV(x.V <= y.V)
	case OpGt:
		return BoolV(x.V > y.V)
	case OpGe:
		return BoolV(x.V >= y.V)
	case OpMax:
		if x.V >= y.V {
			return B(w, x.V)
		}
		return B(w, y.V)
	case OpMin:
		if x.V <= y.V {
			return B(w, x.V)
		}
		return B(w, y.V)
	}
	panic("pipeline: bad binary opcode " + b.Op.String())
}

// Mux is a conditional expression (P4-16's `cond ? x : y`), used for
// runtime-indexed header-stack reads.
type Mux struct {
	Cond Expr
	X, Y Expr
}

// Eval implements Expr.
func (m Mux) Eval(phv PHV) Value {
	if m.Cond.Eval(phv).Bool() {
		return m.X.Eval(phv)
	}
	return m.Y.Eval(phv)
}

func (m Mux) String() string { return fmt.Sprintf("(%s ? %s : %s)", m.Cond, m.X, m.Y) }

func (b Bin) String() string {
	switch b.Op {
	case OpMax, OpMin:
		return fmt.Sprintf("%s(%s, %s)", b.Op, b.X, b.Y)
	}
	return fmt.Sprintf("(%s %s %s)", b.X, b.Op, b.Y)
}
