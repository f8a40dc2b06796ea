// Package ast defines the abstract syntax tree of the Indus language,
// mirroring the core grammar of Figure 4 in the Hydra paper plus the
// prototype extensions the paper describes (multi-variable for loops,
// report exceptions that carry values, elsif chains, tuple-keyed
// dictionaries, and list push/length operations).
package ast

import (
	"fmt"
	"strings"

	"repro/internal/indus/token"
)

// ---------------------------------------------------------------------------
// Types

// Type is the interface implemented by all Indus types.
type Type interface {
	fmt.Stringer
	// Equal reports structural type equality.
	Equal(Type) bool
	// Bits returns the number of bits a value of this type occupies when
	// carried as telemetry; dictionary and set types return the bits of a
	// single stored element (their backing store lives on the switch).
	Bits() int
}

// BitType is bit<N>: an unsigned bitstring of width N (1..64 supported).
type BitType struct{ Width int }

// BoolType is the boolean type, carried as a single bit on the wire.
type BoolType struct{}

// ArrayType is t[N]: a fixed-capacity list with push semantics
// (implemented as a P4 header stack by the compiler).
type ArrayType struct {
	Elem Type
	Len  int
}

// SetType is set<t>: a switch-resident set with the `in` membership test.
type SetType struct{ Elem Type }

// DictType is dict<k,v>: a control-plane-managed dictionary, realized as a
// match-action table by the compiler.
type DictType struct {
	Key Type
	Val Type
}

// TupleType is (t1, t2, ...): used for compound dictionary keys and for
// report payloads.
type TupleType struct{ Elems []Type }

func (t BitType) String() string   { return fmt.Sprintf("bit<%d>", t.Width) }
func (BoolType) String() string    { return "bool" }
func (t ArrayType) String() string { return fmt.Sprintf("%s[%d]", t.Elem, t.Len) }
func (t SetType) String() string   { return fmt.Sprintf("set<%s>", t.Elem) }
func (t DictType) String() string  { return fmt.Sprintf("dict<%s,%s>", t.Key, t.Val) }
func (t TupleType) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func (t BitType) Equal(o Type) bool {
	b, ok := o.(BitType)
	return ok && b.Width == t.Width
}
func (BoolType) Equal(o Type) bool { _, ok := o.(BoolType); return ok }
func (t ArrayType) Equal(o Type) bool {
	a, ok := o.(ArrayType)
	return ok && a.Len == t.Len && t.Elem.Equal(a.Elem)
}
func (t SetType) Equal(o Type) bool {
	s, ok := o.(SetType)
	return ok && t.Elem.Equal(s.Elem)
}
func (t DictType) Equal(o Type) bool {
	d, ok := o.(DictType)
	return ok && t.Key.Equal(d.Key) && t.Val.Equal(d.Val)
}
func (t TupleType) Equal(o Type) bool {
	u, ok := o.(TupleType)
	if !ok || len(u.Elems) != len(t.Elems) {
		return false
	}
	for i := range t.Elems {
		if !t.Elems[i].Equal(u.Elems[i]) {
			return false
		}
	}
	return true
}

func (t BitType) Bits() int   { return t.Width }
func (BoolType) Bits() int    { return 1 }
func (t ArrayType) Bits() int { return t.Len * t.Elem.Bits() }
func (t SetType) Bits() int   { return t.Elem.Bits() }
func (t DictType) Bits() int  { return t.Val.Bits() }
func (t TupleType) Bits() int {
	n := 0
	for _, e := range t.Elems {
		n += e.Bits()
	}
	return n
}

// ---------------------------------------------------------------------------
// Declarations

// VarKind classifies a declaration by where its state lives and who may
// write it (§3.2): tele variables ride on the packet, sensor variables are
// switch registers, header variables are read-only views of data-plane
// state, control variables are read-only views of control-plane state.
type VarKind int

const (
	KindTele VarKind = iota
	KindSensor
	KindHeader
	KindControl
)

func (k VarKind) String() string {
	switch k {
	case KindTele:
		return "tele"
	case KindSensor:
		return "sensor"
	case KindHeader:
		return "header"
	case KindControl:
		return "control"
	}
	return fmt.Sprintf("VarKind(%d)", int(k))
}

// Writable reports whether Indus code may assign to variables of this kind.
// Header and control variables are read-only by design so the checker
// cannot interfere with forwarding (§3.1, principle 2).
func (k VarKind) Writable() bool { return k == KindTele || k == KindSensor }

// Decl is a top-level variable declaration.
type Decl struct {
	Kind  VarKind
	Type  Type
	Name  string
	Init  Expr   // optional initializer (tele/sensor only)
	Annot string // optional @"..." annotation binding a header variable to a forwarding-program field
	Pos   token.Pos
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is the interface implemented by all expression nodes.
type Expr interface {
	exprNode()
	Position() token.Pos
	String() string
}

// Ident references a declared variable or a builtin (last_hop,
// packet_length, switch_id, hop_count).
type Ident struct {
	Name string
	Pos  token.Pos
}

// IntLit is an unsigned integer literal.
type IntLit struct {
	Value uint64
	Pos   token.Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Value bool
	Pos   token.Pos
}

// Unary is !x, ~x, or -x.
type Unary struct {
	Op  token.Kind
	X   Expr
	Pos token.Pos
}

// Binary is a binary operation, including the `in` membership test.
type Binary struct {
	Op   token.Kind
	X, Y Expr
	Pos  token.Pos
}

// Index is x[i]: array indexing or dictionary lookup.
type Index struct {
	X   Expr
	Idx Expr
	Pos token.Pos
}

// Tuple is (e1, e2, ...): a compound value for dict keys and reports.
type Tuple struct {
	Elems []Expr
	Pos   token.Pos
}

// Call is a builtin function application: abs(e), max(a,b), min(a,b).
type Call struct {
	Name string
	Args []Expr
	Pos  token.Pos
}

// Method is recv.name(args): list operations push and length.
type Method struct {
	Recv Expr
	Name string
	Args []Expr
	Pos  token.Pos
}

func (*Ident) exprNode()   {}
func (*IntLit) exprNode()  {}
func (*BoolLit) exprNode() {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}
func (*Index) exprNode()   {}
func (*Tuple) exprNode()   {}
func (*Call) exprNode()    {}
func (*Method) exprNode()  {}

func (e *Ident) Position() token.Pos   { return e.Pos }
func (e *IntLit) Position() token.Pos  { return e.Pos }
func (e *BoolLit) Position() token.Pos { return e.Pos }
func (e *Unary) Position() token.Pos   { return e.Pos }
func (e *Binary) Position() token.Pos  { return e.Pos }
func (e *Index) Position() token.Pos   { return e.Pos }
func (e *Tuple) Position() token.Pos   { return e.Pos }
func (e *Call) Position() token.Pos    { return e.Pos }
func (e *Method) Position() token.Pos  { return e.Pos }

func (e *Ident) String() string   { return e.Name }
func (e *IntLit) String() string  { return fmt.Sprintf("%d", e.Value) }
func (e *BoolLit) String() string { return fmt.Sprintf("%t", e.Value) }
func (e *Unary) String() string   { return e.Op.String() + e.X.String() }
func (e *Binary) String() string {
	op := e.Op.String()
	if e.Op == token.IN {
		op = "in"
	}
	return fmt.Sprintf("(%s %s %s)", e.X, op, e.Y)
}
func (e *Index) String() string { return fmt.Sprintf("%s[%s]", e.X, e.Idx) }
func (e *Tuple) String() string {
	parts := make([]string, len(e.Elems))
	for i, x := range e.Elems {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
func (e *Call) String() string {
	parts := make([]string, len(e.Args))
	for i, x := range e.Args {
		parts[i] = x.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}
func (e *Method) String() string {
	parts := make([]string, len(e.Args))
	for i, x := range e.Args {
		parts[i] = x.String()
	}
	return e.Recv.String() + "." + e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	stmtNode()
	Position() token.Pos
}

// Block is a brace-delimited statement sequence.
type Block struct {
	Stmts []Stmt
	Pos   token.Pos
}

// Assign is lhs = rhs, lhs += rhs, or lhs -= rhs. LHS is an Ident or Index.
type Assign struct {
	LHS Expr
	Op  token.Kind // ASSIGN, PLUSASSIGN, MINUSASSIGN
	RHS Expr
	Pos token.Pos
}

// If is a conditional; elsif chains are represented as nested If in Else.
type If struct {
	Cond Expr
	Then *Block
	Else Stmt // *Block, *If, or nil
	Pos  token.Pos
}

// For iterates one or more loop variables over equal-length arrays in
// lockstep: for (x, y in xs, ys) { ... }. Iteration covers the pushed
// (valid) prefix of the arrays.
type For struct {
	Vars []string
	Seqs []Expr
	Body *Block
	Pos  token.Pos
}

// Report raises the report exception: the packet proceeds but the carried
// values are delivered to the control plane.
type Report struct {
	Args []Expr
	Pos  token.Pos
}

// Reject raises the reject exception: the packet is dropped at the edge.
type Reject struct{ Pos token.Pos }

// Pass is the no-op statement.
type Pass struct{ Pos token.Pos }

// ExprStmt is an expression evaluated for effect (list push).
type ExprStmt struct {
	X   Expr
	Pos token.Pos
}

func (*Block) stmtNode()    {}
func (*Assign) stmtNode()   {}
func (*If) stmtNode()       {}
func (*For) stmtNode()      {}
func (*Report) stmtNode()   {}
func (*Reject) stmtNode()   {}
func (*Pass) stmtNode()     {}
func (*ExprStmt) stmtNode() {}

func (s *Block) Position() token.Pos    { return s.Pos }
func (s *Assign) Position() token.Pos   { return s.Pos }
func (s *If) Position() token.Pos       { return s.Pos }
func (s *For) Position() token.Pos      { return s.Pos }
func (s *Report) Position() token.Pos   { return s.Pos }
func (s *Reject) Position() token.Pos   { return s.Pos }
func (s *Pass) Position() token.Pos     { return s.Pos }
func (s *ExprStmt) Position() token.Pos { return s.Pos }

// ---------------------------------------------------------------------------
// Programs

// Program is a complete Indus program: declarations followed by the three
// code blocks. Init runs at the first hop before any other processing,
// Telemetry runs at every hop, Checker runs at the last hop (§2).
type Program struct {
	Decls     []Decl
	Init      *Block
	Telemetry *Block
	Checker   *Block
}

// DeclsOfKind returns all declarations with the given kind, in order.
func (p *Program) DeclsOfKind(k VarKind) []Decl {
	var out []Decl
	for _, d := range p.Decls {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

// Builtin names available as read-only idents in any block.
const (
	BuiltinLastHop      = "last_hop"      // bool: packet is at its final hop
	BuiltinFirstHop     = "first_hop"     // bool: packet is at its first hop
	BuiltinPacketLength = "packet_length" // bit<32>: wire length of the packet
	BuiltinSwitchID     = "switch_id"     // bit<32>: identifier of this switch
	BuiltinHopCount     = "hop_count"     // bit<8>: hops traversed so far
)

// BuiltinType returns the type of a builtin identifier and whether the
// name is a builtin.
func BuiltinType(name string) (Type, bool) {
	switch name {
	case BuiltinLastHop, BuiltinFirstHop:
		return BoolType{}, true
	case BuiltinPacketLength, BuiltinSwitchID:
		return BitType{Width: 32}, true
	case BuiltinHopCount:
		return BitType{Width: 8}, true
	}
	return nil, false
}
