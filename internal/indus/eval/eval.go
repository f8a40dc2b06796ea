package eval

import (
	"fmt"

	"repro/internal/indus/ast"
	"repro/internal/indus/token"
	"repro/internal/indus/types"
)

// ControlVar is the switch-local view of one control-plane variable.
// Exactly one of the three stores is used, matching the declared type.
// Dictionary lookups that miss return the zero value of the value type,
// mirroring the default action of the compiled match-action table.
type ControlVar struct {
	Scalar Value
	Dict   map[string]Value
	Set    map[string]bool
}

// NewControlDict returns an empty dictionary control variable.
func NewControlDict() *ControlVar { return &ControlVar{Dict: make(map[string]Value)} }

// NewControlSet returns an empty set control variable.
func NewControlSet() *ControlVar { return &ControlVar{Set: make(map[string]bool)} }

// NewControlScalar returns a scalar control variable with the given value.
func NewControlScalar(v Value) *ControlVar { return &ControlVar{Scalar: v} }

// Put installs key->val in a dictionary control variable.
func (cv *ControlVar) Put(key, val Value) { cv.Dict[KeyOf(key)] = val }

// Add inserts key into a set control variable.
func (cv *ControlVar) Add(key Value) { cv.Set[KeyOf(key)] = true }

// SwitchState is the per-switch state visible to an Indus program: sensor
// registers (read-write, persistent across packets) and control variables
// (read-only, managed by the control plane).
type SwitchState struct {
	ID       uint32
	Sensors  map[string]Value
	Controls map[string]*ControlVar
}

// NewSwitchState returns an empty switch state with the given identifier.
func NewSwitchState(id uint32) *SwitchState {
	return &SwitchState{
		ID:       id,
		Sensors:  make(map[string]Value),
		Controls: make(map[string]*ControlVar),
	}
}

// Hop is one element of the network-wide trace a packet experiences: the
// switch it traversed and the header-variable bindings observed there.
type Hop struct {
	Switch    *SwitchState
	Headers   map[string]Value
	PacketLen uint32
}

// Verdict is the final disposition of a packet.
type Verdict int

const (
	VerdictForward Verdict = iota
	VerdictReject
)

func (v Verdict) String() string {
	if v == VerdictReject {
		return "reject"
	}
	return "forward"
}

// Report is one report(...) exception raised during execution.
type Report struct {
	Args     []Value
	SwitchID uint32
	HopIndex int
	Block    types.BlockKind
}

// Outcome is the result of running a program over a complete trace.
type Outcome struct {
	Verdict Verdict
	Reports []Report
	// Tele holds the final telemetry variable values, useful for tests
	// and for diffing against the compiled pipeline.
	Tele map[string]Value
}

// Machine executes a type-checked Indus program.
type Machine struct {
	prog *ast.Program
	info *types.Info
}

// New returns a machine for the checked program.
func New(info *types.Info) *Machine {
	return &Machine{prog: info.Prog, info: info}
}

// PacketState carries the telemetry variables between hops, playing the
// role of the Hydra telemetry header on the wire.
type PacketState struct {
	Tele map[string]Value
	// rejected records a reject raised by the checker block.
	rejected bool
	reports  []Report
}

// NewPacketState allocates telemetry storage with each tele variable set
// to its declared initializer (or zero). Initializer expressions that
// reference header or control state are re-evaluated in the init block;
// here only constant initializers apply, matching the compiled parser
// which zero-fills the telemetry header before the init table runs.
func (m *Machine) NewPacketState() *PacketState {
	ps := &PacketState{Tele: make(map[string]Value)}
	for _, d := range m.prog.DeclsOfKind(ast.KindTele) {
		ps.Tele[d.Name] = Zero(d.Type)
	}
	return ps
}

// frame is the mutable execution context for one block at one hop.
type frame struct {
	m        *Machine
	ps       *PacketState
	hop      Hop
	hopIndex int
	lastHop  bool
	block    types.BlockKind
	locals   map[string]Value // loop variables
}

// RunTrace executes the full program over a trace: init at the first hop,
// telemetry at every hop, checker at the last hop. It mutates sensor
// state on the switches in the trace.
func (m *Machine) RunTrace(hops []Hop) (Outcome, error) {
	if len(hops) == 0 {
		return Outcome{}, fmt.Errorf("eval: empty trace")
	}
	ps := m.NewPacketState()
	if err := m.RunInit(ps, hops[0], 0, len(hops) == 1); err != nil {
		return Outcome{}, err
	}
	for i, h := range hops {
		if err := m.RunTelemetry(ps, h, i, i == len(hops)-1); err != nil {
			return Outcome{}, err
		}
	}
	last := len(hops) - 1
	if err := m.RunChecker(ps, hops[last], last, true); err != nil {
		return Outcome{}, err
	}
	return m.Finish(ps), nil
}

// Finish assembles the outcome after the checker block has run.
func (m *Machine) Finish(ps *PacketState) Outcome {
	verdict := VerdictForward
	if ps.rejected {
		verdict = VerdictReject
	}
	tele := make(map[string]Value, len(ps.Tele))
	for k, v := range ps.Tele {
		tele[k] = Clone(v)
	}
	return Outcome{Verdict: verdict, Reports: ps.reports, Tele: tele}
}

// RunInit executes the init block and constant initializers at a hop.
func (m *Machine) RunInit(ps *PacketState, hop Hop, hopIndex int, lastHop bool) error {
	f := &frame{m: m, ps: ps, hop: hop, hopIndex: hopIndex, lastHop: lastHop, block: types.BlockInit, locals: map[string]Value{}}
	// Re-evaluate tele initializers that need hop context; sensor
	// initializers are applied lazily on first access instead (they
	// initialize switch-resident registers, not packet state).
	for _, d := range m.prog.DeclsOfKind(ast.KindTele) {
		if d.Init != nil {
			v, err := f.eval(d.Init, d.Type)
			if err != nil {
				return err
			}
			ps.Tele[d.Name] = v
		}
	}
	return f.execBlock(m.prog.Init)
}

// RunTelemetry executes the telemetry block at a hop.
func (m *Machine) RunTelemetry(ps *PacketState, hop Hop, hopIndex int, lastHop bool) error {
	f := &frame{m: m, ps: ps, hop: hop, hopIndex: hopIndex, lastHop: lastHop, block: types.BlockTelemetry, locals: map[string]Value{}}
	return f.execBlock(m.prog.Telemetry)
}

// RunChecker executes the checker block at the last hop.
func (m *Machine) RunChecker(ps *PacketState, hop Hop, hopIndex int, lastHop bool) error {
	f := &frame{m: m, ps: ps, hop: hop, hopIndex: hopIndex, lastHop: lastHop, block: types.BlockChecker, locals: map[string]Value{}}
	return f.execBlock(m.prog.Checker)
}

// ---------------------------------------------------------------------------
// Statement execution

func (f *frame) execBlock(b *ast.Block) error {
	if b == nil {
		return nil
	}
	for _, s := range b.Stmts {
		if err := f.exec(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *frame) exec(s ast.Stmt) error {
	switch s := s.(type) {
	case *ast.Block:
		return f.execBlock(s)

	case *ast.Pass:
		return nil

	case *ast.Reject:
		// Like the compiled code (Figure 6), reject sets a flag that is
		// applied when the packet leaves the checker; execution of the
		// rest of the block continues so that a following report(...)
		// still fires (as in the Figure 9 application-filtering checker).
		f.ps.rejected = true
		return nil

	case *ast.Report:
		args := make([]Value, len(s.Args))
		for i, a := range s.Args {
			v, err := f.eval(a, nil)
			if err != nil {
				return err
			}
			args[i] = Clone(v)
		}
		f.ps.reports = append(f.ps.reports, Report{
			Args:     args,
			SwitchID: f.hop.Switch.ID,
			HopIndex: f.hopIndex,
			Block:    f.block,
		})
		return nil

	case *ast.Assign:
		return f.execAssign(s)

	case *ast.If:
		cond, err := f.evalBool(s.Cond)
		if err != nil {
			return err
		}
		if cond {
			return f.execBlock(s.Then)
		}
		if s.Else != nil {
			return f.exec(s.Else)
		}
		return nil

	case *ast.For:
		return f.execFor(s)

	case *ast.ExprStmt:
		m := s.X.(*ast.Method) // parser guarantees push
		return f.execPush(m)

	default:
		return fmt.Errorf("%s: eval: unknown statement %T", s.Position(), s)
	}
}

func (f *frame) execAssign(s *ast.Assign) error {
	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		d := f.m.info.Decls[lhs.Name]
		rhs, err := f.eval(s.RHS, d.Type)
		if err != nil {
			return err
		}
		if s.Op != token.ASSIGN {
			old, err := f.readVar(lhs)
			if err != nil {
				return err
			}
			rhs, err = applyCompound(s.Op, old, rhs)
			if err != nil {
				return fmt.Errorf("%s: %v", s.Pos, err)
			}
		}
		return f.writeVar(d, rhs)

	case *ast.Index:
		// Array element assignment: a[i] = v.
		base, ok := lhs.X.(*ast.Ident)
		if !ok {
			return fmt.Errorf("%s: eval: unsupported nested assignment target", s.Pos)
		}
		d := f.m.info.Decls[base.Name]
		cur, err := f.readVar(base)
		if err != nil {
			return err
		}
		arr, ok := cur.(*Array)
		if !ok {
			return fmt.Errorf("%s: eval: indexed assignment to non-array %q", s.Pos, base.Name)
		}
		idxV, err := f.eval(lhs.Idx, nil)
		if err != nil {
			return err
		}
		idx := int(idxV.(Bit).V)
		rhs, err := f.eval(s.RHS, arr.Elem)
		if err != nil {
			return err
		}
		if s.Op != token.ASSIGN {
			rhs, err = applyCompound(s.Op, arr.Get(idx), rhs)
			if err != nil {
				return fmt.Errorf("%s: %v", s.Pos, err)
			}
		}
		arr = arr.Clone()
		// An out-of-range indexed write is dropped, matching the
		// compiled pipeline (a header-stack slot that does not exist
		// simply is not written on hardware).
		if err := arr.Set(idx, rhs); err != nil {
			return nil
		}
		return f.writeVar(d, arr)
	}
	return fmt.Errorf("%s: eval: invalid assignment target", s.Pos)
}

func applyCompound(op token.Kind, old, rhs Value) (Value, error) {
	a, okA := old.(Bit)
	b, okB := rhs.(Bit)
	if !okA || !okB {
		return nil, fmt.Errorf("compound assignment requires bit values")
	}
	switch op {
	case token.PLUSASSIGN:
		return NewBit(a.Width, a.V+b.V), nil
	case token.MINUSASSIGN:
		return NewBit(a.Width, a.V-b.V), nil
	}
	return nil, fmt.Errorf("unknown compound operator %s", op)
}

// execFor runs the body once per index of the arrays' static capacity,
// each iteration guarded by the index being valid when it is reached
// and binding the element that is there then — the semantics the
// compiler's unrolling gives (§4.1: "the loop body is executed for each
// list index that is valid"). A body that pushes to, or assigns into,
// an array it iterates therefore sees its own writes; see DESIGN.md,
// "Loops over an array the body mutates".
func (f *frame) execFor(s *ast.For) error {
	saved := make(map[string]Value, len(s.Vars))
	for _, name := range s.Vars {
		if prev, ok := f.locals[name]; ok {
			saved[name] = prev
		}
	}
	defer func() {
		for _, name := range s.Vars {
			if prev, ok := saved[name]; ok {
				f.locals[name] = prev
			} else {
				delete(f.locals, name)
			}
		}
	}()
	arrays := make([]*Array, len(s.Seqs))
	for i := 0; ; i++ { // ends at the arrays' capacity; the parser gives every for a sequence
		valid := true
		for j, seq := range s.Seqs {
			v, err := f.eval(seq, nil)
			if err != nil {
				return err
			}
			arr, ok := v.(*Array)
			if !ok {
				return fmt.Errorf("%s: eval: for over non-array value", s.Pos)
			}
			if i >= arr.Cap {
				return nil
			}
			valid = valid && i < arr.Len()
			arrays[j] = arr
		}
		if !valid {
			continue
		}
		for j, name := range s.Vars {
			f.locals[name] = arrays[j].Get(i)
		}
		if err := f.execBlock(s.Body); err != nil {
			return err
		}
	}
}

func (f *frame) execPush(m *ast.Method) error {
	base, ok := m.Recv.(*ast.Ident)
	if !ok {
		return fmt.Errorf("%s: eval: push receiver must be a variable", m.Pos)
	}
	d := f.m.info.Decls[base.Name]
	cur, err := f.readVar(base)
	if err != nil {
		return err
	}
	arr, ok := cur.(*Array)
	if !ok {
		return fmt.Errorf("%s: eval: push on non-array %q", m.Pos, base.Name)
	}
	v, err := f.eval(m.Args[0], arr.Elem)
	if err != nil {
		return err
	}
	arr = arr.Clone()
	arr.Push(v)
	return f.writeVar(d, arr)
}

// ---------------------------------------------------------------------------
// Variable access

func (f *frame) readVar(id *ast.Ident) (Value, error) {
	if v, ok := f.locals[id.Name]; ok {
		return v, nil
	}
	if t, isBuiltin := ast.BuiltinType(id.Name); isBuiltin {
		return f.builtin(id.Name, t)
	}
	d, ok := f.m.info.Decls[id.Name]
	if !ok {
		return nil, fmt.Errorf("%s: eval: undeclared variable %q", id.Pos, id.Name)
	}
	switch d.Kind {
	case ast.KindTele:
		return f.ps.Tele[d.Name], nil

	case ast.KindSensor:
		if v, ok := f.hop.Switch.Sensors[d.Name]; ok {
			return v, nil
		}
		v := Zero(d.Type)
		if d.Init != nil {
			iv, err := f.eval(d.Init, d.Type)
			if err != nil {
				return nil, err
			}
			v = iv
		}
		f.hop.Switch.Sensors[d.Name] = v
		return v, nil

	case ast.KindHeader:
		v, ok := f.hop.Headers[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: eval: header variable %q not bound at switch %d", id.Pos, d.Name, f.hop.Switch.ID)
		}
		return v, nil

	case ast.KindControl:
		cv, ok := f.hop.Switch.Controls[d.Name]
		if !ok {
			// An uninstalled control variable reads as zero, matching a
			// match-action table whose default action returns zeros.
			return Zero(scalarOf(d.Type)), nil
		}
		if cv.Scalar == nil {
			return nil, fmt.Errorf("%s: eval: control variable %q is a %s and must be indexed", id.Pos, d.Name, d.Type)
		}
		return cv.Scalar, nil
	}
	return nil, fmt.Errorf("%s: eval: unhandled variable kind", id.Pos)
}

// scalarOf maps a control-variable type to the type its bare read yields.
func scalarOf(t ast.Type) ast.Type {
	switch t := t.(type) {
	case ast.DictType:
		return t.Val
	case ast.SetType:
		return ast.BoolType{}
	default:
		return t
	}
}

func (f *frame) writeVar(d *ast.Decl, v Value) error {
	switch d.Kind {
	case ast.KindTele:
		f.ps.Tele[d.Name] = v
		return nil
	case ast.KindSensor:
		f.hop.Switch.Sensors[d.Name] = v
		return nil
	}
	return fmt.Errorf("eval: write to read-only %s variable %q", d.Kind, d.Name)
}

func (f *frame) builtin(name string, t ast.Type) (Value, error) {
	switch name {
	case ast.BuiltinLastHop:
		return Bool(f.lastHop), nil
	case ast.BuiltinFirstHop:
		return Bool(f.hopIndex == 0), nil
	case ast.BuiltinPacketLength:
		return NewBit(32, uint64(f.hop.PacketLen)), nil
	case ast.BuiltinSwitchID:
		return NewBit(32, uint64(f.hop.Switch.ID)), nil
	case ast.BuiltinHopCount:
		return NewBit(8, uint64(f.hopIndex+1)), nil
	}
	return nil, fmt.Errorf("eval: unknown builtin %q", name)
}

// ---------------------------------------------------------------------------
// Expression evaluation

func (f *frame) evalBool(e ast.Expr) (bool, error) {
	v, err := f.eval(e, ast.BoolType{})
	if err != nil {
		return false, err
	}
	b, ok := v.(Bool)
	if !ok {
		return false, fmt.Errorf("%s: eval: condition is %s, not bool", e.Position(), v.Type())
	}
	return bool(b), nil
}

// eval evaluates e. expected provides the width for bare integer
// literals; the type checker has already guaranteed consistency.
func (f *frame) eval(e ast.Expr, expected ast.Type) (Value, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		if t := f.m.info.TypeOf(e); t != nil {
			if bt, ok := t.(ast.BitType); ok {
				return NewBit(bt.Width, e.Value), nil
			}
		}
		if bt, ok := expected.(ast.BitType); ok {
			return NewBit(bt.Width, e.Value), nil
		}
		return NewBit(32, e.Value), nil

	case *ast.BoolLit:
		return Bool(e.Value), nil

	case *ast.Ident:
		return f.readVar(e)

	case *ast.Unary:
		return f.evalUnary(e)

	case *ast.Binary:
		return f.evalBinary(e)

	case *ast.Index:
		return f.evalIndex(e)

	case *ast.Tuple:
		elems := make([]Value, len(e.Elems))
		for i, x := range e.Elems {
			v, err := f.eval(x, nil)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return Tuple{Elems: elems}, nil

	case *ast.Call:
		return f.evalCall(e)

	case *ast.Method:
		if e.Name == "length" {
			recv, err := f.eval(e.Recv, nil)
			if err != nil {
				return nil, err
			}
			arr, ok := recv.(*Array)
			if !ok {
				return nil, fmt.Errorf("%s: eval: length of non-array", e.Pos)
			}
			return NewBit(32, uint64(arr.Len())), nil
		}
		return nil, fmt.Errorf("%s: eval: method %q is not an expression", e.Pos, e.Name)
	}
	return nil, fmt.Errorf("%s: eval: unknown expression %T", e.Position(), e)
}

func (f *frame) evalUnary(e *ast.Unary) (Value, error) {
	x, err := f.eval(e.X, nil)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case token.NOT:
		return !x.(Bool), nil
	case token.TILDE:
		b := x.(Bit)
		return NewBit(b.Width, ^b.V), nil
	case token.MINUS:
		b := x.(Bit)
		return NewBit(b.Width, -b.V), nil
	}
	return nil, fmt.Errorf("%s: eval: unknown unary %s", e.Pos, e.Op)
}

func (f *frame) evalBinary(e *ast.Binary) (Value, error) {
	// Short-circuit boolean operators.
	switch e.Op {
	case token.LAND:
		x, err := f.evalBool(e.X)
		if err != nil || !x {
			return Bool(false), err
		}
		y, err := f.evalBool(e.Y)
		return Bool(y), err
	case token.LOR:
		x, err := f.evalBool(e.X)
		if err != nil || x {
			return Bool(true), err
		}
		y, err := f.evalBool(e.Y)
		return Bool(y), err
	case token.IN:
		return f.evalIn(e)
	}

	xType := f.m.info.TypeOf(e.X)
	yType := f.m.info.TypeOf(e.Y)
	x, err := f.eval(e.X, yType)
	if err != nil {
		return nil, err
	}
	y, err := f.eval(e.Y, xType)
	if err != nil {
		return nil, err
	}

	switch e.Op {
	case token.EQ:
		return Bool(x.Equal(y)), nil
	case token.NEQ:
		return Bool(!x.Equal(y)), nil
	}

	a, okA := x.(Bit)
	b, okB := y.(Bit)
	if !okA || !okB {
		return nil, fmt.Errorf("%s: eval: operator %s on non-bit values", e.Pos, e.Op)
	}
	switch e.Op {
	case token.LT:
		return Bool(a.V < b.V), nil
	case token.LEQ:
		return Bool(a.V <= b.V), nil
	case token.GT:
		return Bool(a.V > b.V), nil
	case token.GEQ:
		return Bool(a.V >= b.V), nil
	case token.PLUS:
		return NewBit(a.Width, a.V+b.V), nil
	case token.MINUS:
		return NewBit(a.Width, a.V-b.V), nil
	case token.STAR:
		return NewBit(a.Width, a.V*b.V), nil
	case token.SLASH:
		if b.V == 0 {
			// Division by zero yields zero: the compiled pipeline has no
			// trap mechanism, so the semantics are total by definition.
			return NewBit(a.Width, 0), nil
		}
		return NewBit(a.Width, a.V/b.V), nil
	case token.PERCENT:
		if b.V == 0 {
			return NewBit(a.Width, 0), nil
		}
		return NewBit(a.Width, a.V%b.V), nil
	case token.AMP:
		return NewBit(a.Width, a.V&b.V), nil
	case token.PIPE:
		return NewBit(a.Width, a.V|b.V), nil
	case token.CARET:
		return NewBit(a.Width, a.V^b.V), nil
	case token.SHL:
		if b.V >= 64 {
			return NewBit(a.Width, 0), nil
		}
		return NewBit(a.Width, a.V<<b.V), nil
	case token.SHR:
		if b.V >= 64 {
			return NewBit(a.Width, 0), nil
		}
		return NewBit(a.Width, a.V>>b.V), nil
	}
	return nil, fmt.Errorf("%s: eval: unknown binary %s", e.Pos, e.Op)
}

func (f *frame) evalIn(e *ast.Binary) (Value, error) {
	container, err := f.containerOf(e.Y)
	if err != nil {
		return nil, err
	}
	switch cont := container.(type) {
	case *ControlVar:
		x, err := f.eval(e.X, nil)
		if err != nil {
			return nil, err
		}
		return Bool(cont.Set[KeyOf(x)]), nil
	case *Array:
		x, err := f.eval(e.X, cont.Elem)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cont.Len(); i++ {
			if cont.Get(i).Equal(x) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	}
	return nil, fmt.Errorf("%s: eval: in over unsupported container", e.Pos)
}

// containerOf resolves the right operand of `in` or the base of an index:
// either a runtime Array value or a switch-resident ControlVar.
func (f *frame) containerOf(e ast.Expr) (any, error) {
	if id, ok := e.(*ast.Ident); ok {
		if d, isDecl := f.m.info.Decls[id.Name]; isDecl && d.Kind == ast.KindControl {
			switch d.Type.(type) {
			case ast.SetType, ast.DictType:
				cv, installed := f.hop.Switch.Controls[d.Name]
				if !installed {
					cv = &ControlVar{Dict: map[string]Value{}, Set: map[string]bool{}}
				}
				return cv, nil
			}
		}
	}
	v, err := f.eval(e, nil)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (f *frame) evalIndex(e *ast.Index) (Value, error) {
	container, err := f.containerOf(e.X)
	if err != nil {
		return nil, err
	}
	switch cont := container.(type) {
	case *Array:
		idxV, err := f.eval(e.Idx, ast.BitType{Width: 32})
		if err != nil {
			return nil, err
		}
		idx, ok := idxV.(Bit)
		if !ok {
			return nil, fmt.Errorf("%s: eval: array index is not a bit value", e.Pos)
		}
		return cont.Get(int(idx.V)), nil

	case *ControlVar:
		// Dictionary lookup.
		d := f.m.info.Decls[e.X.(*ast.Ident).Name]
		dt, ok := d.Type.(ast.DictType)
		if !ok {
			return nil, fmt.Errorf("%s: eval: control variable %q is not a dict", e.Pos, d.Name)
		}
		keyV, err := f.eval(e.Idx, dt.Key)
		if err != nil {
			return nil, err
		}
		if v, hit := cont.Dict[KeyOf(keyV)]; hit {
			return v, nil
		}
		return Zero(dt.Val), nil
	}
	return nil, fmt.Errorf("%s: eval: cannot index value of type %T", e.Pos, container)
}

func (f *frame) evalCall(e *ast.Call) (Value, error) {
	args := make([]Bit, len(e.Args))
	var width int
	for i, a := range e.Args {
		v, err := f.eval(a, f.m.info.TypeOf(e))
		if err != nil {
			return nil, err
		}
		b, ok := v.(Bit)
		if !ok {
			return nil, fmt.Errorf("%s: eval: %s requires bit arguments", e.Pos, e.Name)
		}
		args[i] = b
		width = b.Width
	}
	switch e.Name {
	case "abs":
		s := args[0].Signed()
		if s < 0 {
			s = -s
		}
		return NewBit(width, uint64(s)), nil
	case "max":
		if args[0].V >= args[1].V {
			return args[0], nil
		}
		return args[1], nil
	case "min":
		if args[0].V <= args[1].V {
			return args[0], nil
		}
		return args[1], nil
	}
	return nil, fmt.Errorf("%s: eval: unknown function %q", e.Pos, e.Name)
}
