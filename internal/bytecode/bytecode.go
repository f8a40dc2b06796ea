// Package bytecode compiles the pipeline IR into flat bytecode and
// executes it in a register-machine VM: one contiguous []Instr per
// block with slot-indexed operands, dispatched by a single
// `for { switch op }` loop — no per-op closures, no interface values,
// no allocation on the per-packet path.
//
// The VM is the production executor of the pipeline IR (netsim switches
// and NICs, the engine, the fleet workers) and must stay bit-identical
// to the map interpreter, the reference it is tested against — the
// difftest conformance suite replays the corpus, the frontier
// counterexamples, and randomized programs through the Indus oracle,
// the map reference, and the VM (a Set of one program and the program
// linked with others, each resident over the whole trace and pass by
// pass through the wire codec), and demands byte-exact verdicts, report
// payloads, and telemetry blobs.
//
// A Prog is an object file: Compile produces it, LinkSet relocates it
// into a Set, and a Set is the only thing that runs.
//
// Layout decisions that make the VM fast:
//
//   - Telemetry slots come first, in wire order, so a whole-trace
//     (resident-PHV) execution can skip the per-hop blob encode/decode
//     entirely: tele state simply stays in the slots between hops,
//     which is equivalent because every write into a tele slot is
//     already masked to its declared wire width (encode∘decode is the
//     identity).
//   - The scratch slots some block may read before writing come next to
//     one another — a linked Set places every member's in one region
//     after the builtins — so the per-hop reset is one copy of that
//     region of the template. A bound header is packet input (Stage).
//   - A slot holds bits: the PHV is a []uint64, and every slot has one
//     static width, fixed at compile time — the width of every read and
//     write of its field, which Compile holds to one (a field read or
//     written at two widths is refused). An instruction carries its
//     result's mask, so no width travels with a value and none is
//     reconciled at run time: an operation is at its left operand's
//     static width, as in the map reference.
//   - Every slot's "unwritten" value is zero bits in a template, and
//     constants are materialized into read-only template slots; loading
//     a field or a constant costs zero instructions.
//   - Expressions flatten to three-address code over temp slots. This
//     evaluates both sides of &&/||/mux eagerly, which is sound
//     because pipeline expressions are pure and total (no state reads,
//     no traps: division by zero yields zero, oversized shifts yield
//     zero).
//   - Two instructions fuse where no jump lands between them and the
//     first's result has no other reader: a compare and its IfOp's jump
//     (opJzEq…), an add and the AssignOp of its sum (opAddAssign: x +=
//     k), an apply and the AssignOp right after it that copies its one
//     output or its hit (opApplyAssign), and the OR chain compileIn
//     unrolls for `x in arr` is one scan (opIn). A fused instruction
//     counts the IR ops it stands for in OpsExecuted.
//   - A block's prologue, its leading hop-count bump and scalar-control
//     loads, leaves the dispatch loop: RunBlocks runs every member's in
//     two flat loops at the head of the pass (markPrologues).
//   - A row binds once: a Binding resolves every apply and register site
//     of a Set against a state row when the row changes, and keeps per
//     pass what the prologue's scalar loads wrote, re-read only when
//     pipeline.ScalarEpoch moves (stage.go). No packet resolves a site,
//     and a warm one probes no scalar control.
package bytecode

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/pipeline"
)

// OpKind is the VM opcode.
type OpKind uint8

// Opcodes. Operand meaning per op is documented on the dispatch loop.
// Ops marked [ir] correspond 1:1 to an IR op and bump Ctx.OpsExecuted,
// keeping the performance-model counters identical to the other
// executors.
const (
	opNop       OpKind = iota
	opAssign           // A=dst, B=src, M: dst = src & M [ir]
	opAddAssign        // A=dst, B, C, M: an opAssign of the opAdd before it, at the narrower mask [ir: AssignOp]
	opJmp              // A=target
	opJz               // A=cond, B=target: jump if cond is false [ir: IfOp]

	opNot  // A=dst, B=src: 1 if src is 0
	opBNot // A=dst, B=src, M: at src's width
	opNeg  //
	opAbs  //

	opBoolAnd // A=dst, B, C: 1 if B and C are nonzero
	opBoolOr  //
	opSelect  // A=dst, B=cond, C=then, D=else

	opAdd // A=dst, B, C, M: binary arithmetic at B's width
	opSub
	opMul
	opDiv
	opMod
	opBAnd
	opBOr
	opBXor
	opShl
	opShr
	opMax
	opMin

	opEq // A=dst, B, C (comparisons produce 0 or 1)
	opNe
	opLt
	opLe
	opGt
	opGe

	// Fused conditional branches: an IfOp whose condition is a single
	// comparison (or !x, or x&&y / x||y) collapses the compare and the
	// opJz into one instruction — tele blocks are branch-heavy, so this
	// trims both dispatches and temp traffic. The six comparison forms
	// must stay in opEq..opGe order. Operands B, C; jump target D; the
	// jump is taken when the condition is FALSE (same sense as opJz).
	// [ir: IfOp]
	opJzEq
	opJzNe
	opJzLt
	opJzLe
	opJzGt
	opJzGe
	opJzAnd // taken unless B and C are both truthy
	opJzOr  // taken unless B or C is truthy
	opJnz   // A=cond, B=target: fused !x — taken when cond is TRUE [ir: IfOp]

	opApply       // A=apply-site [ir]
	opApplyAssign // A=apply-site, B=dst, C=its one output or hit, M: the apply, then an opAssign [ir: 2]
	opIn          // A=dst, B=array-site, C=needle: 1 if needle is among the first min(count, capN) elements
	opRegRead     // A=dst, B=reg-site, C=idx slot, M: the read at the destination's width [ir]
	opRegWrite    // A=reg-site, B=idx slot, C=src slot [ir]
	opPush        // A=array-site, B=src slot [ir]
	opSetSlot     // A=array-site, B=idx slot, C=src slot [ir]
	opReport      // A=report-site [ir]
	opReject      // A=member, B=src, M: the member's bit of the pass's reject mask = src&M != 0 [ir: AssignOp to the write-only reject flag]
)

// Instr is one VM instruction. Operands are PHV slot indices, jump
// targets, or side-table indices depending on the opcode; M is the mask
// of its result's static width, the low bits an op of that width keeps.
type Instr struct {
	Op OpKind
	A  int32
	B  int32
	C  int32
	D  int32
	M  uint64
}

// widthMask is the mask of a width-w result: the low w bits.
func widthMask(w int) uint64 { return pipeline.Mask(w, ^uint64(0)) }

// opd says what one operand field of an instruction holds, for the
// passes that walk code without executing it: the reset and prologue
// analyses and the set linker.
type opd uint8

const (
	opdNone   opd = iota
	opdDst        // PHV slot written
	opdSrc        // PHV slot read
	opdJump       // jump target
	opdMember     // the member's index in its Set, filled in by LinkSet
	opdApply      // index into applies
	opdReg        // index into regs
	opdArray      // index into arrays
	opdReport     // index into reports
)

// shapes gives the meaning of Instr.A, B, C, D per opcode.
var shapes = func() (t [opReject + 1][4]opd) {
	for op := opBoolAnd; op <= opGe; op++ {
		t[op] = [4]opd{opdDst, opdSrc, opdSrc} // opSelect, in their midst, is set below
	}
	for _, op := range []OpKind{opAssign, opNot, opBNot, opNeg, opAbs} {
		t[op] = [4]opd{opdDst, opdSrc}
	}
	t[opSelect] = [4]opd{opdDst, opdSrc, opdSrc, opdSrc}
	t[opAddAssign] = t[opAdd]
	for op := opJzEq; op <= opJzOr; op++ {
		t[op] = [4]opd{opdNone, opdSrc, opdSrc, opdJump}
	}
	t[opJmp] = [4]opd{opdJump}
	t[opJz] = [4]opd{opdSrc, opdJump}
	t[opJnz] = [4]opd{opdSrc, opdJump}
	t[opApply] = [4]opd{opdApply}
	t[opApplyAssign] = [4]opd{opdApply, opdDst, opdSrc}
	// opIn only reads its array, but as opdArray its elements and count
	// are force-kept in the reset set when they are scratch. That keeps
	// nothing new: compileIn's arrays are telemetry, which has no scratch
	// slot, and an array has scratch slots only when a push or slot store
	// writes it, which force-keeps them already.
	t[opIn] = [4]opd{opdDst, opdArray, opdSrc}
	t[opRegRead] = [4]opd{opdDst, opdReg, opdSrc}
	t[opRegWrite] = [4]opd{opdReg, opdSrc, opdSrc}
	t[opPush] = [4]opd{opdArray, opdSrc}
	t[opSetSlot] = [4]opd{opdArray, opdSrc, opdSrc}
	t[opReport] = [4]opd{opdReport}
	t[opReject] = [4]opd{opdMember, opdSrc}
	return t
}()

// fields returns the operand fields in shapes order.
func (in *Instr) fields() [4]*int32 { return [4]*int32{&in.A, &in.B, &in.C, &in.D} }

// tempBase is the virtual slot index space for expression temporaries
// during compilation; a relocation pass rebases them past the last
// field/const slot once the full slot count is known. Real slot
// indices and jump targets stay far below it.
const tempBase int32 = 1 << 24

// teleStep is one field of the telemetry wire layout: slot, width,
// static bit offset, and the shape the codec moves it by (codec.go).
type teleStep struct {
	slot  int32
	width int32
	off   int32
	kind  stepKind
}

// applySite is the side table for one ApplyOp: first what runApply
// reads every time, then what Binding.bind reads once.
type applySite struct {
	keys    []applyKey
	outs    []int32
	hit     int32
	oneWord bool               // every key column sits in word 0: runApply packs without a branch on the word
	member  int                // index of the owning program's state in the row a Binding binds
	name    string             // the table, as the member's State.Tables names it
	spec    []pipeline.KeySpec // its key columns, whose layout keys follows; Binding.bind holds a bound table to their widths
}

// applyKey is one key of an apply site: the slot it is read from and the
// place its table's KeyLayout gives its column, where runApply packs it —
// its mask, its word and its shift as a multiplier, 1 << shift: a
// multiply by a register is one instruction, where a shift by one must
// first move the count into CL.
type applyKey struct {
	mask, scale uint64
	slot        int32
	word        uint8
}

// keySlots is the slots the site's keys are read from.
func (a *applySite) keySlots() []int32 {
	slots := make([]int32, len(a.keys))
	for i, k := range a.keys {
		slots[i] = k.slot
	}
	return slots
}

// regSite resolves one register access.
type regSite struct {
	member int // as applySite.member
	name   string
}

// arraySite is the side table for header-stack ops: the element slots,
// the count slot, the capacity and the elements' mask.
type arraySite struct {
	start int32
	cnt   int32
	capN  int32
	em    uint64
}

// reportSite is the side table for one ReportOp: the slots of its
// arguments and their static widths, which the raised Values carry.
type reportSite struct {
	owner int32 // index of the member whose reports it raises
	args  []int32
	argW  []uint8
}

// image is a PHV layout with its template and reset plan, plus the side
// tables its code indexes: a Prog holds one program's, a Set is the
// linked image of several. Contexts, the reset, the codec and the
// dispatch loop are defined on the image and reachable through a Set only.
type image struct {
	nSlots int // PHV length
	nTele  int // telemetry region is slots [0, nTele)

	// teleSteps is the telemetry blob's copy plan, sorted by shape;
	// kindEnd[k] ends the run of shape k. teleBytes is the blob's wire
	// size (codec.go).
	teleSteps []teleStep
	kindEnd   [numStepKinds]int
	teleBytes int

	// template is the trace-start PHV image: zero bits but for the
	// constants. The scratch (non-tele) region doubles as the per-hop
	// reset image.
	template []uint64
	// widths is every slot's static width; a temporary has none (0), its
	// width being each instruction's that writes it.
	widths []uint8

	applies []applySite
	regs    []regSite
	arrays  []arraySite
	reports []reportSite

	bindings  []string
	bindSlots []int32

	slotSwitch, slotPktLen, slotLast, slotFirst int32

	// reset is the [lo, hi) run of scratch slots BeginHop restores from
	// the template: LinkSet places every member's resetSlots there.
	reset [2]int32

	// dirtySlots is every PHV slot some execution can write: telemetry,
	// instruction destinations, binds, per-hop metadata, and expression
	// temporaries. Constants and read-only field slots are absent — the
	// VM never writes them, so a reused context can never carry dirt
	// there. The arena-aliasing suite poisons exactly this set.
	dirtySlots []int32
}

// Prog is the compiled bytecode form of a pipeline Program. One Prog is
// built per program at install time and is immutable. It is an object
// file: img is its layout and side tables in its own slot numbering, and
// nothing executes, decodes or encodes it until LinkSet has placed it in
// a Set, alone or beside others.
type Prog struct {
	img image
	P   *pipeline.Program

	init, tele, check []Instr
	pro               [3]int // each block's prologue length (markPrologues)

	slots map[pipeline.FieldRef]int32

	// For LinkSet: where the expression temporaries start, and the
	// slots BeginHop must restore (computeResetSlots).
	tempStart  int32
	resetSlots []int32
}

// comp is the transient compilation state.
type comp struct {
	p    *Prog
	prog *pipeline.Program

	// widths holds every field's static width: the one width its reads
	// and writes agree on (scanWidths).
	widths map[pipeline.FieldRef]int
	consts map[pipeline.Value]int32
	arrays map[string]arrayBlock

	tempNext, tempMax int32
}

// arrayBlock is where layout placed an array's contiguous element slots.
type arrayBlock struct {
	start int32 // first element slot
	capN  int
}

// Compile builds the bytecode form of prog. It fails on ops the map
// interpreter would reject (undeclared tables or registers), a field at
// two widths and a write to a bound header, which Indus cannot express.
func Compile(prog *pipeline.Program) (*Prog, error) {
	p := &Prog{P: prog, slots: make(map[pipeline.FieldRef]int32, 64)}
	cp := &comp{
		p:      p,
		prog:   prog,
		widths: map[pipeline.FieldRef]int{},
		consts: map[pipeline.Value]int32{},
		arrays: map[string]arrayBlock{},
	}

	if err := cp.scanWidths(); err != nil {
		return nil, err
	}
	if err := cp.layout(); err != nil {
		return nil, err
	}

	var err error
	if p.init, err = cp.block(prog.Init); err != nil {
		return nil, err
	}
	if p.tele, err = cp.block(prog.Telemetry); err != nil {
		return nil, err
	}
	if p.check, err = cp.block(prog.Checker); err != nil {
		return nil, err
	}

	cp.relocate()
	if err := p.computeResetSlots(); err != nil {
		return nil, err
	}
	p.markPrologues()
	return p, nil
}

// scanWidths gives every field of the program its static width: the
// width of each of its reads (Field) and writes (an assignment's, a
// register read's, an array element's, a table output's — its default's
// width — or a hit flag's), of a telemetry field's declaration and of a
// builtin's. A field they do not agree on is refused, naming it: its
// slot could not hold one width.
func (cp *comp) scanWidths() error {
	var err error
	declare := func(f pipeline.FieldRef, w int) {
		if was, seen := cp.widths[f]; !seen {
			cp.widths[f] = w
		} else if was != w && err == nil {
			err = fmt.Errorf("bytecode: field %s is read or written at widths %d and %d", f, was, w)
		}
	}
	note := func(e pipeline.Expr) {
		walkExpr(e, func(x pipeline.Expr) {
			if f, ok := x.(pipeline.Field); ok {
				declare(f.Ref, f.Width)
			}
		})
	}
	array := func(base string, capN, ew int) {
		declare(pipeline.ArrayCount(base), 8)
		for i := 0; i < capN; i++ {
			declare(pipeline.ArraySlot(base, i), ew)
		}
	}
	declare(pipeline.FieldHops, 8)
	for _, f := range cp.prog.Tele {
		if f.IsArray {
			array(f.Name, f.Cap, f.Width)
		} else {
			declare(pipeline.FieldRef(f.Name), f.Width)
		}
	}
	declare(pipeline.FieldSwitch, 32)
	declare(pipeline.FieldPktLen, 32)
	declare(pipeline.FieldLastHop, 1)
	declare(pipeline.FieldFirst, 1)
	for _, blk := range [][]pipeline.Op{cp.prog.Init, cp.prog.Telemetry, cp.prog.Checker} {
		pipeline.WalkOps(blk, func(op pipeline.Op) {
			switch op := op.(type) {
			case pipeline.AssignOp:
				note(op.Src)
				if op.Dst != pipeline.FieldReject {
					declare(op.Dst, op.DstWidth)
				}
			case pipeline.ApplyOp:
				for _, k := range op.Keys {
					note(k)
				}
				spec, _ := tableSpec(cp.prog, op.Table) // an undeclared table is emitApply's error
				if spec == nil {
					break
				}
				if len(spec.Default) != len(spec.Outputs) && err == nil {
					err = fmt.Errorf("bytecode: table %q has %d defaults for %d outputs", spec.Name, len(spec.Default), len(spec.Outputs))
					break
				}
				for i, o := range spec.Outputs {
					declare(o, spec.Default[i].W)
				}
				declare(pipeline.FieldRef(spec.Name+".$hit"), 1)
			case pipeline.RegReadOp:
				note(op.Index)
				declare(op.Dst, op.Width)
			case pipeline.RegWriteOp:
				note(op.Index)
				note(op.Src)
			case pipeline.IfOp:
				note(op.Cond)
			case pipeline.PushOp:
				note(op.Src)
				array(op.Base, op.Cap, op.ElemWidth)
			case pipeline.SetSlotOp:
				note(op.Index)
				note(op.Src)
				array(op.Base, op.Cap, op.ElemWidth)
			case pipeline.ReportOp:
				for _, a := range op.Args {
					note(a)
				}
			}
		})
	}
	return err
}

func walkExpr(e pipeline.Expr, visit func(pipeline.Expr)) {
	visit(e)
	switch e := e.(type) {
	case pipeline.Unary:
		walkExpr(e.X, visit)
	case pipeline.Bin:
		walkExpr(e.X, visit)
		walkExpr(e.Y, visit)
	case pipeline.Mux:
		walkExpr(e.Cond, visit)
		walkExpr(e.X, visit)
		walkExpr(e.Y, visit)
	}
}

// layout assigns the telemetry region (wire order, slot 0 = hop
// counter), the builtin metadata slots, array blocks, and header
// binding slots.
func (cp *comp) layout() error {
	p := cp.p

	// Telemetry region first, mirroring the sequential wire layout of
	// Program.EncodeTele.
	off := int32(0)
	addTele := func(slot int32, width int) {
		p.img.teleSteps = append(p.img.teleSteps, teleStep{slot: slot, width: int32(width), off: off, kind: stepShape(off, int32(width))})
		off += int32(width)
	}
	align := func() {
		if p.P.AlignedTele {
			off = (off + 7) &^ 7
		}
	}
	addTele(cp.intern(pipeline.FieldHops), 8)
	for _, f := range p.P.Tele {
		if f.IsArray {
			addTele(cp.intern(pipeline.ArrayCount(f.Name)), 8)
			start := int32(len(p.img.template))
			for i := 0; i < f.Cap; i++ {
				if s := cp.intern(pipeline.ArraySlot(f.Name, i)); s != start+int32(i) {
					return fmt.Errorf("bytecode: tele array %s slots not contiguous", f.Name)
				}
				addTele(start+int32(i), f.Width)
				align()
			}
			cp.arrays[f.Name] = arrayBlock{start, f.Cap}
			continue
		}
		addTele(cp.intern(pipeline.FieldRef(f.Name)), f.Width)
		align()
	}
	p.img.teleBytes = int(off+7) / 8
	p.img.nTele = len(p.img.template)

	// Builtin metadata slots (hops already sits in the tele region; the
	// reject flag is a bit of the context's mask, opReject's).
	p.img.slotSwitch = cp.intern(pipeline.FieldSwitch)
	p.img.slotPktLen = cp.intern(pipeline.FieldPktLen)
	p.img.slotLast = cp.intern(pipeline.FieldLastHop)
	p.img.slotFirst = cp.intern(pipeline.FieldFirst)

	// Non-telemetry arrays referenced by header-stack ops get
	// contiguous blocks too.
	caps := map[string]int{}
	for _, blk := range [][]pipeline.Op{p.P.Init, p.P.Telemetry, p.P.Checker} {
		pipeline.WalkOps(blk, func(op pipeline.Op) {
			switch op := op.(type) {
			case pipeline.PushOp:
				if op.Cap > caps[op.Base] {
					caps[op.Base] = op.Cap
				}
			case pipeline.SetSlotOp:
				if op.Cap > caps[op.Base] {
					caps[op.Base] = op.Cap
				}
			}
		})
	}
	bases := make([]string, 0, len(caps))
	for b := range caps {
		if _, done := cp.arrays[b]; !done {
			bases = append(bases, b)
		}
	}
	sort.Strings(bases)
	for _, b := range bases {
		cp.intern(pipeline.ArrayCount(b))
		start := int32(len(p.img.template))
		for i := 0; i < caps[b]; i++ {
			if s := cp.intern(pipeline.ArraySlot(b, i)); s != start+int32(i) {
				return fmt.Errorf("bytecode: array %s slots not contiguous", b)
			}
		}
		cp.arrays[b] = arrayBlock{start, caps[b]}
	}

	// Header bindings, sorted by path and deduplicated, so a program's
	// bind pairs come in one order however its map iterates.
	seen := map[string]bool{}
	for _, path := range p.P.HeaderBindings {
		if !seen[path] {
			seen[path] = true
			p.img.bindings = append(p.img.bindings, path)
		}
	}
	sort.Strings(p.img.bindings)
	p.img.bindSlots = make([]int32, len(p.img.bindings))
	for i, path := range p.img.bindings {
		p.img.bindSlots[i] = cp.intern(pipeline.FieldRef(path))
	}
	return nil
}

// intern assigns (or returns) the slot of a field, at its static width;
// its template bits are zero, what an unwritten field reads.
func (cp *comp) intern(f pipeline.FieldRef) int32 {
	p := cp.p
	if s, ok := p.slots[f]; ok {
		return s
	}
	s := int32(len(p.img.template))
	p.slots[f] = s
	p.img.template = append(p.img.template, 0)
	p.img.widths = append(p.img.widths, uint8(cp.widths[f]))
	return s
}

// constSlot materializes a constant into a read-only template slot.
func (cp *comp) constSlot(v pipeline.Value) int32 {
	if s, ok := cp.consts[v]; ok {
		return s
	}
	s := int32(len(cp.p.img.template))
	cp.p.img.template = append(cp.p.img.template, v.V)
	cp.p.img.widths = append(cp.p.img.widths, uint8(v.W))
	cp.consts[v] = s
	return s
}

func (cp *comp) temp() int32 {
	t := cp.tempNext
	cp.tempNext++
	if cp.tempNext > cp.tempMax {
		cp.tempMax = cp.tempNext
	}
	return tempBase + t
}

// expr emits code computing e and returns the slot holding the result
// and its static width: a field's, a constant's, a unary or arithmetic
// op's left operand's, 1 for a comparison or a logical op, and a mux's
// arms', which must agree. Fields and constants cost zero instructions:
// they are slot references into the templated PHV.
func (cp *comp) expr(e pipeline.Expr, code *[]Instr) (int32, int, error) {
	switch e := e.(type) {
	case pipeline.Field:
		return cp.intern(e.Ref), cp.widths[e.Ref], nil

	case pipeline.Const:
		return cp.constSlot(e.Val), e.Val.W, nil

	case pipeline.Unary:
		x, w, err := cp.expr(e.X, code)
		if err != nil {
			return 0, 0, err
		}
		var op OpKind
		switch e.Op {
		case pipeline.OpNot:
			op, w = opNot, 1
		case pipeline.OpBNot:
			op = opBNot
		case pipeline.OpNeg:
			op = opNeg
		case pipeline.OpAbs:
			op = opAbs
		default:
			return 0, 0, fmt.Errorf("bytecode: bad unary opcode %s", e.Op)
		}
		t := cp.temp()
		*code = append(*code, Instr{Op: op, A: t, B: x, M: widthMask(w)})
		return t, w, nil

	case pipeline.Bin:
		if base, needle, ok := cp.membership(e); ok {
			x := cp.intern(needle.Ref)
			t := cp.temp()
			site := cp.arraySite(base, cp.arrays[base].capN, cp.widths[pipeline.ArraySlot(base, 0)])
			*code = append(*code, Instr{Op: opIn, A: t, B: site, C: x, M: 1})
			return t, 1, nil
		}
		x, w, err := cp.expr(e.X, code)
		if err != nil {
			return 0, 0, err
		}
		y, _, err := cp.expr(e.Y, code)
		if err != nil {
			return 0, 0, err
		}
		op, ok := binOp[e.Op]
		if !ok {
			return 0, 0, fmt.Errorf("bytecode: bad binary opcode %s", e.Op)
		}
		if op >= opEq || op == opBoolAnd || op == opBoolOr {
			w = 1
		}
		t := cp.temp()
		*code = append(*code, Instr{Op: op, A: t, B: x, C: y, M: widthMask(w)})
		return t, w, nil

	case pipeline.Mux:
		cond, _, err := cp.expr(e.Cond, code)
		if err != nil {
			return 0, 0, err
		}
		x, w, err := cp.expr(e.X, code)
		if err != nil {
			return 0, 0, err
		}
		y, wy, err := cp.expr(e.Y, code)
		if err != nil {
			return 0, 0, err
		}
		if wy != w {
			return 0, 0, fmt.Errorf("bytecode: mux %s has arms of widths %d and %d", e, w, wy)
		}
		t := cp.temp()
		*code = append(*code, Instr{Op: opSelect, A: t, B: cond, C: x, D: y, M: widthMask(w)})
		return t, w, nil
	}
	return 0, 0, fmt.Errorf("bytecode: unknown expr %T", e)
}

// membership recognises exactly the expansion compiler.compileIn emits
// for `needle in arr` over an array of capacity n, the OR chain
// (0 < arr.$count && arr.0 == needle) || … || (n-1 < arr.$count &&
// arr.(n-1) == needle), nested to the left, which opIn evaluates in one
// dispatch: the same terms over the same contiguous slots, with the count
// clamped to n as the unrolled form's indices are.
func (cp *comp) membership(e pipeline.Bin) (base string, needle pipeline.Field, ok bool) {
	var terms []pipeline.Expr // last term first
	x := pipeline.Expr(e)
	for {
		b, isBin := x.(pipeline.Bin)
		if !isBin || b.Op != pipeline.OpLOr {
			break
		}
		terms, x = append(terms, b.Y), b.X
	}
	terms = append(terms, x)
	t0, _ := x.(pipeline.Bin)
	lt, _ := t0.X.(pipeline.Bin)
	eq, _ := t0.Y.(pipeline.Bin)
	count, _ := lt.Y.(pipeline.Field)
	slot, _ := eq.X.(pipeline.Field)
	needle, isField := eq.Y.(pipeline.Field)
	base = strings.TrimSuffix(string(count.Ref), ".$count")
	if !isField || count.Ref != pipeline.ArrayCount(base) || cp.arrays[base].capN != len(terms) {
		return "", needle, false
	}
	for i := range terms {
		want := pipeline.Bin{Op: pipeline.OpLAnd,
			X: pipeline.Bin{Op: pipeline.OpLt, X: pipeline.C(8, uint64(i)), Y: count},
			Y: pipeline.Bin{Op: pipeline.OpEq, X: pipeline.Field{Ref: pipeline.ArraySlot(base, i), Width: slot.Width}, Y: needle}}
		if terms[len(terms)-1-i] != pipeline.Expr(want) {
			return "", needle, false
		}
	}
	return base, needle, true
}

// binOp maps IR binary opcodes to VM opcodes. Logical and/or compile
// to their eager boolean forms (sound on pure, total expressions).
var binOp = map[pipeline.OpCode]OpKind{
	pipeline.OpAdd: opAdd, pipeline.OpSub: opSub, pipeline.OpMul: opMul,
	pipeline.OpDiv: opDiv, pipeline.OpMod: opMod,
	pipeline.OpBAnd: opBAnd, pipeline.OpBOr: opBOr, pipeline.OpBXor: opBXor,
	pipeline.OpShl: opShl, pipeline.OpShr: opShr,
	pipeline.OpEq: opEq, pipeline.OpNe: opNe,
	pipeline.OpLt: opLt, pipeline.OpLe: opLe, pipeline.OpGt: opGt, pipeline.OpGe: opGe,
	pipeline.OpLAnd: opBoolAnd, pipeline.OpLOr: opBoolOr,
	pipeline.OpMax: opMax, pipeline.OpMin: opMin,
}

// block compiles a list of IR ops into straight-line bytecode with
// conditional jumps for IfOp.
func (cp *comp) block(ops []pipeline.Op) ([]Instr, error) {
	var code []Instr
	if err := cp.emitOps(ops, &code); err != nil {
		return nil, err
	}
	return code, nil
}

func (cp *comp) emitOps(ops []pipeline.Op, code *[]Instr) error {
	p := cp.p
	var prev pipeline.Op
	for _, op := range ops {
		// Temps are statement-scoped: nothing outlives the IR op that
		// computed it, so every op reuses the same temp slots.
		cp.tempNext = 0
		switch op := op.(type) {
		case pipeline.AssignOp:
			n := len(*code)
			src, _, err := cp.expr(op.Src, code)
			if err != nil {
				return err
			}
			if op.Dst == pipeline.FieldReject { // LinkSet fills in the member
				*code = append(*code, Instr{Op: opReject, B: src, M: widthMask(op.DstWidth)})
				break
			}
			in := Instr{Op: opAssign, A: cp.intern(op.Dst), B: src, M: widthMask(op.DstWidth)}
			if last := len(*code) - 1; src >= tempBase && (*code)[last].Op == opAdd && (*code)[last].A == src && (*code)[last].M&in.M == in.M {
				// x += k: the sum's temp has no other reader (emitBranch's
				// idiom), and the sum is no narrower than x, so x's mask is
				// the pair's.
				in.Op, in.B, in.C = opAddAssign, (*code)[last].B, (*code)[last].C
				*code = (*code)[:last]
			} else if _, after := prev.(pipeline.ApplyOp); after && len(*code) == n {
				// A copy of the apply just emitted — no jump lands between
				// the two, both being ops of this list — of its one output or
				// its hit: one dispatch for both IR ops.
				a := (*code)[n-1].A
				if site := &p.img.applies[a]; src == site.hit || len(site.outs) == 1 && src == site.outs[0] {
					in = Instr{Op: opApplyAssign, A: a, B: in.A, C: src, M: in.M}
					*code = (*code)[:n-1]
				}
			}
			*code = append(*code, in)

		case pipeline.ApplyOp:
			if err := cp.emitApply(op, code); err != nil {
				return err
			}

		case pipeline.RegReadOp:
			if err := regDeclared(p.P, op.Reg); err != nil {
				return err
			}
			idx, _, err := cp.expr(op.Index, code)
			if err != nil {
				return err
			}
			site := int32(len(p.img.regs))
			p.img.regs = append(p.img.regs, regSite{name: op.Reg})
			*code = append(*code, Instr{Op: opRegRead, A: cp.intern(op.Dst), B: site, C: idx, M: widthMask(op.Width)})

		case pipeline.RegWriteOp:
			if err := regDeclared(p.P, op.Reg); err != nil {
				return err
			}
			idx, _, err := cp.expr(op.Index, code)
			if err != nil {
				return err
			}
			src, _, err := cp.expr(op.Src, code)
			if err != nil {
				return err
			}
			site := int32(len(p.img.regs))
			p.img.regs = append(p.img.regs, regSite{name: op.Reg})
			*code = append(*code, Instr{Op: opRegWrite, A: site, B: idx, C: src})

		case pipeline.IfOp:
			cond, _, err := cp.expr(op.Cond, code)
			if err != nil {
				return err
			}
			jz := emitBranch(code, cond)
			if err := cp.emitOps(op.Then, code); err != nil {
				return err
			}
			if len(op.Else) > 0 {
				jmp := len(*code)
				*code = append(*code, Instr{Op: opJmp})
				setBranchTarget(code, jz, len(*code))
				if err := cp.emitOps(op.Else, code); err != nil {
					return err
				}
				(*code)[jmp].A = int32(len(*code))
			} else {
				setBranchTarget(code, jz, len(*code))
			}

		case pipeline.PushOp:
			src, _, err := cp.expr(op.Src, code)
			if err != nil {
				return err
			}
			*code = append(*code, Instr{Op: opPush, A: cp.arraySite(op.Base, op.Cap, op.ElemWidth), B: src})

		case pipeline.SetSlotOp:
			idx, _, err := cp.expr(op.Index, code)
			if err != nil {
				return err
			}
			src, _, err := cp.expr(op.Src, code)
			if err != nil {
				return err
			}
			*code = append(*code, Instr{Op: opSetSlot, A: cp.arraySite(op.Base, op.Cap, op.ElemWidth), B: idx, C: src})

		case pipeline.ReportOp:
			args, argW := make([]int32, len(op.Args)), make([]uint8, len(op.Args))
			for i, a := range op.Args {
				s, w, err := cp.expr(a, code)
				if err != nil {
					return err
				}
				args[i], argW[i] = s, uint8(w)
			}
			site := int32(len(p.img.reports))
			p.img.reports = append(p.img.reports, reportSite{args: args, argW: argW})
			*code = append(*code, Instr{Op: opReport, A: site})

		default:
			return fmt.Errorf("bytecode: unknown op %T", op)
		}
		prev = op
	}
	return nil
}

// arraySite adds a side-table entry for array base and returns its index.
func (cp *comp) arraySite(base string, capN, ew int) int32 {
	site := int32(len(cp.p.img.arrays))
	cp.p.img.arrays = append(cp.p.img.arrays, arraySite{
		start: cp.arrays[base].start,
		cnt:   cp.intern(pipeline.ArrayCount(base)),
		capN:  int32(capN),
		em:    widthMask(ew),
	})
	return site
}

func (cp *comp) emitApply(op pipeline.ApplyOp, code *[]Instr) error {
	p := cp.p
	spec, err := tableSpec(p.P, op.Table)
	if err != nil {
		return err
	}
	if len(op.Keys) != len(spec.Keys) {
		return fmt.Errorf("pipeline: apply of table %q with %d keys, want its %d columns", op.Table, len(op.Keys), len(spec.Keys))
	}
	layout, err := pipeline.KeyLayout(spec.Keys)
	if err != nil {
		return fmt.Errorf("pipeline: table %q: %w", op.Table, err)
	}
	keys := make([]applyKey, len(op.Keys))
	for i, k := range op.Keys {
		s, _, err := cp.expr(k, code)
		if err != nil {
			return err
		}
		keys[i] = applyKey{mask: layout[i].Mask, scale: 1 << layout[i].Shift, slot: s, word: layout[i].Word}
	}
	outs := make([]int32, len(spec.Outputs))
	for i, o := range spec.Outputs {
		outs[i] = cp.intern(o)
	}
	site := applySite{
		name: op.Table,
		spec: spec.Keys,
		keys: keys,
		// Every corpus key but Aether's filtering_actions fills one
		// word; a branch per key on its word read slower (E49).
		oneWord: !slices.ContainsFunc(keys, func(k applyKey) bool { return k.word != 0 }),
		outs:    outs,
		hit:     cp.intern(pipeline.FieldRef(spec.Name + ".$hit")),
	}
	*code = append(*code, Instr{Op: opApply, A: int32(len(p.img.applies))})
	p.img.applies = append(p.img.applies, site)
	return nil
}

func tableSpec(prog *pipeline.Program, name string) (*pipeline.TableSpec, error) {
	for i := range prog.Tables {
		if prog.Tables[i].Name == name {
			return &prog.Tables[i], nil
		}
	}
	return nil, fmt.Errorf("pipeline: apply of undeclared table %q", name)
}

func regDeclared(prog *pipeline.Program, name string) error {
	for i := range prog.Registers {
		if prog.Registers[i].Name == name {
			return nil
		}
	}
	return fmt.Errorf("pipeline: access to undeclared register %q", name)
}

// emitBranch emits the jump-if-false for an IfOp condition, fusing the
// condition's final comparison / not / bool-combine instruction into
// the branch when the condition slot is a temp produced by the
// immediately preceding instruction (it can have no other reader: expr
// temps are single-use by construction). Returns the branch's index for
// setBranchTarget. The fused instruction counts one OpsExecuted at run
// time, exactly like the opJz it replaces; the popped comparison was an
// uncounted expression instruction.
func emitBranch(code *[]Instr, cond int32) int {
	if n := len(*code); n > 0 && cond >= tempBase {
		last := (*code)[n-1]
		if last.A == cond {
			switch last.Op {
			case opEq, opNe, opLt, opLe, opGt, opGe:
				*code = append((*code)[:n-1],
					Instr{Op: opJzEq + (last.Op - opEq), B: last.B, C: last.C})
				return n - 1
			case opBoolAnd:
				*code = append((*code)[:n-1], Instr{Op: opJzAnd, B: last.B, C: last.C})
				return n - 1
			case opBoolOr:
				*code = append((*code)[:n-1], Instr{Op: opJzOr, B: last.B, C: last.C})
				return n - 1
			case opNot:
				*code = append((*code)[:n-1], Instr{Op: opJnz, A: last.B})
				return n - 1
			}
		}
	}
	*code = append(*code, Instr{Op: opJz, A: cond})
	return len(*code) - 1
}

// setBranchTarget patches the jump target of a branch emitted by
// emitBranch: fused comparisons carry it in D, opJz/opJnz in B.
func setBranchTarget(code *[]Instr, idx, target int) {
	in := &(*code)[idx]
	if in.Op >= opJzEq && in.Op <= opJzOr {
		in.D = int32(target)
	} else {
		in.B = int32(target)
	}
}

// relocate rebases virtual temp slots past the last field/const slot
// and finalizes the PHV size. Jump targets, side-table indices, and
// widths all sit far below tempBase, so any operand at or above it is
// a temp by construction.
func (cp *comp) relocate() {
	p := cp.p
	base := int32(len(p.img.template))
	fix := func(v int32) int32 {
		if v >= tempBase {
			return base + (v - tempBase)
		}
		return v
	}
	for _, code := range p.blocks() {
		for i := range code {
			code[i].A = fix(code[i].A)
			code[i].B = fix(code[i].B)
			code[i].C = fix(code[i].C)
			code[i].D = fix(code[i].D)
		}
	}
	for i := range p.img.applies {
		for j := range p.img.applies[i].keys {
			p.img.applies[i].keys[j].slot = fix(p.img.applies[i].keys[j].slot)
		}
	}
	for i := range p.img.reports {
		for j := range p.img.reports[i].args {
			p.img.reports[i].args[j] = fix(p.img.reports[i].args[j])
		}
	}
	p.img.nSlots = len(p.img.template) + int(cp.tempMax)
	// Temps join the template as zeros, of no static width, so
	// whole-template copies cover the full PHV.
	p.img.template = append(p.img.template, make([]uint64, cp.tempMax)...)
	p.img.widths = append(p.img.widths, make([]uint8, cp.tempMax)...)
	p.tempStart = base
}

func (p *Prog) blocks() [3][]Instr { return [3][]Instr{p.init, p.tele, p.check} }

// markPrologues marks each block's prologue, the leading hop-count bumps and
// keyless applies (§4.1's scalar-control loads) LinkSet lifts to the head of
// the pass: one joins only if no block that can run before it in a pass
// (init before telemetry, both before the checker) reads or writes a slot
// it writes — the hop slot, or outputs and hit, never an array's.
func (p *Prog) markPrologues() {
	hop, touched := p.slots[pipeline.FieldHops], map[int32]bool{}
	for bi, code := range p.blocks() {
		for _, in := range code {
			var w []int32
			if in.Op == opAddAssign && in.A == hop && in.B == hop && in.M == 0xff && p.img.template[in.C] == 1 {
				w = []int32{hop}
			} else if in.Op == opApply && len(p.img.applies[in.A].keys) == 0 {
				w = append(slices.Clip(p.img.applies[in.A].outs), p.img.applies[in.A].hit)
			}
			if w == nil || slices.ContainsFunc(w, func(s int32) bool { return touched[s] }) {
				break
			}
			p.pro[bi]++
		}
		for _, in := range code {
			for f, v := range in.fields() {
				slots := []int32{*v}
				switch shapes[in.Op][f] {
				case opdApply:
					a := &p.img.applies[*v]
					slots = append(append(a.keySlots(), a.outs...), a.hit)
				case opdReport:
					slots = p.img.reports[*v].args
				case opdNone, opdJump, opdMember, opdReg, opdArray:
					continue
				}
				for _, s := range slots {
					touched[s] = true
				}
			}
		}
	}
}

// computeResetSlots decides which scratch slots BeginHop must restore
// to the template (resetSlots; LinkSet lays every member's out in one
// region). Telemetry slots are resident by design, constant and
// read-only field slots can never diverge from the template, and
// expression temporaries are statement-scoped (every read is dominated
// by a write in the same IR op), and a bound header is packet input
// (Stage), refused as a destination, so the candidates are only the
// slots the code can dirty: instruction destinations.
//
// A candidate is then dropped when every block that reads it is
// guaranteed to overwrite it first — a stale value nothing can observe
// needs no restore. A slot stays in the reset set iff some block reads
// it before writing it, judged block by block, so the set is sound for
// any subset of blocks a hop runs (netsim runs init alone at ingress,
// a NIC runs the checker alone). Array regions are force-kept: their
// element stores index dynamically, which the linear read/write scan does
// not track.
func (p *Prog) computeResetSlots() error {
	scratch := func(si int32) bool {
		return si >= int32(p.img.nTele) && si < p.tempStart
	}
	writable := make(map[int32]bool)
	add := func(si int32) {
		if scratch(si) {
			writable[si] = true
		}
	}
	need := map[int32]bool{}
	for _, code := range p.blocks() {
		for i := range code {
			for f, v := range code[i].fields() {
				switch shapes[code[i].Op][f] {
				case opdDst: // expression ops write only statement-scoped temps
					add(*v)
				case opdApply:
					site := &p.img.applies[*v]
					for _, o := range site.outs {
						add(o)
					}
					add(site.hit)
				case opdArray:
					site := &p.img.arrays[*v]
					for s := site.start; s < site.start+site.capN; s++ {
						add(s)
						need[s] = true
					}
					add(site.cnt)
					need[site.cnt] = true
				}
			}
		}
		for si := range p.readBeforeWrite(code, scratch) {
			need[si] = true
		}
	}
	for i, si := range p.img.bindSlots {
		if writable[si] {
			return fmt.Errorf("bytecode: the program writes header %s, which is packet input", p.img.bindings[i])
		}
	}

	for si := int32(0); si < int32(p.img.nTele); si++ {
		p.img.dirtySlots = append(p.img.dirtySlots, si)
	}
	for si := range writable {
		p.img.dirtySlots = append(p.img.dirtySlots, si)
		if need[si] {
			p.resetSlots = append(p.resetSlots, si)
		}
	}
	for _, si := range append([]int32{p.img.slotSwitch, p.img.slotPktLen, p.img.slotLast, p.img.slotFirst}, p.img.bindSlots...) {
		if !writable[si] {
			p.img.dirtySlots = append(p.img.dirtySlots, si)
		}
	}
	for si := p.tempStart; si < int32(p.img.nSlots); si++ {
		p.img.dirtySlots = append(p.img.dirtySlots, si)
	}
	slices.Sort(p.img.dirtySlots)
	return nil
}

// readBeforeWrite scans one block for the scratch slots it may read
// before writing. The structured IR compiles to forward jumps only, so
// an instruction is unconditionally executed iff no earlier jump can
// land past it; only unconditional writes count as definite, while
// reads count wherever they appear. The analysis is conservative:
// over-approximating the result merely keeps a slot in the reset set.
func (p *Prog) readBeforeWrite(code []Instr, scratch func(int32) bool) map[int32]bool {
	rbw := make(map[int32]bool)
	mustW := make(map[int32]bool)
	condUntil := 0
	read := func(si int32) {
		if scratch(si) && !mustW[si] {
			rbw[si] = true
		}
	}
	for i := range code {
		uncond := i >= condUntil
		dst := int32(-1)
		for f, v := range code[i].fields() {
			switch shapes[code[i].Op][f] {
			case opdSrc:
				read(*v)
			case opdDst:
				dst = *v
			case opdJump:
				condUntil = max(condUntil, int(*v))
			case opdApply:
				site := &p.img.applies[*v]
				for _, k := range site.keys {
					read(k.slot)
				}
				if uncond {
					for _, o := range site.outs {
						mustW[o] = true
					}
					mustW[site.hit] = true
				}
			case opdArray:
				read(p.img.arrays[*v].cnt)
			case opdReport:
				for _, a := range p.img.reports[*v].args {
					read(a)
				}
			}
		}
		if dst >= 0 && uncond {
			mustW[dst] = true
		}
	}
	return rbw
}

// ---------------------------------------------------------------------------
// Introspection

// DirtySlots returns every PHV slot index some execution can write —
// the largest set of slots a reused context can carry stale values in
// (shared backing; callers must not mutate). The aliasing suite
// poisons exactly these between packets; constants and read-only field
// slots stay pristine by construction, which is what makes skipping
// their restore sound.
func (p *image) DirtySlots() []int32 { return p.dirtySlots }
