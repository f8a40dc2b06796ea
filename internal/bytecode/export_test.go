package bytecode

import "repro/internal/pipeline"

// The bit-serial reference codec of codec_test.go, for the external
// tests that need the compiler to build their layouts.
var (
	RefPutBits = refPutBits
	RefGetBits = refGetBits
)

// opNames names every opcode up to opReject, the last, as shapes does. An
// opcode added without a name leaves an empty entry, which
// TestEveryOpcodeReached reports; one added after opReject must move the
// bound here and in shapes.
var opNames = [opReject + 1]string{
	opNop: "nop", opAssign: "assign", opAddAssign: "addassign", opJmp: "jmp", opJz: "jz",
	opNot: "not", opBNot: "bnot", opNeg: "neg", opAbs: "abs",
	opBoolAnd: "booland", opBoolOr: "boolor", opSelect: "select",
	opAdd: "add", opSub: "sub", opMul: "mul", opDiv: "div", opMod: "mod",
	opBAnd: "band", opBOr: "bor", opBXor: "bxor", opShl: "shl", opShr: "shr", opMax: "max", opMin: "min",
	opEq: "eq", opNe: "ne", opLt: "lt", opLe: "le", opGt: "gt", opGe: "ge",
	opJzEq: "jzeq", opJzNe: "jzne", opJzLt: "jzlt", opJzLe: "jzle", opJzGt: "jzgt", opJzGe: "jzge",
	opJzAnd: "jzand", opJzOr: "jzor", opJnz: "jnz",
	opApply: "apply", opApplyAssign: "applyassign", opIn: "in",
	opRegRead: "regread", opRegWrite: "regwrite", opPush: "push", opSetSlot: "setslot", opReport: "report",
	opReject: "reject",
}

// Opcodes names every opcode Compile can emit: all of them but nop.
func Opcodes() []string { return opNames[opNop+1:] }

// OpcodeCounts counts p's instructions by opcode name.
func OpcodeCounts(p *Prog) map[string]int {
	n := map[string]int{}
	for _, code := range p.blocks() {
		for _, in := range code {
			n[opNames[in.Op]]++
		}
	}
	return n
}

// PrologueLens is p's prologue length per block: init, telemetry, checker.
func PrologueLens(p *Prog) [3]int { return p.pro }

// PassPrologue counts the hop-count bumps and the applies pass b of s runs
// ahead of its code.
func PassPrologue(s *Set, b Blocks) (hops, applies int) {
	return len(s.pro[b].hops), len(s.pro[b].applies)
}

// SlotOf resolves a field of the k-th member's program to its slot
// in the Set's PHV, if the program references it anywhere.
func (s *Set) SlotOf(k int, f pipeline.FieldRef) (int32, bool) {
	m := &s.members[k]
	sl, ok := m.Prog.slots[f]
	return m.slot[sl], ok
}

// CheckLayout and LayoutMutations are layout_test.go's, for the external
// tests that link the corpus and random sets.
var (
	CheckLayout     = checkLayout
	LayoutMutations = layoutMutations
)

// ResetSlots is the length of s's BeginHop reset run and of the telemetry
// region BeginTrace resets, in slots.
func ResetSlots(s *Set) (hop, trace int) { return int(s.reset[1] - s.reset[0]), s.nTele }
