package bytecode

import (
	"fmt"
	"slices"
)

// checkLayout is a static check of a linked Set that shares no code with
// LinkSet: from each member's Prog and the Set's slot maps it rederives
// what the link must have produced and reports the first thing that is
// not so.
//
//   - The reset is one run, lying past the telemetry, the temporaries and
//     the builtins, and holding exactly the members' reset slots.
//   - Every member's reset slot maps into that run.
//   - No two members' private slots — telemetry and scratch — alias, and
//     none aliases a shared slot (a builtin or a temporary).
//   - Every jump of every Blocks code array lands inside the block it was
//     compiled in, at its place in the member-after-member layout.
func checkLayout(s *Set) error {
	const shared = -2
	owner := make([]int, s.nSlots) // member owning a slot, -1 free
	for i := range owner {
		owner[i] = -1
	}
	claim := func(k int, set int32, what string) error {
		if set < 0 || int(set) >= len(owner) {
			return fmt.Errorf("member %d: %s slot %d outside the PHV", k, what, set)
		}
		if owner[set] != -1 {
			return fmt.Errorf("member %d: %s slot %d already belongs to %d", k, what, set, owner[set])
		}
		owner[set] = k
		return nil
	}
	builtins := []int32{s.slotSwitch, s.slotPktLen, s.slotLast, s.slotFirst}
	for _, b := range builtins {
		owner[b] = shared
	}
	lo, hi := s.reset[0], s.reset[1]
	nReset := 0
	for k, m := range s.members {
		p := m.Prog
		for sl := p.tempStart; sl < int32(p.img.nSlots); sl++ {
			if t := m.slot[sl]; t < int32(s.nTele) || slices.Contains(builtins, t) {
				return fmt.Errorf("member %d: temporary %d at slot %d, not in the temporaries", k, sl, t)
			}
			owner[m.slot[sl]] = shared
		}
		nReset += len(p.resetSlots)
	}
	if lo < 0 || lo > hi || int(hi) > len(owner) || int(hi-lo) != nReset {
		return fmt.Errorf("reset run [%d, %d) for %d reset slots in %d", lo, hi, nReset, len(owner))
	}
	for sl := lo; sl < hi; sl++ {
		if owner[sl] != -1 || sl < int32(s.nTele) {
			return fmt.Errorf("reset run [%d, %d) covers telemetry, a builtin or a temporary at %d", lo, hi, sl)
		}
	}
	for k, m := range s.members {
		p := m.Prog
		pb := []int32{p.img.slotSwitch, p.img.slotPktLen, p.img.slotLast, p.img.slotFirst}
		for sl := int32(0); sl < p.tempStart; sl++ {
			t := m.slot[sl]
			if i := slices.Index(pb, sl); i >= 0 {
				if t != builtins[i] {
					return fmt.Errorf("member %d: builtin %d at slot %d, want %d", k, sl, t, builtins[i])
				}
				continue
			}
			if tele := sl < int32(p.img.nTele); tele != (t < int32(s.nTele)) {
				return fmt.Errorf("member %d: slot %d (telemetry %v) placed at %d", k, sl, tele, t)
			}
			if err := claim(k, t, "private"); err != nil {
				return err
			}
			if inRun := t >= lo && t < hi; inRun != slices.Contains(p.resetSlots, sl) {
				return fmt.Errorf("member %d: slot %d at %d, in the reset run %v, a reset slot %v", k, sl, t, inRun, !inRun)
			}
		}
	}

	for b, code := range s.code {
		off := 0
		for k, m := range s.members {
			p := m.Prog
			for bi, blk := range p.blocks() {
				in := Blocks(b)&(1<<bi) != 0 || bi == 2 && m.CheckEveryHop && Blocks(b)&BlockTelemetry != 0
				if !in {
					continue
				}
				if off+len(blk) > len(code) {
					return fmt.Errorf("blocks %b: member %d block %d runs past the code", b, k, bi)
				}
				for pc := off; pc < off+len(blk); pc++ {
					if t := jumpTarget(&code[pc]); t != nil && (int(*t) < off || int(*t) > off+len(blk)) {
						return fmt.Errorf("blocks %b: member %d block %d pc %d jumps to %d, outside [%d, %d]", b, k, bi, pc, *t, off, off+len(blk))
					}
				}
				off += len(blk)
			}
		}
		if off != len(code) {
			return fmt.Errorf("blocks %b: %d instructions, the members have %d", b, len(code), off)
		}
	}
	return nil
}

// jumpTarget points at an instruction's jump target, nil if it has none.
func jumpTarget(in *Instr) *int32 {
	switch {
	case in.Op == opJmp:
		return &in.A
	case in.Op == opJz || in.Op == opJnz:
		return &in.B
	case in.Op >= opJzEq && in.Op <= opJzOr:
		return &in.D
	}
	return nil
}

// layoutMutations are three linker bugs, each applied to a linked Set in
// place; one reports false when the Set gives it nothing to break.
var layoutMutations = map[string]func(*Set) bool{
	// A reset slot placed outside the region: BeginHop never restores it.
	"reset slot outside the run": func(s *Set) bool {
		for _, m := range s.members {
			if len(m.Prog.resetSlots) > 0 {
				sl := m.Prog.resetSlots[0]
				m.slot[sl] = int32(len(s.template))
				s.template = append(s.template, m.Prog.img.template[sl])
				s.nSlots++
				return true
			}
		}
		return false
	},
	// The last member's checker jumps left where its Prog had them.
	"jump left unrebased": func(s *Set) bool {
		code := s.code[BlockInit|BlockTelemetry|BlockChecker]
		last := s.members[len(s.members)-1].Prog
		off, moved := len(code)-len(last.check), false
		for pc := off; pc < len(code) && off > 0; pc++ {
			if t := jumpTarget(&code[pc]); t != nil {
				*t, moved = *t-int32(off), true
			}
		}
		return moved
	},
	// The second member's reject flag is the first's.
	"scratch slot shared between members": func(s *Set) bool {
		if len(s.members) < 2 {
			return false
		}
		a, b := s.members[0], s.members[1]
		b.slot[b.Prog.slotReject] = a.slot[a.Prog.slotReject]
		return true
	},
}
