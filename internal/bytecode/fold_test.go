package bytecode

import (
	"fmt"
	"maps"

	"repro/internal/pipeline"
)

// FoldCount is foldCount, for the external test that builds the campus
// rows.
var FoldCount = foldCount

// foldCount is a conservative constant-fold walk over pass b of s on row,
// at switch switchID: what specialising the pass to the row's scalar
// controls (ROADMAP item 8) could take out of the dispatch stream. Known
// at the head of the body: the template values of slots nothing writes
// (constants, unbound fields), switch_id, and what the pass's lifted
// scalar loads write. Walking the body in order, an instruction folds when
// it is a conditional jump on known operands, a keyless apply, or a copy
// or ALU op on known operands into a scratch slot (each evaluated by the
// VM itself on a scratch context); any other write forgets its slots, and
// a jump target forgets all the body writes. fold counts the folding
// instructions still reachable once the known jumps are taken, dead the
// instructions the known jumps leave unreachable. Jumps only go forward,
// so each instruction runs at most once a pass: fold bounds the
// dispatches a pass would save.
func foldCount(s *Set, b Blocks, row []*pipeline.State, switchID uint32) (fold, dead int, err error) {
	code, pro := s.code[b], &s.pro[b]
	c := s.NewCtx()
	mark := int32(len(c.PHV))
	c.PHV = append(c.PHV, 0)
	c.bind = s.Bind(row)
	for _, a := range pro.applies {
		s.runApply(c, a)
	}
	invariant := map[int32]uint64{}
	dirty := map[int32]bool{}
	for _, sl := range s.dirtySlots {
		dirty[sl] = true
	}
	for sl, v := range s.template {
		if !dirty[int32(sl)] {
			invariant[int32(sl)] = v
		}
	}
	invariant[s.slotSwitch] = uint64(switchID)
	written, targets := map[int32]bool{}, map[int]bool{}
	for pc := range code {
		if t := jumpTarget(&code[pc]); t != nil {
			if int(*t) <= pc {
				return 0, 0, fmt.Errorf("pc %d jumps back to %d", pc, *t)
			}
			targets[int(*t)] = true
		}
		_, w := access(&s.image, code[pc])
		for _, sl := range w {
			written[sl] = true
		}
	}
	known := maps.Clone(invariant)
	for _, sl := range pro.slots {
		known[sl] = c.PHV[sl]
		if !written[sl] {
			invariant[sl] = c.PHV[sl]
		}
	}
	folds, next := make([]bool, len(code)), map[int]int{}
	for pc, in := range code {
		if targets[pc] {
			known = maps.Clone(invariant)
		}
		r, w := access(&s.image, in)
		all := true
		for _, sl := range r {
			v, ok := known[sl]
			all = all && ok
			if ok {
				c.PHV[sl] = v
			}
		}
		jump := jumpTarget(&in)
		keyless := (in.Op == opApply || in.Op == opApplyAssign) && len(s.applies[in.A].keys) == 0
		pure := in.Op == opAssign || in.Op == opAddAssign || in.Op >= opNot && in.Op <= opGe
		switch {
		case jump != nil && in.Op != opJmp && all:
			probe := []Instr{in, {Op: opNot, A: mark, B: mark}}
			*jumpTarget(&probe[0]) = 2
			c.PHV[mark] = 0
			s.run(c, probe)
			folds[pc], next[pc] = true, int(*jump)
			if c.PHV[mark] != 0 {
				next[pc] = pc + 1
			}
		case keyless || pure && all:
			s.run(c, []Instr{in})
			for _, sl := range w {
				known[sl] = c.PHV[sl]
			}
			switch in.Op {
			case opApply:
				folds[pc] = true
			case opApplyAssign:
				folds[pc] = in.B >= int32(s.nTele)
			default:
				folds[pc] = in.A >= int32(s.nTele)
			}
		default:
			for _, sl := range w {
				delete(known, sl)
			}
		}
	}
	reach := make([]bool, len(code)+1)
	reach[0] = true
	for pc, in := range code {
		if !reach[pc] {
			dead++
			continue
		}
		if folds[pc] {
			fold++
		}
		if n, ok := next[pc]; ok {
			reach[n] = true
			continue
		}
		if t := jumpTarget(&in); t != nil {
			reach[*t] = true
			if in.Op == opJmp {
				continue
			}
		}
		reach[pc+1] = true
	}
	return fold, dead, nil
}
