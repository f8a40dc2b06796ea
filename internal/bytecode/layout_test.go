package bytecode

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/pipeline"
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
//   - Every Blocks code array and prologue hold, member after member, each
//     block the pass runs: its prologue entries in the pass's hop and apply
//     lists, its body in the code, relocated.
//   - Every prologue entry is a hop-count bump or a keyless apply, and no
//     block of its member that runs before it in the pass reads or writes
//     a slot it writes (checkLifted).
//   - Every jump lands inside the body of the block it was compiled in.
//   - Every slot has one width (checkWidths): every instruction that
//     writes a slot writes it at that slot's width, every telemetry step
//     moves its slot's width, and every apply output's slot has its table
//     output's width.
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
		pro := s.pro[b]
		off, hops, applies := 0, 0, 0
		var base [4]int32 // the side tables of the members before
		for k, m := range s.members {
			p := m.Prog
			var ran []Instr // the member's blocks that run before this one in the pass
			for bi, blk := range p.blocks() {
				runs := Blocks(b)&(1<<bi) != 0 || bi == 2 && m.CheckEveryHop && Blocks(b)&BlockTelemetry != 0
				if !runs {
					continue
				}
				where := fmt.Sprintf("blocks %b: member %d block %d", b, k, bi)
				n := p.pro[bi]
				for _, in := range blk[:n] {
					if err := checkLifted(p, in, ran); err != nil {
						return fmt.Errorf("%s: %v", where, err)
					}
					if in.Op == opApply {
						if applies >= len(pro.applies) || pro.applies[applies] != base[0]+in.A {
							return fmt.Errorf("%s: lifted apply %d not at prologue apply %d", where, in.A, applies)
						}
						applies++
					} else {
						if hops >= len(pro.hops) || pro.hops[hops] != m.slot[in.A] {
							return fmt.Errorf("%s: lifted bump of %d not at prologue hop %d", where, in.A, hops)
						}
						hops++
					}
				}
				body := blk[n:]
				if off+len(body) > len(code) {
					return fmt.Errorf("%s runs past the code", where)
				}
				for i, in := range body {
					pc := off + i
					if want := relocated(in, k, m.slot, base, int32(off-n)); code[pc] != want {
						return fmt.Errorf("%s: pc %d is %+v, its program has %+v there", where, pc, code[pc], want)
					}
					if t := jumpTarget(&code[pc]); t != nil && (int(*t) < off || int(*t) > off+len(body)) {
						return fmt.Errorf("%s: pc %d jumps to %d, outside [%d, %d]", where, pc, *t, off, off+len(body))
					}
				}
				off += len(body)
				ran = append(ran, blk...)
			}
			base[0] += int32(len(p.img.applies))
			base[1] += int32(len(p.img.regs))
			base[2] += int32(len(p.img.arrays))
			base[3] += int32(len(p.img.reports))
		}
		if off != len(code) || hops != len(pro.hops) || applies != len(pro.applies) {
			return fmt.Errorf("blocks %b: %d instructions, %d bumps and %d applies; the members have %d, %d and %d",
				b, len(code), len(pro.hops), len(pro.applies), off, hops, applies)
		}
	}
	return checkWidths(s, func(sl int32) bool { return owner[sl] == shared })
}

// checkWidths holds every write of a slot that is not shared (a temporary
// or a builtin) to the slot's static width: an instruction's, by the
// width its mask keeps, an array op's elements and count, an apply's
// outputs — each also at its table output's width, its default's — and
// hit flag; then every telemetry step to its slot's width.
func checkWidths(s *Set, shared func(int32) bool) error {
	at := func(sl int32, w int, what string) error {
		if !shared(sl) && int(s.widths[sl]) != w {
			return fmt.Errorf("%s writes slot %d at %d bits, its width is %d", what, sl, w, s.widths[sl])
		}
		return nil
	}
	for b, code := range s.code {
		for pc, in := range code {
			for f, v := range in.fields() {
				what := fmt.Sprintf("blocks %b: pc %d (%s)", b, pc, opNames[in.Op])
				var err error
				switch shapes[in.Op][f] {
				case opdDst:
					err = at(*v, bits.Len64(in.M), what)
				case opdArray:
					a := &s.arrays[*v]
					err = at(a.cnt, 8, what)
					for sl := a.start; sl < a.start+a.capN && err == nil; sl++ {
						err = at(sl, bits.Len64(a.em), what)
					}
				}
				if err != nil {
					return err
				}
			}
		}
	}
	for i, a := range s.applies {
		spec, err := tableSpec(s.members[a.member].Prog.P, a.name)
		if err != nil {
			return err
		}
		what := fmt.Sprintf("apply site %d (table %q)", i, a.name)
		for j, o := range a.outs {
			if err := at(o, spec.Default[j].W, what); err != nil {
				return err
			}
		}
		if err := at(a.hit, 1, what); err != nil {
			return err
		}
	}
	for _, st := range s.teleSteps {
		if int(st.width) != int(s.widths[st.slot]) {
			return fmt.Errorf("telemetry step at bit %d moves %d bits of slot %d, its width is %d", st.off, st.width, st.slot, s.widths[st.slot])
		}
	}
	return nil
}

// relocated is in as it must stand in a Set as member k: slots through
// the member's slot map, side-table indices past base, jump targets moved
// by shift, a reject to bit k.
func relocated(in Instr, k int, slot []int32, base [4]int32, shift int32) Instr {
	for f, v := range in.fields() {
		switch kind := shapes[in.Op][f]; {
		case kind == opdDst || kind == opdSrc:
			*v = slot[*v]
		case kind == opdJump:
			*v += shift
		case kind == opdMember:
			*v = int32(k)
		case kind >= opdApply:
			*v += base[kind-opdApply]
		}
	}
	return in
}

// checkLifted says why in, a prologue entry of p, may not run at the head
// of a pass in which ran runs before its block. It must be a hop-count
// bump or an apply without keys, and no instruction of ran may read or
// write a slot it writes, or write a slot it reads.
func checkLifted(p *Prog, in Instr, ran []Instr) error {
	hop := p.slots[pipeline.FieldHops]
	bump := in.Op == opAddAssign && in.A == hop && in.B == hop && in.M == 0xff && p.img.template[in.C] == 1
	if !bump && (in.Op != opApply || len(p.img.applies[in.A].keys) > 0) {
		return fmt.Errorf("lifted %+v is neither a hop-count bump nor a keyless apply", in)
	}
	r, w := access(&p.img, in)
	for _, e := range ran {
		er, ew := access(&p.img, e)
		for _, s := range w {
			if slices.Contains(er, s) || slices.Contains(ew, s) {
				return fmt.Errorf("lifted %+v writes slot %d, which %+v before it touches", in, s, e)
			}
		}
		for _, s := range r {
			if slices.Contains(ew, s) {
				return fmt.Errorf("lifted %+v reads slot %d, which %+v before it writes", in, s, e)
			}
		}
	}
	return nil
}

// access lists the slots an instruction of img may read and may write, by
// shapes: an apply reads its keys and writes its outputs and hit, an array
// op may read and write each element and the count, a report reads its
// arguments.
func access(img *image, in Instr) (r, w []int32) {
	for f, v := range in.fields() {
		switch shapes[in.Op][f] {
		case opdSrc:
			r = append(r, *v)
		case opdDst:
			w = append(w, *v)
		case opdApply:
			a := &img.applies[*v]
			r, w = append(r, a.keySlots()...), append(append(w, a.outs...), a.hit)
		case opdArray:
			a := &img.arrays[*v]
			for s := a.start; s < a.start+a.capN; s++ {
				r, w = append(r, s), append(w, s)
			}
			r, w = append(r, a.cnt), append(w, a.cnt)
		case opdReport:
			r = append(r, img.reports[*v].args...)
		}
	}
	return r, w
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

// layoutMutations are five linker bugs and an emitter bug, each applied
// to a linked Set in place; one reports false when the Set gives it
// nothing to break.
var layoutMutations = map[string]func(*Set) bool{
	// A reset slot placed outside the region: BeginHop never restores it.
	"reset slot outside the run": func(s *Set) bool {
		for _, m := range s.members {
			if len(m.Prog.resetSlots) > 0 {
				sl := m.Prog.resetSlots[0]
				m.slot[sl] = int32(len(s.template))
				s.template = append(s.template, m.Prog.img.template[sl])
				s.widths = append(s.widths, m.Prog.img.widths[sl])
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
		off, moved := len(code)-len(last.check)+last.pro[2], false
		for pc := off; pc < len(code) && off > 0; pc++ {
			if t := jumpTarget(&code[pc]); t != nil {
				*t, moved = *t-int32(off-last.pro[2]), true
			}
		}
		return moved
	},
	// The second member's first private scratch slot is the first's.
	"scratch slot shared between members": func(s *Set) bool {
		if len(s.members) < 2 {
			return false
		}
		a, b := s.members[0], s.members[1]
		sa, sb := firstPrivateScratch(a.Prog), firstPrivateScratch(b.Prog)
		if sa < 0 || sb < 0 {
			return false
		}
		b.slot[sb] = a.slot[sa]
		return true
	},
	// A hop-count bump lifted over an init block that reads hop_count: the
	// init sees the count one hop ahead.
	"hop bump lifted over an init that reads it": func(s *Set) bool {
		return liftNext(s, 1, func(p *Prog, in Instr) bool {
			hop := p.slots[pipeline.FieldHops]
			return in.Op == opAddAssign && in.A == hop && in.B == hop
		})
	},
	// The emitter stores a field one bit wider than its slot: the first
	// assignment to a field in the set, relinked.
	"slot stored at a wider width": func(s *Set) bool {
		members, found := make([]Member, len(s.members)), false
		for k, m := range s.members {
			members[k] = m.Member
			p := m.Prog
			for bi, code := range p.blocks() {
				i := slices.IndexFunc(code, func(in Instr) bool { return in.Op == opAssign && in.A < p.tempStart && in.M != ^uint64(0) })
				if found || i < 0 {
					continue
				}
				q := *p
				blk := slices.Clone(code)
				blk[i].M = blk[i].M<<1 | 1
				*[]*[]Instr{&q.init, &q.tele, &q.check}[bi] = blk
				members[k].Prog, found = &q, true
			}
		}
		*s = *LinkSet(members)
		return found
	},
	// A checker's scalar apply lifted over the telemetry block that applies
	// and reads the same slot: routing-validity's is_leaf in the corpus.
	"checker apply lifted over its telemetry": func(s *Set) bool {
		return liftNext(s, 2, func(p *Prog, in Instr) bool {
			return in.Op == opApply && len(p.img.applies[in.A].keys) == 0
		})
	},
}

// firstPrivateScratch is p's first slot past its telemetry that is neither
// a builtin nor a temporary, -1 if it has none.
func firstPrivateScratch(p *Prog) int32 {
	builtins := []int32{p.img.slotSwitch, p.img.slotPktLen, p.img.slotLast, p.img.slotFirst}
	for sl := int32(p.img.nTele); sl < p.tempStart; sl++ {
		if !slices.Contains(builtins, sl) {
			return sl
		}
	}
	return -1
}

// liftNext relinks s with block bi's prologue one instruction longer in
// the first member whose next instruction there is what lift asks for.
func liftNext(s *Set, bi int, lift func(*Prog, Instr) bool) bool {
	members, found := make([]Member, len(s.members)), false
	for k, m := range s.members {
		members[k] = m.Member
		if p := m.Prog; !found && p.pro[bi] < len(p.blocks()[bi]) && lift(p, p.blocks()[bi][p.pro[bi]]) {
			q := *p
			q.pro[bi]++
			members[k].Prog, found = &q, true
		}
	}
	*s = *LinkSet(members)
	return found
}
