package bytecode

import (
	"fmt"
	"slices"
)

// Member is one program of a Set: its compiled form and the §4.3
// placement of its checker block (CheckEveryHop runs it wherever the
// telemetry block runs). Its position in LinkSet's list is its index: its
// place in the state row a pass binds, its bit of a pass's reject mask
// and the owner of its reports.
type Member struct {
	Prog          *Prog
	CheckEveryHop bool
}

// linked is a Member placed in the Set's PHV: slot maps its Prog's slot
// numbering to the Set's, teleOff where its record starts in the Set's
// blob.
type linked struct {
	Member
	slot    []int32
	teleOff int
}

// Set is several programs linked into one image, the way the compiler
// links every checker into one pipeline beside forwarding (§4.2): one
// PHV, one header fill, one reset and one dispatch run per hop, and one
// verdict word per pass, a member's reject its bit of the context's mask
// (Figure 6's flag, checked once at the end of the pass).
//
// Each member keeps its own slot namespace (same-named variables never
// meet; a header path two members bind has a slot in each) and its
// telemetry region in wire order. Members share what no program can tell
// apart: the four per-hop builtins, which only BeginHop writes (Indus
// cannot assign them), and one region of statement-scoped expression
// temporaries. The reset runs are the members' own, merged.
//
// The code is resolved at link time for every subset of blocks a pipeline
// pass can ask for, so no first / last / CheckEveryHop test runs per hop,
// and laid out checker-major (member i's init, telemetry and checker
// blocks, then member i+1's): reports and register writes happen in the
// order of running the members one after another, but for the prologues.
type Set struct {
	image
	code    [BlockChecker << 1][]Instr  // by Blocks
	pro     [BlockChecker << 1]prologue // by Blocks
	members []linked
}

// prologue is what a pass runs before its code: the members' lifted
// hop-count bumps, as hop slots, then their lifted applies, as apply sites;
// slots lists what the applies write, outputs then hit, apply after apply
// (a Binding's snapshot of the pass holds one value per entry).
type prologue struct{ hops, applies, slots []int32 }

// LinkSet links the members, in order. It panics on more than 64, one bit
// each of a pass's reject mask, as an embedder panics on a program
// without a VM form.
func LinkSet(members []Member) *Set {
	if len(members) > 64 {
		panic(fmt.Sprintf("bytecode: a set links at most 64 members, not %d", len(members)))
	}
	s := &Set{}
	var nTemp, nReset int32
	for _, m := range members {
		s.nTele += m.Prog.img.nTele
		nTemp = max(nTemp, int32(m.Prog.img.nSlots)-m.Prog.tempStart)
		nReset += int32(len(m.Prog.resetSlots))
	}
	// Layout: every telemetry region, the temporaries, the builtins, every
	// member's reset slots — BeginHop's one copy — then each member's other
	// scratch slots.
	tempBase := int32(s.nTele)
	s.slotSwitch, s.slotPktLen, s.slotLast, s.slotFirst = tempBase+nTemp, tempBase+nTemp+1, tempBase+nTemp+2, tempBase+nTemp+3
	s.reset = [2]int32{tempBase + nTemp + 4, tempBase + nTemp + 4 + nReset}
	s.template, s.widths = make([]uint64, s.reset[1]), make([]uint8, s.reset[1])
	s.widths[s.slotSwitch], s.widths[s.slotPktLen], s.widths[s.slotLast], s.widths[s.slotFirst] = 32, 32, 1, 1
	nextReset := s.reset[0]

	teleBase := int32(0)
	for k, m := range members {
		p := m.Prog
		builtins := map[int32]int32{p.img.slotSwitch: s.slotSwitch, p.img.slotPktLen: s.slotPktLen, p.img.slotLast: s.slotLast, p.img.slotFirst: s.slotFirst}
		reset := make([]bool, p.img.nSlots)
		for _, sl := range p.resetSlots {
			reset[sl] = true
		}
		slot := make([]int32, p.img.nSlots)
		for sl := range slot {
			sl := int32(sl)
			if b, ok := builtins[sl]; ok {
				slot[sl] = b
			} else if sl >= p.tempStart {
				slot[sl] = tempBase + sl - p.tempStart
			} else if sl >= int32(p.img.nTele) {
				if reset[sl] {
					slot[sl], nextReset = nextReset, nextReset+1
				} else {
					slot[sl] = int32(len(s.template))
					s.template, s.widths = append(s.template, 0), append(s.widths, 0)
				}
			} else {
				slot[sl] = teleBase + sl
			}
			s.template[slot[sl]], s.widths[slot[sl]] = p.img.template[sl], p.img.widths[sl]
		}
		teleBase += int32(p.img.nTele)
		remap := func(slots []int32) []int32 {
			out := make([]int32, len(slots))
			for i, sl := range slots {
				out[i] = slot[sl]
			}
			return out
		}

		base := [4]int32{int32(len(s.applies)), int32(len(s.regs)), int32(len(s.arrays)), int32(len(s.reports))}
		for _, a := range p.img.applies {
			a.member, a.keys, a.outs, a.hit = k, slices.Clone(a.keys), remap(a.outs), slot[a.hit]
			for i := range a.keys {
				a.keys[i].slot = slot[a.keys[i].slot]
			}
			s.applies = append(s.applies, a)
		}
		for _, r := range p.img.regs {
			r.member = k
			s.regs = append(s.regs, r)
		}
		for _, a := range p.img.arrays {
			a.start, a.cnt = slot[a.start], slot[a.cnt]
			s.arrays = append(s.arrays, a)
		}
		for _, r := range p.img.reports {
			s.reports = append(s.reports, reportSite{owner: int32(k), args: remap(r.args), argW: r.argW})
		}
		for b := range s.code {
			for bi, code := range p.blocks() {
				if Blocks(b)&(1<<bi) == 0 && !(bi == 2 && m.CheckEveryHop && Blocks(b)&BlockTelemetry != 0) {
					continue
				}
				for _, in := range code[:p.pro[bi]] {
					if in.Op == opApply {
						a := &s.applies[in.A+base[0]]
						s.pro[b].applies = append(s.pro[b].applies, in.A+base[0])
						s.pro[b].slots = append(append(s.pro[b].slots, a.outs...), a.hit)
					} else {
						s.pro[b].hops = append(s.pro[b].hops, slot[in.A])
					}
				}
				s.code[b] = relocate(s.code[b], code, p.pro[bi], k, slot, base)
			}
		}
		for _, st := range p.img.teleSteps {
			st.slot, st.off = slot[st.slot], st.off+int32(8*s.teleBytes)
			s.teleSteps = append(s.teleSteps, st)
		}

		s.bindings = append(s.bindings, p.img.bindings...)
		s.bindSlots = append(s.bindSlots, remap(p.img.bindSlots)...)
		s.dirtySlots = append(s.dirtySlots, remap(p.img.dirtySlots)...)
		s.members = append(s.members, linked{Member: m, slot: slot, teleOff: s.teleBytes})
		s.teleBytes += p.img.teleBytes
	}
	s.nSlots = len(s.template)
	s.planTele()
	slices.Sort(s.dirtySlots)
	s.dirtySlots = slices.Compact(s.dirtySlots)
	return s
}

// relocate appends member k's code past its n-instruction prologue (no
// jump lands in one) to dst, rewritten for its place in a Set: slots
// through the slot map, side-table indices past the members' before, jumps
// by the offset, a reject to bit k.
func relocate(dst, code []Instr, n, k int, slot []int32, base [4]int32) []Instr {
	off := int32(len(dst) - n)
	for _, in := range code[n:] {
		for f, v := range in.fields() {
			switch kind := shapes[in.Op][f]; kind {
			case opdDst, opdSrc:
				*v = slot[*v]
			case opdJump:
				*v += off
			case opdMember:
				*v = int32(k)
			case opdApply, opdReg, opdArray, opdReport:
				*v += base[kind-opdApply]
			}
		}
		dst = append(dst, in)
	}
	return dst
}

// RunBlocks executes the selected blocks of every member, member after
// member, against the context's row binding, after BeginHop: Stage.Run
// stores the binding and makes the two calls, and is the only caller. §4.2
// splits a hop in two passes: a switch runs init alone at ingress and
// telemetry, or telemetry and checker, at egress; a NIC's ingress runs the
// checker alone. The prologue runs first, counted as the instructions it
// was: a hop slot holds 8 bits; the lifted scalar loads scatter the
// binding's snapshot of pass b when it has one, else run and record it.
func (s *Set) RunBlocks(c *Ctx, b Blocks) {
	pro, phv, bd := &s.pro[b], c.PHV, c.bind
	for _, sl := range pro.hops {
		phv[sl] = (phv[sl] + 1) & 0xff
	}
	if snap := bd.snaps[b]; bd.fresh&(1<<b) != 0 {
		for i, sl := range pro.slots {
			phv[sl] = snap[i]
		}
		c.TableApplies += len(pro.applies)
	} else {
		for _, a := range pro.applies {
			s.runApply(c, a)
		}
		snap = snap[:0]
		for _, sl := range pro.slots {
			snap = append(snap, phv[sl])
		}
		bd.snaps[b], bd.fresh = snap, bd.fresh|1<<b
	}
	c.OpsExecuted += len(pro.hops) + len(pro.applies)
	s.run(c, s.code[b])
}

// HopBlocks is the §4.2 schedule of a hop run as one pass: init at the
// first hop, telemetry at every hop, the checker at the last. A
// CheckEveryHop member's checker rides with its telemetry block.
func HopBlocks(first, last bool) Blocks {
	b := BlockTelemetry
	if first {
		b |= BlockInit
	}
	if last {
		b |= BlockChecker
	}
	return b
}

// TeleSpan returns where the k-th member's record lies in the
// Set's blob.
func (s *Set) TeleSpan(k int) (off, n int) {
	m := &s.members[k]
	return m.teleOff, m.Prog.img.teleBytes
}
