package bytecode

import (
	"fmt"

	"repro/internal/pipeline"
)

// Ctx is the execution state of a Set: the flat PHV and, for the pass in
// progress, the row binding its sites read tables and registers through,
// its reject mask and its reports. A Ctx is resident: created once by Link
// and owned by one Stage — an engine shard's, a netsim switch's — for its
// whole life, never re-templated.
type Ctx struct {
	// PHV holds every slot's bits at its static width, which the Set's
	// code fixes: a slot is a uint64 and carries no width of its own.
	PHV []uint64
	// TableApplies and OpsExecuted mirror the interpreter's counters.
	TableApplies int
	OpsExecuted  int

	// bind is the pass's row binding, stored by Stage.Run.
	bind *Binding

	// rejects is the pass's reject mask, bit k member k's (Stage.Run).
	rejects uint64
	// reports are the pass's digests in the order raised, reports[i]
	// raised by member owners[i], its Args carved from argArena: Stage.Run
	// truncates the three, Stage.Reports hands them out.
	reports  []pipeline.Report
	owners   []int32
	argArena []pipeline.Value
}

// NewCtx returns a fresh context the caller owns for as long as it
// likes, its PHV holding the template (zero bits, and the constants).
func (p *image) NewCtx() *Ctx {
	c := &Ctx{PHV: make([]uint64, p.nSlots)}
	copy(c.PHV, p.template)
	return c
}

// BeginTrace resets the telemetry region to its decode-empty image —
// the whole-trace (resident-PHV) entry point: telemetry then stays in
// the slots across hops with no intermediate blob codec, which is
// byte-equivalent to the per-hop roundtrip because every telemetry
// slot write is already masked to its wire width.
func (p *image) BeginTrace(c *Ctx) {
	copy(c.PHV[:p.nTele], p.template[:p.nTele])
}

// BeginHop resets the scratch slots some block may read before writing
// to the template (the link-time reset run, one copy), installs the
// per-hop builtin metadata and clears the reject mask. Telemetry slots
// carry across hops in resident mode and header slots are packet input
// (Stage): neither is restored, nor is any other write between hops.
func (p *image) BeginHop(c *Ctx, switchID uint32, pktLen int, first, last bool) {
	c.rejects = 0
	phv := c.PHV
	copy(phv[p.reset[0]:p.reset[1]], p.template[p.reset[0]:p.reset[1]])
	// The builtin per-hop metadata, at the widths the map reference
	// (difftest.Reference) sets them: 32, 32, 1 and 1 bits.
	phv[p.slotSwitch] = uint64(switchID)
	phv[p.slotPktLen] = uint64(uint32(pktLen))
	phv[p.slotLast] = bit(last)
	phv[p.slotFirst] = bit(first)
}

// bit is a boolean's 1-bit value.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Blocks selects the blocks one pipeline pass executes (Set.RunBlocks).
// §4.2 places init at the head of the first hop's ingress pipeline and
// telemetry and checker in the egress pipeline, so a switch runs two
// different sets per hop with different header bindings. A Set links one
// prologue and one code array per subset.
type Blocks uint8

const (
	BlockInit Blocks = 1 << iota
	BlockTelemetry
	BlockChecker
)

// run is the dispatch loop: one flat instruction array, one switch, no
// closures, no interface values. Ops that correspond to IR ops bump
// OpsExecuted exactly as the other executors do; the count accumulates
// in a local so the loop isn't forced to reload the Ctx field after
// every PHV store (the compiler can't prove phv doesn't alias c). An op
// keeps its result's static width by its mask, in.M.
func (p *image) run(c *Ctx, code []Instr) {
	phv := c.PHV
	ops := 0
	for pc := 0; pc < len(code); {
		in := &code[pc]
		pc++
		switch in.Op {
		case opAssign:
			ops++
			phv[in.A] = phv[in.B] & in.M
		case opAddAssign:
			ops++
			phv[in.A] = (phv[in.B] + phv[in.C]) & in.M

		case opJz:
			ops++
			if phv[in.A] == 0 {
				pc = int(in.B)
			}

		case opJzEq:
			ops++
			if phv[in.B] != phv[in.C] {
				pc = int(in.D)
			}
		case opJzNe:
			ops++
			if phv[in.B] == phv[in.C] {
				pc = int(in.D)
			}
		case opJzLt:
			ops++
			if phv[in.B] >= phv[in.C] {
				pc = int(in.D)
			}
		case opJzLe:
			ops++
			if phv[in.B] > phv[in.C] {
				pc = int(in.D)
			}
		case opJzGt:
			ops++
			if phv[in.B] <= phv[in.C] {
				pc = int(in.D)
			}
		case opJzGe:
			ops++
			if phv[in.B] < phv[in.C] {
				pc = int(in.D)
			}
		case opJzAnd:
			ops++
			if phv[in.B] == 0 || phv[in.C] == 0 {
				pc = int(in.D)
			}
		case opJzOr:
			ops++
			if phv[in.B] == 0 && phv[in.C] == 0 {
				pc = int(in.D)
			}
		case opJnz:
			ops++
			if phv[in.A] != 0 {
				pc = int(in.B)
			}

		case opJmp:
			pc = int(in.A)

		case opNot:
			phv[in.A] = bit(phv[in.B] == 0)
		case opBNot:
			phv[in.A] = ^phv[in.B] & in.M
		case opNeg:
			phv[in.A] = -phv[in.B] & in.M
		case opAbs:
			// Two's complement at the operand's width: negative when its
			// top bit, the one M keeps that M>>1 does not, is set.
			x := phv[in.B]
			if x&(in.M&^(in.M>>1)) != 0 {
				x = -x
			}
			phv[in.A] = x & in.M

		case opBoolAnd:
			phv[in.A] = bit(phv[in.B] != 0 && phv[in.C] != 0)
		case opBoolOr:
			phv[in.A] = bit(phv[in.B] != 0 || phv[in.C] != 0)
		case opSelect:
			if phv[in.B] != 0 {
				phv[in.A] = phv[in.C]
			} else {
				phv[in.A] = phv[in.D]
			}

		case opAdd:
			phv[in.A] = (phv[in.B] + phv[in.C]) & in.M
		case opSub:
			phv[in.A] = (phv[in.B] - phv[in.C]) & in.M
		case opMul:
			phv[in.A] = phv[in.B] * phv[in.C] & in.M
		case opDiv:
			if y := phv[in.C]; y == 0 {
				phv[in.A] = 0
			} else {
				phv[in.A] = phv[in.B] / y & in.M
			}
		case opMod:
			if y := phv[in.C]; y == 0 {
				phv[in.A] = 0
			} else {
				phv[in.A] = phv[in.B] % y & in.M
			}
		case opBAnd:
			phv[in.A] = phv[in.B] & phv[in.C] & in.M
		case opBOr:
			phv[in.A] = (phv[in.B] | phv[in.C]) & in.M
		case opBXor:
			phv[in.A] = (phv[in.B] ^ phv[in.C]) & in.M
		case opShl:
			if y := phv[in.C]; y >= 64 {
				phv[in.A] = 0
			} else {
				phv[in.A] = phv[in.B] << y & in.M
			}
		case opShr:
			if y := phv[in.C]; y >= 64 {
				phv[in.A] = 0
			} else {
				phv[in.A] = phv[in.B] >> y & in.M
			}
		case opMax:
			phv[in.A] = max(phv[in.B], phv[in.C]) & in.M
		case opMin:
			phv[in.A] = min(phv[in.B], phv[in.C]) & in.M

		case opEq:
			phv[in.A] = bit(phv[in.B] == phv[in.C])
		case opNe:
			phv[in.A] = bit(phv[in.B] != phv[in.C])
		case opLt:
			phv[in.A] = bit(phv[in.B] < phv[in.C])
		case opLe:
			phv[in.A] = bit(phv[in.B] <= phv[in.C])
		case opGt:
			phv[in.A] = bit(phv[in.B] > phv[in.C])
		case opGe:
			phv[in.A] = bit(phv[in.B] >= phv[in.C])

		case opApply:
			ops++
			p.runApply(c, in.A)
		case opApplyAssign:
			ops += 2
			p.runApply(c, in.A)
			phv[in.B] = phv[in.C] & in.M

		case opIn:
			site, needle := &p.arrays[in.B], phv[in.C]
			n := min(phv[site.cnt], uint64(site.capN))
			found := false
			for _, v := range phv[site.start : site.start+int32(n)] {
				found = found || v == needle
			}
			phv[in.A] = bit(found)

		case opRegRead:
			ops++
			r := c.bind.regs[in.B]
			phv[in.A] = r.Read(int(phv[in.C])) & in.M

		case opRegWrite:
			ops++
			c.bind.regs[in.A].Write(int(phv[in.B]), phv[in.C])

		case opPush:
			ops++
			site := &p.arrays[in.A]
			n := int32(phv[site.cnt])
			v := phv[in.B] & site.em
			if n < site.capN {
				phv[site.start+n] = v
				phv[site.cnt] = uint64(n+1) & 0xff
			} else {
				// Full: shift out the oldest element.
				copy(phv[site.start:site.start+site.capN-1], phv[site.start+1:site.start+site.capN])
				phv[site.start+site.capN-1] = v
			}

		case opSetSlot:
			ops++
			site := &p.arrays[in.A]
			i := int64(phv[in.B])
			if i < 0 || i >= int64(site.capN) {
				break // out-of-range writes are dropped, as on hardware
			}
			phv[site.start+int32(i)] = phv[in.C] & site.em
			if n := int64(phv[site.cnt]); i >= n {
				phv[site.cnt] = uint64(i+1) & 0xff
			}

		case opReport:
			ops++
			p.runReport(c, &p.reports[in.A])

		case opReject:
			ops++
			c.rejects &^= 1 << in.A
			if phv[in.B]&in.M != 0 {
				c.rejects |= 1 << in.A
			}

		default:
			panic(fmt.Sprintf("bytecode: bad opcode %d", in.Op))
		}
	}
	c.OpsExecuted += ops
}

// runApply executes apply site a against the table the pass's binding
// resolved for it. It packs the key into the table's words itself, each
// column read from its slot, masked to its declared width and shifted to
// its place (the table's KeyLayout, which Binding.bind has held the bound
// table to), straight into four locals: no key array is built, so the
// words stay in registers down to the probe, and the words no column
// fills stay zero.
func (p *image) runApply(c *Ctx, a int32) {
	var w0, w1, w2, w3 uint64
	if site := &p.applies[a]; site.oneWord {
		for _, k := range site.keys {
			w0 |= c.PHV[k.slot] & k.mask * k.scale
		}
	} else {
		w0, w1, w2, w3 = packKey(site.keys, c.PHV)
	}
	action, hit := c.bind.tables[a].LookupWords(w0, w1, w2, w3)
	p.writeOut(c, &p.applies[a], action, hit)
}

// packKey is the key words of keys read from phv.
func packKey(keys []applyKey, phv []uint64) (w0, w1, w2, w3 uint64) {
	for _, k := range keys {
		v := phv[k.slot] & k.mask * k.scale
		switch k.word {
		case 0:
			w0 |= v
		case 1:
			w1 |= v
		case 2:
			w2 |= v
		default:
			w3 |= v
		}
	}
	return w0, w1, w2, w3
}

// writeOut stores an apply's outcome: the action's bits in the output
// slots — a table holds every action value at its output's width, the
// width Binding.bind holds the slots to — and the hit flag.
func (p *image) writeOut(c *Ctx, site *applySite, action []pipeline.Value, hit bool) {
	for i, s := range site.outs {
		c.PHV[s] = action[i].V
	}
	c.PHV[site.hit] = bit(hit)
	c.TableApplies++
}

// runReport raises a report, its Args carved from the arena, each at its
// argument's static width. Arena growth leaves earlier reports' Args on
// the old array — their values stay intact, so reads remain correct; the
// arena converges after warmup.
func (p *image) runReport(c *Ctx, site *reportSite) {
	off := len(c.argArena)
	for i, s := range site.args {
		c.argArena = append(c.argArena, pipeline.Value{W: int(site.argW[i]), V: c.PHV[s]})
	}
	c.reports = append(c.reports, pipeline.Report{Args: c.argArena[off:len(c.argArena):len(c.argArena)]})
	c.owners = append(c.owners, site.owner)
}
