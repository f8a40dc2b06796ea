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
	PHV []pipeline.Value
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

	// wide is the reusable key buffer for applies of tables with more
	// than MaxPackedKeys columns.
	wide []uint64
}

// NewCtx returns a fresh context the caller owns for as long as it
// likes, its PHV holding the template (decode-empty telemetry,
// width-defaulted fields, constants).
func (p *image) NewCtx() *Ctx {
	c := &Ctx{PHV: make([]pipeline.Value, p.nSlots)}
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

// BeginHop resets the writable scratch slots to the template (the
// link-time reset run, one copy — constants, read-only fields, and
// statement-scoped temps can't diverge, so they are skipped) and
// installs the per-hop builtin metadata, and clears the reject mask.
// Telemetry slots are left untouched: they carry across hops in resident
// mode. The PHV is owned by the VM between BeginTrace and the end of the
// trace; external writes to non-bind slots between hops are not restored.
func (p *image) BeginHop(c *Ctx, switchID uint32, pktLen int, first, last bool) {
	c.rejects = 0
	phv := c.PHV
	copy(phv[p.reset[0]:p.reset[1]], p.template[p.reset[0]:p.reset[1]])
	// The builtin per-hop metadata, at the widths the map reference
	// (difftest.Reference) sets them.
	phv[p.slotSwitch] = pipeline.B(32, uint64(switchID))
	phv[p.slotPktLen] = pipeline.B(32, uint64(pktLen))
	phv[p.slotLast] = pipeline.BoolV(last)
	phv[p.slotFirst] = pipeline.BoolV(first)
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
// every PHV store (the compiler can't prove phv doesn't alias c).
func (p *image) run(c *Ctx, code []Instr) {
	phv := c.PHV
	ops := 0
	for pc := 0; pc < len(code); {
		in := &code[pc]
		pc++
		switch in.Op {
		case opAssign:
			ops++
			phv[in.A] = pipeline.B(int(in.W), phv[in.B].V)
		case opAddAssign:
			ops++
			x, y := phv[in.B], phv[in.C]
			phv[in.A] = pipeline.B(int(in.W), pipeline.Mask(binWidth(x, y), x.V+y.V))

		case opJz:
			ops++
			if phv[in.A].V == 0 {
				pc = int(in.B)
			}

		case opJzEq:
			ops++
			if phv[in.B].V != phv[in.C].V {
				pc = int(in.D)
			}
		case opJzNe:
			ops++
			if phv[in.B].V == phv[in.C].V {
				pc = int(in.D)
			}
		case opJzLt:
			ops++
			if phv[in.B].V >= phv[in.C].V {
				pc = int(in.D)
			}
		case opJzLe:
			ops++
			if phv[in.B].V > phv[in.C].V {
				pc = int(in.D)
			}
		case opJzGt:
			ops++
			if phv[in.B].V <= phv[in.C].V {
				pc = int(in.D)
			}
		case opJzGe:
			ops++
			if phv[in.B].V < phv[in.C].V {
				pc = int(in.D)
			}
		case opJzAnd:
			ops++
			if phv[in.B].V == 0 || phv[in.C].V == 0 {
				pc = int(in.D)
			}
		case opJzOr:
			ops++
			if phv[in.B].V == 0 && phv[in.C].V == 0 {
				pc = int(in.D)
			}
		case opJnz:
			ops++
			if phv[in.A].V != 0 {
				pc = int(in.B)
			}

		case opJmp:
			pc = int(in.A)

		case opLoadF:
			v := phv[in.B]
			if v.W == 0 {
				v = pipeline.Value{W: int(in.W)}
			}
			phv[in.A] = v

		case opNot:
			phv[in.A] = pipeline.BoolV(phv[in.B].V == 0)
		case opBNot:
			x := phv[in.B]
			phv[in.A] = pipeline.B(x.W, ^x.V)
		case opNeg:
			x := phv[in.B]
			phv[in.A] = pipeline.B(x.W, -x.V)
		case opAbs:
			x := phv[in.B]
			s := x.Signed()
			if s < 0 {
				s = -s
			}
			phv[in.A] = pipeline.B(x.W, uint64(s))

		case opBoolAnd:
			phv[in.A] = pipeline.BoolV(phv[in.B].V != 0 && phv[in.C].V != 0)
		case opBoolOr:
			phv[in.A] = pipeline.BoolV(phv[in.B].V != 0 || phv[in.C].V != 0)
		case opSelect:
			if phv[in.B].V != 0 {
				phv[in.A] = phv[in.C]
			} else {
				phv[in.A] = phv[in.D]
			}

		case opAdd:
			x, y := phv[in.B], phv[in.C]
			phv[in.A] = pipeline.B(binWidth(x, y), x.V+y.V)
		case opSub:
			x, y := phv[in.B], phv[in.C]
			phv[in.A] = pipeline.B(binWidth(x, y), x.V-y.V)
		case opMul:
			x, y := phv[in.B], phv[in.C]
			phv[in.A] = pipeline.B(binWidth(x, y), x.V*y.V)
		case opDiv:
			x, y := phv[in.B], phv[in.C]
			if y.V == 0 {
				phv[in.A] = pipeline.B(binWidth(x, y), 0)
			} else {
				phv[in.A] = pipeline.B(binWidth(x, y), x.V/y.V)
			}
		case opMod:
			x, y := phv[in.B], phv[in.C]
			if y.V == 0 {
				phv[in.A] = pipeline.B(binWidth(x, y), 0)
			} else {
				phv[in.A] = pipeline.B(binWidth(x, y), x.V%y.V)
			}
		case opBAnd:
			x, y := phv[in.B], phv[in.C]
			phv[in.A] = pipeline.B(binWidth(x, y), x.V&y.V)
		case opBOr:
			x, y := phv[in.B], phv[in.C]
			phv[in.A] = pipeline.B(binWidth(x, y), x.V|y.V)
		case opBXor:
			x, y := phv[in.B], phv[in.C]
			phv[in.A] = pipeline.B(binWidth(x, y), x.V^y.V)
		case opShl:
			x, y := phv[in.B], phv[in.C]
			if y.V >= 64 {
				phv[in.A] = pipeline.B(binWidth(x, y), 0)
			} else {
				phv[in.A] = pipeline.B(binWidth(x, y), x.V<<y.V)
			}
		case opShr:
			x, y := phv[in.B], phv[in.C]
			if y.V >= 64 {
				phv[in.A] = pipeline.B(binWidth(x, y), 0)
			} else {
				phv[in.A] = pipeline.B(binWidth(x, y), x.V>>y.V)
			}
		case opMax:
			x, y := phv[in.B], phv[in.C]
			if x.V >= y.V {
				phv[in.A] = pipeline.B(binWidth(x, y), x.V)
			} else {
				phv[in.A] = pipeline.B(binWidth(x, y), y.V)
			}
		case opMin:
			x, y := phv[in.B], phv[in.C]
			if x.V <= y.V {
				phv[in.A] = pipeline.B(binWidth(x, y), x.V)
			} else {
				phv[in.A] = pipeline.B(binWidth(x, y), y.V)
			}

		case opEq:
			phv[in.A] = pipeline.BoolV(phv[in.B].V == phv[in.C].V)
		case opNe:
			phv[in.A] = pipeline.BoolV(phv[in.B].V != phv[in.C].V)
		case opLt:
			phv[in.A] = pipeline.BoolV(phv[in.B].V < phv[in.C].V)
		case opLe:
			phv[in.A] = pipeline.BoolV(phv[in.B].V <= phv[in.C].V)
		case opGt:
			phv[in.A] = pipeline.BoolV(phv[in.B].V > phv[in.C].V)
		case opGe:
			phv[in.A] = pipeline.BoolV(phv[in.B].V >= phv[in.C].V)

		case opApply:
			ops++
			p.runApply(c, in.A)
		case opApplyAssign:
			ops += 2
			p.runApply(c, in.A)
			phv[in.B] = pipeline.B(int(in.W), phv[in.C].V)

		case opIn:
			site, needle := &p.arrays[in.B], phv[in.C].V
			n := min(phv[site.cnt].V, uint64(site.capN))
			found := false
			for _, v := range phv[site.start : site.start+int32(n)] {
				found = found || v.V == needle
			}
			phv[in.A] = pipeline.BoolV(found)

		case opRegRead:
			ops++
			r := c.bind.regs[in.B]
			phv[in.A] = pipeline.B(int(in.W), r.Read(int(phv[in.C].V)))

		case opRegWrite:
			ops++
			c.bind.regs[in.A].Write(int(phv[in.B].V), phv[in.C].V)

		case opPush:
			ops++
			site := &p.arrays[in.A]
			n := int32(phv[site.cnt].V)
			v := phv[in.B].V
			if n < site.capN {
				phv[site.start+n] = pipeline.B(int(site.ew), v)
				phv[site.cnt] = pipeline.B(8, uint64(n+1))
			} else {
				// Full: shift out the oldest element.
				for i := int32(0); i+1 < site.capN; i++ {
					phv[site.start+i] = phv[site.start+i+1]
				}
				phv[site.start+site.capN-1] = pipeline.B(int(site.ew), v)
			}

		case opSetSlot:
			ops++
			site := &p.arrays[in.A]
			i := int64(phv[in.B].V)
			if i < 0 || i >= int64(site.capN) {
				break // out-of-range writes are dropped, as on hardware
			}
			phv[site.start+int32(i)] = pipeline.B(int(site.ew), phv[in.C].V)
			if n := int64(phv[site.cnt].V); i >= n {
				phv[site.cnt] = pipeline.B(8, uint64(i+1))
			}

		case opReport:
			ops++
			p.runReport(c, &p.reports[in.A])

		case opReject:
			ops++
			c.rejects &^= 1 << in.A
			if pipeline.Mask(int(in.W), phv[in.B].V) != 0 {
				c.rejects |= 1 << in.A
			}

		default:
			panic(fmt.Sprintf("bytecode: bad opcode %d", in.Op))
		}
	}
	c.OpsExecuted += ops
}

// binWidth reconciles binary operand widths: a width-0 (unset/weak)
// left side adopts the right side's width.
func binWidth(x, y pipeline.Value) int {
	if x.W == 0 {
		return y.W
	}
	return x.W
}

// runApply executes apply site a against the table the pass's binding
// resolved for it. A table of at most MaxPackedKeys columns gets its key
// words as LookupWords' four arguments, read slot by slot into locals: no
// key array is built, so the words stay in registers down to the probe,
// and those past the site's keys stay zero. Wider tables take the generic
// slice path.
func (p *image) runApply(c *Ctx, a int32) {
	site, t := &p.applies[a], c.bind.tables[a]
	if site.wide {
		nk := len(site.keys)
		if cap(c.wide) < nk {
			c.wide = make([]uint64, nk)
		}
		kv := c.wide[:nk]
		for i, s := range site.keys {
			kv[i] = c.PHV[s].V
		}
		action, hit := t.Lookup(kv)
		p.writeOut(c, site, action, hit)
		return
	}
	var k0, k1, k2, k3 uint64
	switch ks := site.keys; len(ks) {
	case 4:
		k3 = c.PHV[ks[3]].V
		fallthrough
	case 3:
		k2 = c.PHV[ks[2]].V
		fallthrough
	case 2:
		k1 = c.PHV[ks[1]].V
		fallthrough
	case 1:
		k0 = c.PHV[ks[0]].V
	}
	action, hit := t.LookupWords(k0, k1, k2, k3)
	p.writeOut(c, site, action, hit)
}

func (p *image) writeOut(c *Ctx, site *applySite, action []pipeline.Value, hit bool) {
	for i, s := range site.outs {
		c.PHV[s] = action[i]
	}
	c.PHV[site.hit] = pipeline.BoolV(hit)
	c.TableApplies++
}

// runReport raises a report, its Args carved from the arena. Arena
// growth leaves earlier reports' Args on the old array — their values
// stay intact, so reads remain correct; the arena converges after warmup.
func (p *image) runReport(c *Ctx, site *reportSite) {
	off := len(c.argArena)
	for _, s := range site.args {
		c.argArena = append(c.argArena, c.PHV[s])
	}
	c.reports = append(c.reports, pipeline.Report{Args: c.argArena[off:len(c.argArena):len(c.argArena)]})
	c.owners = append(c.owners, site.owner)
}
