package symexec

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/pipeline"
)

// constraint is one recorded path condition: a boolean term plus the
// truth value the concrete execution observed for it.
type constraint struct {
	t    *Term
	want bool
	site string
}

func (c constraint) String() string {
	return c.site + ": " + c.t.String() + "=" + strconv.FormatBool(c.want)
}

// pathRun is the raw outcome of one concolic execution.
type pathRun struct {
	seq       []uint32
	asn       []uint64
	cons      []constraint
	reject    bool
	reports   [][]uint64
	finalBlob []byte
}

func (r *pathRun) violation() bool { return r.reject || len(r.reports) > 0 }

func (r *pathRun) verdict() Verdict { return Verdict{Reject: r.reject, Reports: len(r.reports)} }

// sig identifies the path by its condition sequence.
func (r *pathRun) sig() string {
	h := fnv.New64a()
	for _, c := range r.cons {
		h.Write([]byte(c.String()))
		h.Write([]byte{0})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// carrySlot is a telemetry field crossing a hop boundary: the raw
// (pre-wire) concrete value and its term. The wire roundtrip masks to
// the field width, applied at the next hop's decode.
type carrySlot struct {
	raw  uint64
	term *Term
}

// execState is one concolic run in flight.
type execState struct {
	ex   *Explorer
	seq  []uint32
	asn  []uint64
	hop  int
	sw   uint32
	last bool

	phv pipeline.PHV
	sym map[pipeline.FieldRef]*Term

	// Run-local register mirror, keyed per switch like the per-switch
	// pipeline State the backends use. Values are concrete; regSyms
	// shadows each cell with the term of its last write.
	regs    map[uint32]map[string][]uint64
	regSyms map[uint32]map[string][]*Term

	cons    []constraint
	reject  bool
	reports [][]uint64
}

// run executes the program concolically over one switch sequence under
// one assignment, recording the path conditions it takes.
func (ex *Explorer) run(seq []uint32, asn []uint64) (*pathRun, error) {
	s := &execState{
		ex: ex, seq: seq, asn: asn,
		regs:    map[uint32]map[string][]uint64{},
		regSyms: map[uint32]map[string][]*Term{},
	}
	var carry map[pipeline.FieldRef]carrySlot
	lastHop := len(seq) - 1
	for hop := 0; hop <= lastHop; hop++ {
		s.hop, s.sw, s.last = hop, seq[hop], hop == lastHop
		s.phv = make(pipeline.PHV, 32)
		s.sym = make(map[pipeline.FieldRef]*Term, 32)
		s.decodeTele(carry)

		// Builtins, mirroring difftest.Reference.RunHop: switch_id,
		// packet_length, first/last hop flags, then header bindings.
		s.setConst(pipeline.FieldSwitch, pipeline.B(32, uint64(s.sw)))
		pv := ex.pktVar(hop)
		s.setField(pipeline.FieldPktLen, 32, asn[pv], varTerm(pv, fmt.Sprintf("hop%d.packet_length", hop), 32))
		s.setConst(pipeline.FieldLastHop, pipeline.BoolV(s.last))
		s.setConst(pipeline.FieldFirst, pipeline.BoolV(hop == 0))
		for j, h := range ex.headers {
			id := ex.headerVar(hop, j)
			s.setField(pipeline.FieldRef(h.Path), h.Width, asn[id],
				varTerm(id, fmt.Sprintf("hop%d.%s", hop, h.Name), h.Width))
		}

		if hop == 0 {
			if err := s.execBlock(ex.prog.Init); err != nil {
				return nil, err
			}
		}
		if err := s.execBlock(ex.prog.Telemetry); err != nil {
			return nil, err
		}
		if s.last {
			if err := s.execBlock(ex.prog.Checker); err != nil {
				return nil, err
			}
		}
		if s.phv.Get(pipeline.FieldReject).Bool() {
			s.reject = true
		}
		carry = s.encodeTele()
	}
	return &pathRun{
		seq:       seq,
		asn:       append([]uint64(nil), asn...),
		cons:      s.cons,
		reject:    s.reject,
		reports:   s.reports,
		finalBlob: ex.prog.EncodeTele(s.phv),
	}, nil
}

// setField writes a field masked to width, shadowing it with the term
// truncated the same way.
func (s *execState) setField(ref pipeline.FieldRef, width int, raw uint64, t *Term) {
	s.phv.Set(ref, pipeline.B(width, raw))
	s.sym[ref] = castTerm(width, t)
}

func (s *execState) setConst(ref pipeline.FieldRef, v pipeline.Value) {
	s.phv.Set(ref, v)
	s.sym[ref] = constTerm(v)
}

// symOf returns the term of a stored field for raw (.V) reads — the
// telemetry encoder and array-count reads use the value regardless of
// width, so unset fields read as constant zero.
func (s *execState) symOf(ref pipeline.FieldRef) *Term {
	if t, ok := s.sym[ref]; ok {
		return t
	}
	return constTerm(s.phv.Get(ref))
}

// decodeTele mirrors Program.DecodeTele: a nil carry is the first hop
// (zero-filled), otherwise each field is the previous hop's raw value
// masked by the wire roundtrip.
func (s *execState) decodeTele(carry map[pipeline.FieldRef]carrySlot) {
	set := func(ref pipeline.FieldRef, width int) {
		if carry == nil {
			s.setField(ref, width, 0, constTerm(pipeline.B(width, 0)))
			return
		}
		c := carry[ref]
		s.setField(ref, width, c.raw, c.term)
	}
	set(pipeline.FieldHops, 8)
	for _, f := range s.ex.prog.Tele {
		if f.IsArray {
			set(pipeline.ArrayCount(f.Name), 8)
			for i := 0; i < f.Cap; i++ {
				set(pipeline.ArraySlot(f.Name, i), f.Width)
			}
			continue
		}
		set(pipeline.FieldRef(f.Name), f.Width)
	}
}

// encodeTele mirrors Program.EncodeTele's field walk, capturing the raw
// values (and terms) that cross to the next hop.
func (s *execState) encodeTele() map[pipeline.FieldRef]carrySlot {
	carry := make(map[pipeline.FieldRef]carrySlot, len(s.ex.prog.Tele)+1)
	grab := func(ref pipeline.FieldRef) {
		carry[ref] = carrySlot{raw: s.phv.Get(ref).V, term: s.symOf(ref)}
	}
	grab(pipeline.FieldHops)
	for _, f := range s.ex.prog.Tele {
		if f.IsArray {
			grab(pipeline.ArrayCount(f.Name))
			for i := 0; i < f.Cap; i++ {
				grab(pipeline.ArraySlot(f.Name, i))
			}
			continue
		}
		grab(pipeline.FieldRef(f.Name))
	}
	return carry
}

// symbolize builds the term of an expression against the current
// symbolic store, mirroring Expr.Eval shape for shape.
func (s *execState) symbolize(e pipeline.Expr) (*Term, error) {
	switch e := e.(type) {
	case pipeline.Field:
		// Mirror Field.Eval: a stored width-0 value (unset field) reads
		// as a zero of the field's declared width.
		if v := s.phv.Get(e.Ref); v.W == 0 {
			return constTerm(pipeline.Value{W: e.Width}), nil
		}
		return s.symOf(e.Ref), nil
	case pipeline.Const:
		return constTerm(e.Val), nil
	case pipeline.Unary:
		x, err := s.symbolize(e.X)
		if err != nil {
			return nil, err
		}
		return unTerm(e.Op, x), nil
	case pipeline.Bin:
		x, err := s.symbolize(e.X)
		if err != nil {
			return nil, err
		}
		y, err := s.symbolize(e.Y)
		if err != nil {
			return nil, err
		}
		return binTerm(e.Op, x, y), nil
	case pipeline.Mux:
		c, err := s.symbolize(e.Cond)
		if err != nil {
			return nil, err
		}
		x, err := s.symbolize(e.X)
		if err != nil {
			return nil, err
		}
		y, err := s.symbolize(e.Y)
		if err != nil {
			return nil, err
		}
		return muxTerm(c, x, y), nil
	}
	return nil, fmt.Errorf("symexec: unmodeled expr type %T", e)
}

// eval computes an expression both ways and cross-checks them: the
// model-fidelity invariant is that the term under the assignment equals
// the concrete PHV evaluation at every site.
func (s *execState) eval(e pipeline.Expr) (pipeline.Value, *Term, error) {
	v := e.Eval(s.phv)
	t, err := s.symbolize(e)
	if err != nil {
		return pipeline.Value{}, nil, err
	}
	if !t.isConst() {
		if got := t.Eval(s.asn); got != v {
			return pipeline.Value{}, nil, fmt.Errorf(
				"symexec: model drift at hop %d: term %s = %v, concrete %v", s.hop, t, got, v)
		}
	} else if t.val != v {
		return pipeline.Value{}, nil, fmt.Errorf(
			"symexec: model drift at hop %d: folded %v, concrete %v", s.hop, t.val, v)
	}
	return v, t, nil
}

// branch records a non-constant path condition, checking it agrees with
// the concrete outcome.
func (s *execState) branch(t *Term, want bool, site string) error {
	if t.isConst() {
		if t.val.Bool() != want {
			return fmt.Errorf("symexec: constant condition at %s disagrees with execution", site)
		}
		return nil
	}
	if t.Eval(s.asn).Bool() != want {
		return fmt.Errorf("symexec: recorded condition at %s disagrees with execution", site)
	}
	s.cons = append(s.cons, constraint{t: t, want: want, site: site})
	return nil
}

// pin constrains a runtime index (register cell, array slot) to its
// concrete value, so solved siblings explore other indices explicitly.
func (s *execState) pin(t *Term, v pipeline.Value, site string) error {
	if t.isConst() {
		return nil
	}
	return s.branch(binTerm(pipeline.OpEq, t, constTerm(v)), true, site)
}

func (s *execState) site(what string) string {
	return fmt.Sprintf("hop%d %s", s.hop, what)
}

// regState returns the run-local mirror of one register on the current
// hop's switch.
func (s *execState) regState(name string) ([]uint64, []*Term, int, error) {
	swRegs, ok := s.regs[s.sw]
	if !ok {
		swRegs = map[string][]uint64{}
		s.regs[s.sw] = swRegs
		s.regSyms[s.sw] = map[string][]*Term{}
	}
	cells, ok := swRegs[name]
	if !ok {
		var spec *pipeline.RegisterSpec
		for i := range s.ex.prog.Registers {
			if s.ex.prog.Registers[i].Name == name {
				spec = &s.ex.prog.Registers[i]
				break
			}
		}
		if spec == nil {
			return nil, nil, 0, fmt.Errorf("symexec: undeclared register %q", name)
		}
		cells = make([]uint64, spec.Size)
		swRegs[name] = cells
		s.regSyms[s.sw][name] = make([]*Term, spec.Size)
	}
	width := 0
	for i := range s.ex.prog.Registers {
		if s.ex.prog.Registers[i].Name == name {
			width = s.ex.prog.Registers[i].Width
		}
	}
	return cells, s.regSyms[s.sw][name], width, nil
}

// execBlock mirrors pipeline.ExecContext.Exec op for op, maintaining
// the symbolic shadow alongside the concrete state.
func (s *execState) execBlock(ops []pipeline.Op) error {
	for _, op := range ops {
		switch op := op.(type) {
		case pipeline.AssignOp:
			v, t, err := s.eval(op.Src)
			if err != nil {
				return err
			}
			s.setField(op.Dst, op.DstWidth, v.V, t)

		case pipeline.ApplyOp:
			if err := s.execApply(op); err != nil {
				return err
			}

		case pipeline.RegReadOp:
			idxV, idxT, err := s.eval(op.Index)
			if err != nil {
				return err
			}
			if err := s.pin(idxT, idxV, s.site("reg "+op.Reg+" index")); err != nil {
				return err
			}
			cells, syms, _, err := s.regState(op.Reg)
			if err != nil {
				return err
			}
			idx := int(idxV.V)
			var raw uint64
			cellT := constTerm(pipeline.Value{})
			if idx >= 0 && idx < len(cells) {
				raw = cells[idx]
				if syms[idx] != nil {
					cellT = syms[idx]
				} else {
					cellT = constTerm(pipeline.B(64, raw))
				}
			}
			s.setField(op.Dst, op.Width, raw, cellT)

		case pipeline.RegWriteOp:
			idxV, idxT, err := s.eval(op.Index)
			if err != nil {
				return err
			}
			if err := s.pin(idxT, idxV, s.site("reg "+op.Reg+" index")); err != nil {
				return err
			}
			v, t, err := s.eval(op.Src)
			if err != nil {
				return err
			}
			cells, syms, width, err := s.regState(op.Reg)
			if err != nil {
				return err
			}
			idx := int(idxV.V)
			if idx >= 0 && idx < len(cells) {
				cells[idx] = pipeline.Mask(width, v.V)
				syms[idx] = castTerm(width, t)
			}

		case pipeline.IfOp:
			cv, ct, err := s.eval(op.Cond)
			if err != nil {
				return err
			}
			if err := s.branch(ct, cv.Bool(), s.site("if "+ct.String())); err != nil {
				return err
			}
			if cv.Bool() {
				if err := s.execBlock(op.Then); err != nil {
					return err
				}
			} else if err := s.execBlock(op.Else); err != nil {
				return err
			}

		case pipeline.PushOp:
			cntRef := pipeline.ArrayCount(op.Base)
			cntV := s.phv.Get(cntRef)
			if err := s.pin(s.symOf(cntRef), cntV, s.site("push "+op.Base+" count")); err != nil {
				return err
			}
			v, t, err := s.eval(op.Src)
			if err != nil {
				return err
			}
			cnt := int(cntV.V)
			if cnt < op.Cap {
				s.setField(pipeline.ArraySlot(op.Base, cnt), op.ElemWidth, v.V, t)
				s.setConst(cntRef, pipeline.B(8, uint64(cnt+1)))
				continue
			}
			// Full: shift out the oldest element (raw copies, like the
			// interpreter's PHV-to-PHV moves).
			for i := 0; i+1 < op.Cap; i++ {
				src := pipeline.ArraySlot(op.Base, i+1)
				dst := pipeline.ArraySlot(op.Base, i)
				s.phv.Set(dst, s.phv.Get(src))
				s.sym[dst] = s.symOf(src)
			}
			s.setField(pipeline.ArraySlot(op.Base, op.Cap-1), op.ElemWidth, v.V, t)

		case pipeline.SetSlotOp:
			idxV, idxT, err := s.eval(op.Index)
			if err != nil {
				return err
			}
			if err := s.pin(idxT, idxV, s.site("slot "+op.Base+" index")); err != nil {
				return err
			}
			idx := int(idxV.V)
			if idx < 0 || idx >= op.Cap {
				continue // out-of-range writes are dropped, as on hardware
			}
			v, t, err := s.eval(op.Src)
			if err != nil {
				return err
			}
			s.setField(pipeline.ArraySlot(op.Base, idx), op.ElemWidth, v.V, t)
			cntRef := pipeline.ArrayCount(op.Base)
			cntV := s.phv.Get(cntRef)
			if err := s.pin(s.symOf(cntRef), cntV, s.site("slot "+op.Base+" count")); err != nil {
				return err
			}
			if cnt := int(cntV.V); idx >= cnt {
				s.setConst(cntRef, pipeline.B(8, uint64(idx+1)))
			}

		case pipeline.ReportOp:
			args := make([]uint64, len(op.Args))
			for i, a := range op.Args {
				v, _, err := s.eval(a)
				if err != nil {
					return err
				}
				args[i] = v.V
			}
			s.reports = append(s.reports, args)

		default:
			return fmt.Errorf("symexec: unmodeled op %T", op)
		}
	}
	return nil
}

// execApply mirrors the table-apply op: key terms are constrained
// against the (deterministically ordered) entry snapshot — equality
// with the hit entry, or disequality with every entry on a miss — and
// the outcome is cross-checked against the real table.
func (s *execState) execApply(op pipeline.ApplyOp) error {
	snap := s.ex.tables[s.sw][op.Table]
	if snap == nil {
		return fmt.Errorf("symexec: apply of unmodeled table %q on switch %d", op.Table, s.sw)
	}
	tbl := snap.tbl
	vals := make([]uint64, len(op.Keys))
	terms := make([]*Term, len(op.Keys))
	for i, k := range op.Keys {
		v, t, err := s.eval(k)
		if err != nil {
			return err
		}
		vals[i] = v.V
		terms[i] = t
	}

	matched := -1
	for ei := range snap.entries {
		ok := true
		for i := range vals {
			if snap.entries[ei].Keys[i].Value != vals[i] {
				ok = false
				break
			}
		}
		if ok {
			matched = ei
			break
		}
	}

	site := s.site("apply " + op.Table)
	if matched >= 0 {
		if err := s.branch(s.entryMatchTerm(tbl, terms, snap.entries[matched]), true, site); err != nil {
			return err
		}
	} else {
		for ei := range snap.entries {
			if err := s.branch(s.entryMatchTerm(tbl, terms, snap.entries[ei]), false, site); err != nil {
				return err
			}
		}
	}

	hit := matched >= 0
	action := tbl.Default
	if hit {
		action = snap.entries[matched].Action
	}
	// Cross-check the snapshot decision against the live table.
	realAction, realHit := tbl.Lookup(vals)
	if realHit != hit || len(realAction) != len(action) {
		return fmt.Errorf("symexec: table %q snapshot drift (hit %v vs %v)", op.Table, hit, realHit)
	}
	for i := range action {
		if realAction[i] != action[i] {
			return fmt.Errorf("symexec: table %q snapshot drift at output %d", op.Table, i)
		}
	}
	// Mirror the interpreter: action values are written as-is.
	for i, out := range tbl.Outputs {
		s.setConst(out, action[i])
	}
	s.setConst(tbl.HitField(), pipeline.BoolV(hit))
	return nil
}

// entryMatchTerm is the conjunction "every key column equals this
// entry's exact value". Exact matching compares raw values, so the
// entry constant keeps the installed value unmasked.
func (s *execState) entryMatchTerm(tbl *pipeline.Table, terms []*Term, e pipeline.Entry) *Term {
	conj := constTerm(pipeline.BoolV(true))
	for i, t := range terms {
		eq := binTerm(pipeline.OpEq, t, constTerm(pipeline.Value{W: tbl.Keys[i].Width, V: e.Keys[i].Value}))
		if i == 0 {
			conj = eq
			continue
		}
		conj = binTerm(pipeline.OpLAnd, conj, eq)
	}
	return conj
}
