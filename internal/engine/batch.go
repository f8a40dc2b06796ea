package engine

import (
	"repro/internal/bytecode"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// Batched bytecode-VM execution.
//
// The per-packet path (process) is hop-major: every checker decodes its
// telemetry blob, executes one hop, and re-encodes, packet by packet.
// The batched path amortizes the per-packet fixed costs over a whole
// submission batch and drops the codec entirely:
//
//   - checker-major order: one checker runs over every packet in the
//     batch before the next checker starts, so its bytecode, side
//     tables, and persistent Ctx stay hot in cache;
//   - resident PHV: BeginTrace/BeginHop reset the PHV from the
//     program's template between hops instead of encode/decode through
//     the wire codec (byte-equivalent because every telemetry write is
//     width-masked on store);
//   - per-batch table-version check: BeginBatch revalidates the TCAM
//     memo caches once, and lookups inside the batch skip the version
//     poll (concurrent Install becomes visible with at most one batch
//     of delay);
//   - one persistent Ctx per checker with ephemeral report arenas, so
//     steady state allocates nothing per packet.
//
// Checker-major order changes when a reject can halt a trace: the
// hop-major path stops executing remaining hops once any checker
// rejects. The batched path is therefore only enabled when every
// checker (a) has a bytecode form, (b) checks only the last hop, and
// (c) can set hydra.reject exclusively in its checker block
// (Prog.RejectOnlyInChecker). Under those conditions a reject can first
// become observable after the final hop, where "halt remaining hops" is
// a no-op, so counts, verdicts, and report multisets are identical to
// the per-packet path; only the ordering of Engine.Reports() differs
// (checker-major within a batch rather than hop-major within a packet),
// and it remains deterministic for a given shard count.

// setupBatch decides whether this shard can use the batched VM path and
// builds the per-checker execution state if so.
func (s *shard) setupBatch() {
	if s.cfg.NoBatch || len(s.cfg.Checkers) == 0 {
		return
	}
	n := len(s.cfg.Checkers)
	progs := make([]*bytecode.Prog, n)
	for i, c := range s.cfg.Checkers {
		vp := c.RT.VM()
		if vp == nil || c.RT.CheckEveryHop || !vp.RejectOnlyInChecker() {
			return
		}
		progs[i] = vp
	}
	s.batchVM = true
	s.vmProgs = progs
	s.vmCtxs = make([]*bytecode.Ctx, n)
	s.vmBinds = make([][]bindPair, n)
	s.hot = make([][]swEnt, n)
	for i, vp := range progs {
		s.vmCtxs[i] = vp.NewCtx()
		slots := vp.BindSlots()
		for bi, path := range vp.Bindings() {
			for src, p := range stdHdrPaths {
				if p == path {
					s.vmBinds[i] = append(s.vmBinds[i], bindPair{src: src, dst: int(slots[bi])})
					break
				}
			}
		}
	}
}

// hotState resolves per-(checker, switch) state through a small
// linear-scan cache. Campus traces touch 3-4 switches, so the scan is
// 1-2 compares in practice — cheaper than the map hash in s.state, and
// safe to cache because the states maps only ever grow (a *State
// pointer, once created, is never replaced).
func (s *shard) hotState(ci int, switchID uint32) *pipeline.State {
	hot := s.hot[ci]
	for j := range hot {
		if hot[j].id == switchID {
			return hot[j].st
		}
	}
	st := s.state(ci, switchID)
	s.hot[ci] = append(hot, swEnt{id: switchID, st: st})
	return st
}

// processBatch runs every checker over every packet of the batch in
// checker-major order. See the package comment above for the parity
// argument.
func (s *shard) processBatch(batch []Packet) {
	n := len(batch)
	if cap(s.hvBuf) < n {
		s.hvBuf = make([][numStdHdrs]pipeline.Value, n)
		s.rejBuf = make([]bool, n)
		s.repBuf = make([]int32, n)
	}
	hv := s.hvBuf[:n]
	rej := s.rejBuf[:n]
	rep := s.repBuf[:n]
	for i := range batch {
		fillHvals(&batch[i], &hv[i])
		rej[i] = false
		rep[i] = 0
	}
	for ci := range s.vmProgs {
		vp := s.vmProgs[ci]
		c := s.vmCtxs[ci]
		vp.BeginBatch(c)
		for pi := range batch {
			s.runVMTrace(ci, &batch[pi], &hv[pi], pi)
		}
	}
	for pi := range batch {
		p := &batch[pi]
		s.counts.Packets++
		if rej[pi] {
			s.counts.Rejected++
		} else {
			s.counts.Forwarded++
		}
		if s.cfg.Verdicts != nil && p.Index >= 0 {
			s.cfg.Verdicts[p.Index] = Verdict{Reject: rej[pi], Reports: rep[pi]}
		}
	}
}

// runVMTrace executes one checker over one packet's full path with a
// resident PHV, publishing reports per hop as the per-packet path does.
func (s *shard) runVMTrace(ci int, p *Packet, hv *[numStdHdrs]pipeline.Value, pi int) {
	vp := s.vmProgs[ci]
	c := s.vmCtxs[ci]
	c.BeginEphemeralReports()
	vp.BeginTrace(c)
	binds := s.vmBinds[ci]
	reported := 0
	nHops := len(p.Hops)
	for h := 0; h < nHops; h++ {
		hop := &p.Hops[h]
		first, last := h == 0, h == nHops-1
		hv[hdrInPort] = pipeline.B(8, uint64(hop.InPort))
		hv[hdrEgPort] = pipeline.B(8, uint64(hop.OutPort))
		vp.BeginHop(c, s.hotState(ci, hop.SwitchID), hop.SwitchID, int(p.Len), first, last)
		for _, bp := range binds {
			c.PHV[bp.dst] = hv[bp.src]
		}
		if first {
			vp.ExecInit(c)
		}
		vp.ExecTelemetry(c)
		if last {
			vp.ExecChecker(c)
		}
		if nr := len(c.Reports) - reported; nr > 0 {
			s.counts.Reports += uint64(nr)
			s.perChecker[ci].Reports += uint64(nr)
			s.repBuf[pi] += int32(nr)
			name := s.cfg.Checkers[ci].Name
			if s.prod != nil {
				at := s.cfg.ReportBus.Now()
				for _, r := range c.Reports[reported:] {
					s.prod.Publish(reportbus.DigestFrom(name, hop.SwitchID, at, r))
				}
			}
			if s.cfg.KeepReports {
				for _, r := range c.Reports[reported:] {
					args := make([]uint64, len(r.Args))
					for j, a := range r.Args {
						args[j] = a.V
					}
					s.reports = append(s.reports, Report{
						Checker:  name,
						SwitchID: hop.SwitchID,
						Args:     args,
					})
				}
			}
			reported = len(c.Reports)
		}
	}
	// The checker block only runs at the last hop and the PHV is still
	// live, so the reject flag is read once after the loop.
	if vp.Reject(c) {
		s.rejBuf[pi] = true
		s.perChecker[ci].Rejected++
	}
}
