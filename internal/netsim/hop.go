package netsim

import (
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/pipeline"
)

// residentHop is the execution state one attachment point (a checker on
// a switch, a Hydra NIC) owns for life: the program's VM form, a VM
// context nobody else touches, the header bind plan, and the
// attachment's telemetry slot size. The context lives here and not on
// the Runtime because a Runtime is shared by every switch it is
// attached to — and, after Partition, by several shard goroutines —
// while an attachment's callbacks all run on one event loop and never
// nest.
type residentHop struct {
	rt *compiler.Runtime
	// vp is nil when the runtime has no VM form (NoLink, or a program
	// the VM cannot compile); hops then run on the map reference.
	vp   *bytecode.Prog
	ctx  *bytecode.Ctx
	plan *bindPlan
	// size is the wire size of this program's telemetry slot.
	size int
}

func newResidentHop(rt *compiler.Runtime, packetOnly bool) residentHop {
	h := residentHop{
		rt:   rt,
		vp:   rt.VM(),
		plan: newBindPlan(rt, packetOnly),
		size: (rt.Prog.TeleWireBits() + 7) / 8,
	}
	if h.vp != nil {
		h.ctx = h.vp.NewCtx()
	}
	return h
}

// run executes the selected blocks for one hop: the telemetry in `in`
// (empty at the first hop) is decoded, and the outgoing telemetry is
// encoded into dst's storage when that is large enough — callers pass
// in[:0] of a slot capped at h.size to rewrite a blob in place — and
// into fresh storage otherwise. The reports (and the Args inside them)
// live in the context's arena: the caller delivers them before the next
// run on this attachment.
func (h *residentHop) run(st *pipeline.State, id uint32, in, dst []byte, hdrs []pipeline.Value,
	pktLen int, first, last bool, bs compiler.BlockSet) (out []byte, reject bool, reports []pipeline.Report, err error) {
	if h.vp == nil {
		hr, err := h.rt.RunBlocks(in, compiler.HopEnv{
			State: st, SwitchID: id, SlotHeaders: hdrs, PacketLen: uint32(pktLen),
		}, bs, first, last)
		if err != nil {
			return nil, false, nil, err
		}
		// The map reference returns fresh storage.
		if cap(dst) >= len(hr.Blob) {
			hr.Blob = append(dst[:0], hr.Blob...)
		}
		return hr.Blob, hr.Reject, hr.Reports, nil
	}
	c := h.ctx
	c.BeginEphemeralReports()
	out, err = h.vp.RunHop(c, st, in, dst, hdrs, id, pktLen, first, last, bs.Blocks())
	if err != nil {
		return nil, false, nil, err
	}
	return out, h.vp.Reject(c), c.Reports, nil
}
