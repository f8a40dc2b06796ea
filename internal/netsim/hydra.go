package netsim

import (
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// HydraAttachment links a compiled checker to a switch or to a host's
// NIC.
type HydraAttachment struct {
	Runtime *compiler.Runtime
	// State is this node's tables and registers for the checker program,
	// fixed at attach: the control plane installs entries into it, and a
	// wipe resets it in place (pipeline.State.Reset).
	State *pipeline.State
	// OnReport receives the report digests raised here.
	OnReport func(pipeline.Report)
	// Rejected counts packets dropped by the checker here.
	Rejected uint64
	// Checked counts packets that ran the checker block here.
	Checked uint64
}

// hydra is the Hydra code a switch and a host's NIC both run: the
// attached checkers linked into one image, and the passes over it. A
// switch takes the first- and last-hop duties (§4.1) on a port with a
// host behind it, unless that host's NIC has checkers attached: §4.1
// leaves to future work that "we could delegate these 'last-hop' and
// 'first-hop' tasks to the NIC at end hosts". Such a NIC injects and
// runs the init block on the packets its host sends, and checks, rejects
// and strips the ones it receives; the switch in front of it then runs
// only the telemetry block on them, which §4.3 notes makes Hydra
// deployable on cores that "are not fully programmable but can run
// telemetry". A switch still checks a packet its forwarding drops: it
// never reaches a NIC. A pass keeps bytecode.Stage's hop contract, as an
// engine shard does (see pass).
type hydra struct {
	// checkers are the attached programs; several can share a node (the
	// §6.2 "all checkers" configuration), each with its own fixed-size
	// slice of the telemetry blob. attach is the one writer.
	checkers []*HydraAttachment
	// stage is checkers linked into one image, nil until the next pass
	// after an attach, and bind is its binding to their States; see linked.
	stage *bytecode.Stage
	bind  *bytecode.Binding
	// injectBuf holds the blob of a packet this node injected. All of a
	// node's callbacks run on the one event loop, so one suffices.
	injectBuf []byte
}

// attach adds a checker with fresh state; the next pass relinks. It
// panics on a runtime without a VM form: a program that does not compile
// is refused here, never linked around.
func (hy *hydra) attach(rt *compiler.Runtime, onReport func(pipeline.Report)) *HydraAttachment {
	rt.Member() // panics on a program without a VM form
	at := &HydraAttachment{Runtime: rt, State: rt.Prog.NewState(), OnReport: onReport}
	hy.checkers = append(hy.checkers, at)
	hy.stage = nil
	return at
}

// linked returns the checkers as one linked image, relinked and bound to
// the attachments' States after an attach. A State is fixed at attach (a
// wipe resets it in place), so the binding holds until the next attach.
func (hy *hydra) linked() *bytecode.Stage {
	if hy.stage == nil {
		members := make([]bytecode.Member, len(hy.checkers))
		row := make([]*pipeline.State, len(hy.checkers))
		for i, at := range hy.checkers {
			members[i], row[i] = at.Runtime.Member(), at.State
		}
		hy.stage = bytecode.Link(members...)
		hy.bind = hy.stage.Set.Bind(row)
	}
	return hy.stage
}

// pass runs one pipeline pass of the linked image over the packet as it is
// now — before forwarding at ingress, after it at egress; outPort is
// negative for a packet with no egress port — on the telemetry in the
// stage's PHV, which the caller decoded or left from the init pass. It
// hands each report to its attachment, counts each attachment's check and
// reject from the blocks run and bit k of Stage.Run's mask, and reports
// whether a checker rejected the packet. meta is nil at a NIC, which has
// no forwarding context and leaves the forwarding-metadata paths absent.
// The source-route entry forwarding popped, if any, is hdr.srcRoutes[0].
// A program-specific path is absent: nothing on the wire stores it.
func (hy *hydra) pass(st *bytecode.Stage, id uint32, pkt *dataplane.Decoded, meta *PacketMeta, inPort, outPort int, first, last bool, b bytecode.Blocks) bool {
	st.FillPacket(pkt)
	if meta != nil {
		if meta.HasPopped {
			st.SetHeader(bytecode.HSrcRoute0Valid, 1)
			st.SetHeader(bytecode.HSrcRoute0Switch, uint64(meta.Popped.SwitchID))
		}
		st.SetHeader(bytecode.HInPort, uint64(uint8(inPort)))
		st.SetHeader(bytecode.HEgPort, uint64(uint8(max(outPort, 0))))
		st.SetHeader(bytecode.HSkipFwd, pipeline.BoolV(meta.Drop).V)
	}
	rejects := st.Run(hy.bind, id, pkt.WireLen(), first, last, b)
	st.Reports(hy.deliver)
	for k, at := range hy.checkers {
		if b&bytecode.BlockChecker != 0 || at.Runtime.CheckEveryHop && b&bytecode.BlockTelemetry != 0 {
			at.Checked++
		}
		at.Rejected += rejects >> k & 1
	}
	return rejects != 0
}

// deliver hands attachment k's reports of a pass to its OnReport.
func (hy *hydra) deliver(k int, reps []pipeline.Report) {
	if at := hy.checkers[k]; at.OnReport != nil {
		for _, rep := range reps {
			at.OnReport(rep)
		}
	}
}

// inject runs first-hop injection: a Hydra header is inserted and every
// checker's init block runs over the decode-empty telemetry image. The
// telemetry stays in the stage's PHV, for a switch's egress pass to encode
// only if the packet leaves on the wire. Until then the header carries a
// zeroed blob of the image's size in the inject buffer, so the packet has
// its wire length for forwarding and the egress pass.
func (hy *hydra) inject(id uint32, pkt *dataplane.Decoded, meta *PacketMeta, inPort int) *bytecode.Stage {
	st := hy.linked()
	pkt.InsertHydra(nil)
	_ = st.Set.DecodeTele(nil, st.Ctx.PHV) // the decode-empty image
	// No verdict to read: Indus rejects only in a checker block.
	hy.pass(st, id, pkt, meta, inPort, -1, true, false, bytecode.BlockInit)
	n := st.Set.TeleWireBytes()
	if cap(hy.injectBuf) < n {
		hy.injectBuf = make([]byte, n)
	}
	pkt.Hydra.Blob = hy.injectBuf[:n]
	clear(pkt.Hydra.Blob)
	return st
}

// decode loads a received blob into the stage's PHV and returns the
// storage the hop's encode may rewrite in place, nil for none. A blob of
// exactly the image's size is rewritten in place; a shorter one is
// malformed and decodes as empty, a longer one loses its tail — both are
// checked as decoded and re-encoded into fresh storage.
func (hy *hydra) decode(st *bytecode.Stage, blob []byte) []byte {
	var dst []byte
	if n := st.Set.TeleWireBytes(); len(blob) == n {
		dst = blob[:0]
	} else if len(blob) < n {
		blob = nil
	}
	_ = st.Set.DecodeTele(blob, st.Ctx.PHV) // cannot fail: blob is empty or long enough
	return dst
}

// AttachNIC attaches a checker to the host's NIC, with fresh per-NIC
// state, and returns the attachment; a NIC may hold several. It panics on
// a runtime without a VM form, as AttachChecker does.
func (h *Host) AttachNIC(rt *compiler.Runtime, onReport func(pipeline.Report)) *HydraAttachment {
	return h.nic.attach(rt, onReport)
}

// nicID is the NIC's identity in its passes: the host's MAC.
func (h *Host) nicID() uint32 { return uint32(h.MAC.Uint64()) }

// nicEgress runs first-hop injection + init on an outgoing packet.
func (h *Host) nicEgress(pkt *dataplane.Decoded) {
	if len(h.nic.checkers) == 0 || pkt.HasHydra {
		return
	}
	st := h.nic.inject(h.nicID(), pkt, nil, 0)
	pkt.Hydra.Blob = st.Set.EncodeTele(pkt.Hydra.Blob[:0], st.Ctx.PHV)
}

// nicIngress runs the last-hop checker + strip on an incoming packet;
// it reports whether the packet survives. The telemetry is stripped or
// dropped with the packet, so nothing is encoded back.
func (h *Host) nicIngress(pkt *dataplane.Decoded) bool {
	nic := &h.nic
	if len(nic.checkers) == 0 || !pkt.HasHydra {
		return true
	}
	st := nic.linked()
	nic.decode(st, pkt.Hydra.Blob)
	if nic.pass(st, h.nicID(), pkt, nil, 0, 0, false, true, bytecode.BlockChecker) {
		return false
	}
	pkt.StripHydra()
	return true
}
