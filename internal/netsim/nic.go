package netsim

import (
	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// HydraNIC implements the extension §4.1 leaves to future work: "In
// principle, we could delegate these 'last-hop' and 'first-hop' tasks
// to the NIC at end hosts." The sending host's NIC injects the
// telemetry header and runs the init block; the receiving host's NIC
// runs the checker block, enforces reject, and strips the header before
// the packet reaches the host stack. Placement is per port and derived:
// the switch in front of a host with a Hydra NIC does not inject its
// packets (they arrive with a header) and does not check or strip the
// packets it sends it, so a fabric whose hosts all have NICs only runs
// the telemetry block, which §4.3 notes makes Hydra deployable on cores
// that "are not fully programmable but can run telemetry". A switch
// still checks a packet its forwarding drops: it never reaches a NIC.
type HydraNIC struct {
	Runtime *compiler.Runtime
	State   *pipeline.State
	// OnReport receives digests raised at this NIC.
	OnReport func(h *Host, rep pipeline.Report)

	Injected uint64
	Checked  uint64
	Rejected uint64

	// stage is the one-member image of Runtime (its header environment is
	// the packet fill alone: a NIC has no forwarding metadata); blob is the
	// reused injection buffer.
	stage *bytecode.Stage
	blob  []byte
}

// AttachNIC wires a Hydra NIC to the host, with fresh per-NIC state. It
// panics on a runtime without a VM form, as AttachChecker does.
func (h *Host) AttachNIC(rt *compiler.Runtime, onReport func(*Host, pipeline.Report)) *HydraNIC {
	h.nic = &HydraNIC{Runtime: rt, State: rt.Prog.NewState(), OnReport: onReport, stage: bytecode.Link(rt.Member())}
	return h.nic
}

// NIC returns the attached Hydra NIC, or nil.
func (h *Host) NIC() *HydraNIC { return h.nic }

// nicPass runs one block of the NIC's program over the packet's telemetry
// and delivers the reports; NICs identify as their MAC. A blob shorter
// than the program's record is an error: counted, and nothing ran.
func (h *Host) nicPass(pkt *dataplane.Decoded, first bool, b bytecode.Blocks) bool {
	nic := h.nic
	st := nic.stage
	st.Row[0] = nic.State
	if err := st.Set.DecodeTele(pkt.Hydra.Blob, st.Ctx.PHV); err != nil {
		h.ParseErrs++
		return false
	}
	st.Ctx.BeginEphemeralReports()
	st.FillPacket(pkt)
	st.Run(uint32(h.MAC.Uint64()), pkt.WireLen(), first, !first, b)
	if nic.OnReport != nil {
		for _, rep := range st.Ctx.Reports {
			nic.OnReport(h, rep)
		}
	}
	return true
}

// nicEgress runs first-hop injection + init on an outgoing packet.
func (h *Host) nicEgress(pkt *dataplane.Decoded) {
	nic := h.nic
	if nic == nil || pkt.HasHydra {
		return
	}
	pkt.InsertHydra(nil)
	if !h.nicPass(pkt, true, bytecode.BlockInit) {
		return
	}
	nic.Injected++
	nic.blob = nic.stage.Set.EncodeTele(nic.blob[:0], nic.stage.Ctx.PHV)
	pkt.Hydra.Blob = nic.blob
}

// nicIngress runs the last-hop checker + strip on an incoming packet;
// it reports whether the packet survives. The telemetry is stripped or
// dropped with the packet, so nothing is encoded back.
func (h *Host) nicIngress(pkt *dataplane.Decoded) bool {
	nic := h.nic
	if nic == nil || !pkt.HasHydra {
		return true
	}
	if !h.nicPass(pkt, false, bytecode.BlockChecker) {
		pkt.StripHydra()
		return true
	}
	nic.Checked++
	if nic.stage.Set.Reject(nic.stage.Ctx, 0) {
		nic.Rejected++
		return false
	}
	pkt.StripHydra()
	return true
}
