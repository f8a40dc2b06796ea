package netsim

import (
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// HydraNIC implements the extension §4.1 leaves to future work: "In
// principle, we could delegate these 'last-hop' and 'first-hop' tasks
// to the NIC at end hosts." The sending host's NIC injects the
// telemetry header and runs the init block; the receiving host's NIC
// runs the checker block, enforces reject, and strips the header before
// the packet reaches the host stack. Fabric switches then only run the
// telemetry block (set Switch.NICOffload), which §4.3 notes makes Hydra
// deployable on cores that "are not fully programmable but can run
// telemetry".
type HydraNIC struct {
	Runtime *compiler.Runtime
	State   *pipeline.State
	// OnReport receives digests raised at this NIC.
	OnReport func(h *Host, rep pipeline.Report)

	Injected uint64
	Checked  uint64
	Rejected uint64

	// hop is the NIC's resident execution state; its bind plan is
	// packet-only (no forwarding metadata). blob is the reused
	// injection buffer.
	hop  residentHop
	blob []byte
}

// AttachNIC wires a Hydra NIC to the host, with fresh per-NIC state.
func (h *Host) AttachNIC(rt *compiler.Runtime, onReport func(*Host, pipeline.Report)) *HydraNIC {
	hop := newResidentHop(rt, true)
	h.nic = &HydraNIC{Runtime: rt, State: rt.Prog.NewState(), OnReport: onReport, hop: hop, blob: make([]byte, 0, hop.size)}
	return h.nic
}

// NIC returns the attached Hydra NIC, or nil.
func (h *Host) NIC() *HydraNIC { return h.nic }

// nicEgress runs first-hop injection + init on an outgoing packet.
func (h *Host) nicEgress(pkt *dataplane.Decoded) {
	nic := h.nic
	if nic == nil || pkt.HasHydra {
		return
	}
	pkt.InsertHydra(nil)
	// NICs identify as their MAC.
	out, _, reports, err := nic.hop.run(nic.State, uint32(h.MAC.Uint64()), nil, nic.blob[:0],
		nic.hop.plan.bind(pkt, nil, 0, 0), pkt.WireLen(), true, false, compiler.BlockSet{Init: true})
	if err != nil {
		h.ParseErrs++
		return
	}
	nic.Injected++
	pkt.Hydra.Blob = out
	if nic.OnReport != nil {
		for _, rep := range reports {
			nic.OnReport(h, rep)
		}
	}
}

// nicIngress runs the last-hop checker + strip on an incoming packet;
// it reports whether the packet survives.
func (h *Host) nicIngress(pkt *dataplane.Decoded) bool {
	nic := h.nic
	if nic == nil || !pkt.HasHydra {
		return true
	}
	// The blob aliases the received frame, which the host owns until
	// delivery completes — encoding into it is safe, but only when the
	// blob is exactly one telemetry record wide (encode always writes
	// that many bytes; a shorter foreign blob would spill into the frame
	// bytes that follow it).
	in := pkt.Hydra.Blob
	var dst []byte
	if len(in) == nic.hop.size {
		dst = in[:0]
	}
	_, reject, reports, err := nic.hop.run(nic.State, uint32(h.MAC.Uint64()), in, dst,
		nic.hop.plan.bind(pkt, nil, 0, 0), pkt.WireLen(), false, true, compiler.BlockSet{Checker: true})
	if err != nil {
		h.ParseErrs++
		pkt.StripHydra()
		return true
	}
	nic.Checked++
	if nic.OnReport != nil {
		for _, rep := range reports {
			nic.OnReport(h, rep)
		}
	}
	if reject {
		nic.Rejected++
		return false
	}
	pkt.StripHydra()
	return true
}
