package netsim

import (
	"slices"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// The standard annotation paths a pipeline pass can bind, as positions in
// hopStage.hvals: the three forwarding-metadata paths, which a NIC — it
// has no forwarding context — leaves absent, then the packet's own.
const (
	hInPort = iota
	hEgPort
	hSkipFwd

	hVLANID
	hIPv4Valid
	hIPv4Src
	hIPv4Dst
	hIPv4Proto
	hTCPValid
	hTCPSport
	hTCPDport
	hUDPValid
	hUDPSport
	hUDPDport
	hInnerIPv4Valid
	hInnerIPv4Src
	hInnerIPv4Dst
	hInnerIPv4Proto
	hInnerTCPValid
	hInnerTCPDport
	hInnerUDPValid
	hInnerUDPDport
	hSrcRoute0Valid
	hSrcRoute0Switch

	numStdHdrs
)

var stdHdrPaths = [numStdHdrs]string{
	hInPort:          "standard_metadata.ingress_port",
	hEgPort:          "standard_metadata.egress_port",
	hSkipFwd:         "fabric_metadata.skip_forwarding",
	hVLANID:          "hdr.vlan_tag.vlan_id",
	hIPv4Valid:       "hdr.ipv4.$valid$",
	hIPv4Src:         "hdr.ipv4.src_addr",
	hIPv4Dst:         "hdr.ipv4.dst_addr",
	hIPv4Proto:       "hdr.ipv4.protocol",
	hTCPValid:        "hdr.tcp.$valid$",
	hTCPSport:        "hdr.tcp.sport",
	hTCPDport:        "hdr.tcp.dport",
	hUDPValid:        "hdr.udp.$valid$",
	hUDPSport:        "hdr.udp.sport",
	hUDPDport:        "hdr.udp.dport",
	hInnerIPv4Valid:  "hdr.inner_ipv4.$valid$",
	hInnerIPv4Src:    "hdr.inner_ipv4.src_addr",
	hInnerIPv4Dst:    "hdr.inner_ipv4.dst_addr",
	hInnerIPv4Proto:  "hdr.inner_ipv4.protocol",
	hInnerTCPValid:   "hdr.inner_tcp.$valid$",
	hInnerTCPDport:   "hdr.inner_tcp.dport",
	hInnerUDPValid:   "hdr.inner_udp.$valid$",
	hInnerUDPDport:   "hdr.inner_udp.dport",
	hSrcRoute0Valid:  "hdr.srcRoutes[0].$valid$",
	hSrcRoute0Switch: "hdr.srcRoutes[0].switch_id",
}

// present is a bound header value, or the zero-width Value that marks a
// header the packet does not carry.
func present(ok bool, w int, v uint64) pipeline.Value {
	if !ok {
		return pipeline.Value{}
	}
	return pipeline.Value{W: w, V: v}
}

// fillPacketHeaders writes the packet-derived standard bindings into
// h[hVLANID:numStdHdrs]: a field of a layer the packet lacks is absent,
// a layer's $valid$ bit is always bound.
func fillPacketHeaders(h []pipeline.Value, pkt *dataplane.Decoded) {
	h[hVLANID] = present(pkt.HasVLAN, 16, uint64(pkt.VLAN.VID))
	h[hIPv4Valid] = pipeline.BoolV(pkt.HasIPv4)
	h[hIPv4Src] = present(pkt.HasIPv4, 32, uint64(pkt.IPv4.Src))
	h[hIPv4Dst] = present(pkt.HasIPv4, 32, uint64(pkt.IPv4.Dst))
	h[hIPv4Proto] = present(pkt.HasIPv4, 8, uint64(pkt.IPv4.Protocol))
	h[hTCPValid] = pipeline.BoolV(pkt.HasTCP)
	h[hTCPSport] = present(pkt.HasTCP, 16, uint64(pkt.TCP.SrcPort))
	h[hTCPDport] = present(pkt.HasTCP, 16, uint64(pkt.TCP.DstPort))
	// A GTP-U tunnel's outer UDP header is the tunnel's, not the flow's.
	h[hUDPValid] = pipeline.BoolV(pkt.HasUDP && !pkt.HasGTPU)
	h[hUDPSport] = present(pkt.HasUDP, 16, uint64(pkt.UDP.SrcPort))
	h[hUDPDport] = present(pkt.HasUDP, 16, uint64(pkt.UDP.DstPort))
	h[hInnerIPv4Valid] = pipeline.BoolV(pkt.HasInnerIPv4)
	h[hInnerIPv4Src] = present(pkt.HasInnerIPv4, 32, uint64(pkt.InnerIPv4.Src))
	h[hInnerIPv4Dst] = present(pkt.HasInnerIPv4, 32, uint64(pkt.InnerIPv4.Dst))
	h[hInnerIPv4Proto] = present(pkt.HasInnerIPv4, 8, uint64(pkt.InnerIPv4.Protocol))
	h[hInnerTCPValid] = pipeline.BoolV(pkt.HasInnerTCP)
	h[hInnerTCPDport] = present(pkt.HasInnerTCP, 16, uint64(pkt.InnerTCP.DstPort))
	h[hInnerUDPValid] = pipeline.BoolV(pkt.HasInnerUDP)
	h[hInnerUDPDport] = present(pkt.HasInnerUDP, 16, uint64(pkt.InnerUDP.DstPort))
	routed := pkt.HasSourceRoute && len(pkt.SourceRoute) > 0
	h[hSrcRoute0Valid] = pipeline.BoolV(routed)
	h[hSrcRoute0Switch] = pipeline.Value{}
	if routed {
		h[hSrcRoute0Switch] = pipeline.B(32, uint64(pkt.SourceRoute[0].SwitchID))
	}
}

// bindPair routes hvals[src] to PHV slot dst of the linked image.
type bindPair struct{ src, dst int32 }

// hopStage is the Hydra half of one pipeline: everything attached to a
// switch — or the one program of a Hydra NIC — linked into one image
// (§4.2), with the one VM context that image ever runs on. A switch's
// callbacks all run on one event loop and never nest, so the context, the
// header values and the reports of a pass are the stage's own until the
// next pass. An attachment whose runtime has no VM form is not in the
// image: its telemetry slot stays zero and every hop counts it in skipped.
type hopStage struct {
	set *bytecode.Set
	ctx *bytecode.Ctx
	// row is the state each member runs against, by attachment index. The
	// owner refills it before every pass: the control plane and the fault
	// injectors replace an attachment's State to wipe it.
	row []*pipeline.State
	// hvals is the pass's header environment: the standard paths, then one
	// entry per program-specific path some member binds, which only
	// PacketMeta.Extra ever fills. index finds either kind by path.
	hvals   []pipeline.Value
	index   map[string]int32
	binds   []bindPair
	skipped uint64
}

func linkStage(rts []*compiler.Runtime) *hopStage {
	st := &hopStage{row: make([]*pipeline.State, len(rts)), index: map[string]int32{}}
	members := make([]bytecode.Member, len(rts))
	for i, rt := range rts {
		members[i] = bytecode.Member{Prog: rt.VM(), Index: i, CheckEveryHop: rt.CheckEveryHop, TeleBytes: (rt.Prog.TeleWireBits() + 7) / 8}
		if members[i].Prog == nil {
			st.skipped++
		}
	}
	st.set = bytecode.LinkSet(members)
	st.ctx = st.set.NewCtx()
	n := int32(numStdHdrs)
	slots := st.set.BindSlots()
	for bi, path := range st.set.Bindings() {
		src, ok := st.index[path]
		if !ok {
			if src = int32(slices.Index(stdHdrPaths[:], path)); src < 0 {
				src = n
				n++
			}
			st.index[path] = src
		}
		st.binds = append(st.binds, bindPair{src: src, dst: slots[bi]})
	}
	st.hvals = make([]pipeline.Value, n)
	return st
}

// bind fills the header environment of one pass from the packet as it is
// now — before forwarding at ingress, after it at egress. meta is nil on
// a NIC; outPort is negative for a packet with no egress port. A
// program-specific binding in meta.Extra overrides a standard one.
func (st *hopStage) bind(pkt *dataplane.Decoded, meta *PacketMeta, inPort, outPort int) {
	h := st.hvals
	fillPacketHeaders(h, pkt)
	clear(h[numStdHdrs:])
	if meta == nil {
		clear(h[:hVLANID])
		return
	}
	h[hInPort] = pipeline.B(8, uint64(inPort))
	h[hEgPort] = pipeline.B(8, uint64(max(outPort, 0)))
	h[hSkipFwd] = pipeline.BoolV(meta.Drop)
	for path, v := range meta.Extra {
		if i, ok := st.index[path]; ok {
			h[i] = v
		}
	}
}

// run is one pipeline pass: decode the telemetry in `in` (empty at the
// first hop), restore the scratch slots, scatter the bound headers, run
// the blocks of every member. A blob shorter than the image's fails
// before anything runs. The verdicts, the reports (st.ctx.Reports, by
// st.ctx.Owners) and the telemetry to encode stay in the context until
// the next pass.
func (st *hopStage) run(in []byte, id uint32, pktLen int, first, last bool, b bytecode.Blocks) error {
	set, c := st.set, st.ctx
	if err := set.DecodeTele(in, c.PHV); err != nil {
		return err
	}
	c.BeginEphemeralReports()
	set.BeginHop(c, st.row, id, pktLen, first, last)
	for _, bp := range st.binds {
		if v := st.hvals[bp.src]; v.W != 0 {
			c.PHV[bp.dst] = v
		}
	}
	set.RunBlocks(c, b)
	return nil
}
