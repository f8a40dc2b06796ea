// Package aether models the Aether edge deployment of §5.2: a leaf-spine
// SDN fabric whose leaf switches implement the mobile core's User Plane
// Function (GTP-U tunnel termination, application filtering via shared
// Applications + per-client Terminations tables, Figure 11), an
// ONOS-like controller that translates per-client PFCP rules into table
// entries — including the shared-entry management bug the paper's
// checker caught — and the Hydra control-plane app that programs the
// Figure 9 checker's filtering_actions dictionary from operator intent.
package aether

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// Filtering actions carried in the checker's telemetry (Figure 9).
const (
	ActionDeny  uint8 = 1
	ActionAllow uint8 = 2
)

// UPF is the leaf-switch User Plane Function: Sessions tables terminate
// GTP tunnels, the shared Applications table classifies traffic into
// app IDs, and the per-client Terminations tables decide forward/drop
// (Figure 11). After UPF processing the packet is routed by the
// embedded L3 program.
type UPF struct {
	// Applications is shared by the clients of a slice: keys are
	// (slice_id exact, app ipv4 LPM, l4 port range, proto ternary),
	// the action sets app_id. Entries carry priorities.
	Applications *pipeline.Table
	// TermUplink and TermDownlink map (ue_id, app_id) to forward (1) or
	// drop (0); a miss drops (Figure 11: "Default drop").
	TermUplink   *pipeline.Table
	TermDownlink *pipeline.Table
	// SessUplink maps TEID -> (ue_id, slice_id); SessDownlink maps
	// UE IPv4 -> (ue_id, slice_id, downlink TEID).
	SessUplink   *pipeline.Table
	SessDownlink *pipeline.Table

	// UPFAddr is the tunnel endpoint address of this UPF; EnbAddr is the
	// base station the downlink tunnels lead to.
	UPFAddr dataplane.IP4
	EnbAddr dataplane.IP4

	// UEPrefix/UEPrefixBits is the address block of mobile clients;
	// packets destined there take the downlink path.
	UEPrefix     dataplane.IP4
	UEPrefixBits int

	// Routes performs the post-UPF L3 forwarding.
	Routes *netsim.L3Program

	// Accounting tracks per-UE traffic.
	Accounting *Accounting

	// Counters for the experiments.
	UplinkPkts, DownlinkPkts, FilteredDrops uint64
}

// NewUPF builds the UPF tables.
func NewUPF(upfAddr, enbAddr, uePrefix dataplane.IP4, uePrefixBits int) *UPF {
	return &UPF{
		Applications: pipeline.NewTable("applications",
			[]pipeline.KeySpec{
				{Name: "slice_id", Width: 8, Kind: pipeline.MatchExact},
				{Name: "app_ipv4", Width: 32, Kind: pipeline.MatchLPM},
				{Name: "l4_port", Width: 16, Kind: pipeline.MatchRange},
				{Name: "ip_proto", Width: 8, Kind: pipeline.MatchTernary},
			},
			[]pipeline.FieldRef{"fabric.app_id"},
			[]pipeline.Value{pipeline.B(8, 0)}),
		TermUplink:   newTermTable("terminations_uplink"),
		TermDownlink: newTermTable("terminations_downlink"),
		SessUplink: pipeline.NewTable("sessions_uplink",
			[]pipeline.KeySpec{{Name: "teid", Width: 32, Kind: pipeline.MatchExact}},
			[]pipeline.FieldRef{"fabric.ue_id", "fabric.slice_id"},
			[]pipeline.Value{pipeline.B(16, 0), pipeline.B(8, 0)}),
		SessDownlink: pipeline.NewTable("sessions_downlink",
			[]pipeline.KeySpec{{Name: "ue_ipv4", Width: 32, Kind: pipeline.MatchExact}},
			[]pipeline.FieldRef{"fabric.ue_id", "fabric.slice_id", "fabric.teid"},
			[]pipeline.Value{pipeline.B(16, 0), pipeline.B(8, 0), pipeline.B(32, 0)}),
		UPFAddr:      upfAddr,
		EnbAddr:      enbAddr,
		UEPrefix:     uePrefix,
		UEPrefixBits: uePrefixBits,
		Routes:       &netsim.L3Program{},
		Accounting:   NewAccounting(),
	}
}

func newTermTable(name string) *pipeline.Table {
	return pipeline.NewTable(name,
		[]pipeline.KeySpec{
			{Name: "ue_id", Width: 16, Kind: pipeline.MatchExact},
			{Name: "app_id", Width: 8, Kind: pipeline.MatchExact},
		},
		[]pipeline.FieldRef{"fabric.term_fwd"},
		[]pipeline.Value{pipeline.B(1, 0)}) // default drop
}

// Process implements netsim.ForwardingProgram.
func (u *UPF) Process(sw *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	switch {
	case pkt.HasGTPU && pkt.HasInnerIPv4:
		return u.uplink(sw, pkt, meta)
	case pkt.HasIPv4 && pkt.IPv4.Dst.InPrefix(u.UEPrefix, u.UEPrefixBits):
		return u.downlink(sw, pkt, meta)
	default:
		return u.Routes.Process(sw, pkt, meta)
	}
}

func (u *UPF) uplink(sw *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	u.UplinkPkts++
	sess, hit := u.SessUplink.Lookup([]uint64{uint64(pkt.GTPU.TEID)})
	if !hit {
		meta.Drop = true
		return nil
	}
	ueID, sliceID := sess[0].V, sess[1].V

	// Classify on the *inner* (user) packet.
	proto := uint64(pkt.InnerIPv4.Protocol)
	dport := uint64(0)
	switch {
	case pkt.HasInnerUDP:
		dport = uint64(pkt.InnerUDP.DstPort)
	case pkt.HasInnerTCP:
		dport = uint64(pkt.InnerTCP.DstPort)
	}
	app, _ := u.Applications.Lookup([]uint64{sliceID, uint64(pkt.InnerIPv4.Dst), dport, proto})
	appID := app[0].V

	term, _ := u.TermUplink.Lookup([]uint64{ueID, appID})
	if !term[0].Bool() {
		u.FilteredDrops++
		meta.Drop = true
		return nil
	}

	u.Accounting.record(ueID, pkt.WireLen(), true)

	if err := pkt.DecapGTPU(); err != nil {
		meta.Drop = true
		return nil
	}
	return u.Routes.Process(sw, pkt, meta)
}

func (u *UPF) downlink(sw *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	u.DownlinkPkts++
	sess, hit := u.SessDownlink.Lookup([]uint64{uint64(pkt.IPv4.Dst)})
	if !hit {
		meta.Drop = true
		return nil
	}
	ueID, sliceID, teid := sess[0].V, sess[1].V, sess[2].V

	proto := uint64(pkt.IPv4.Protocol)
	sport := uint64(0)
	switch {
	case pkt.HasUDP:
		sport = uint64(pkt.UDP.SrcPort)
	case pkt.HasTCP:
		sport = uint64(pkt.TCP.SrcPort)
	}
	app, _ := u.Applications.Lookup([]uint64{sliceID, uint64(pkt.IPv4.Src), sport, proto})
	appID := app[0].V

	term, _ := u.TermDownlink.Lookup([]uint64{ueID, appID})
	if !term[0].Bool() {
		u.FilteredDrops++
		meta.Drop = true
		return nil
	}

	u.Accounting.record(ueID, pkt.WireLen(), false)

	if err := pkt.EncapGTPU(u.UPFAddr, u.EnbAddr, uint32(teid)); err != nil {
		meta.Drop = true
		return nil
	}
	return u.Routes.Process(sw, pkt, meta)
}

// String summarizes table occupancy, for the hydra-sim tool.
func (u *UPF) String() string {
	return fmt.Sprintf("UPF{apps=%d termUL=%d termDL=%d sessUL=%d sessDL=%d drops=%d}",
		u.Applications.Len(), u.TermUplink.Len(), u.TermDownlink.Len(),
		u.SessUplink.Len(), u.SessDownlink.Len(), u.FilteredDrops)
}
