package bytecode

import (
	"fmt"
	"slices"

	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// The standard annotation paths a pipeline pass can bind, as a Stage's
// path indices: the three forwarding-metadata paths, which only an
// embedder with a forwarding context stores per pass (a NIC leaves them
// absent), then the packet's own, which the two fills write.
const (
	HInPort = iota
	HEgPort
	HSkipFwd

	HVLANID
	HIPv4Valid
	HIPv4Src
	HIPv4Dst
	HIPv4Proto
	HTCPValid
	HTCPSport
	HTCPDport
	HUDPValid
	HUDPSport
	HUDPDport
	HInnerIPv4Valid
	HInnerIPv4Src
	HInnerIPv4Dst
	HInnerIPv4Proto
	HInnerTCPValid
	HInnerTCPDport
	HInnerUDPValid
	HInnerUDPDport
	HSrcRoute0Valid
	HSrcRoute0Switch

	NumStdHeaders
)

// StdHeaderPaths names the standard paths, by path index.
var StdHeaderPaths = [NumStdHeaders]string{
	HInPort:          "standard_metadata.ingress_port",
	HEgPort:          "standard_metadata.egress_port",
	HSkipFwd:         "fabric_metadata.skip_forwarding",
	HVLANID:          "hdr.vlan_tag.vlan_id",
	HIPv4Valid:       "hdr.ipv4.$valid$",
	HIPv4Src:         "hdr.ipv4.src_addr",
	HIPv4Dst:         "hdr.ipv4.dst_addr",
	HIPv4Proto:       "hdr.ipv4.protocol",
	HTCPValid:        "hdr.tcp.$valid$",
	HTCPSport:        "hdr.tcp.sport",
	HTCPDport:        "hdr.tcp.dport",
	HUDPValid:        "hdr.udp.$valid$",
	HUDPSport:        "hdr.udp.sport",
	HUDPDport:        "hdr.udp.dport",
	HInnerIPv4Valid:  "hdr.inner_ipv4.$valid$",
	HInnerIPv4Src:    "hdr.inner_ipv4.src_addr",
	HInnerIPv4Dst:    "hdr.inner_ipv4.dst_addr",
	HInnerIPv4Proto:  "hdr.inner_ipv4.protocol",
	HInnerTCPValid:   "hdr.inner_tcp.$valid$",
	HInnerTCPDport:   "hdr.inner_tcp.dport",
	HInnerUDPValid:   "hdr.inner_udp.$valid$",
	HInnerUDPDport:   "hdr.inner_udp.dport",
	HSrcRoute0Valid:  "hdr.srcRoutes[0].$valid$",
	HSrcRoute0Switch: "hdr.srcRoutes[0].switch_id",
}

// Stage is the Hydra half of one pipeline: every program an embedder runs
// — an engine shard's checkers, the attachments of a switch or a NIC —
// linked into one image (§4.2), with the one context that
// image ever runs on. An embedder runs its passes one after another and
// never nested, so the context and the reports of a pass are the stage's
// own until the next pass. Every member has a VM form: an embedder refuses
// a program without one where it is attached. The image reads its tables
// and registers through Bind, which Run checks against Row and the scalar
// epoch at every pass.
//
// Headers are packet input, as a parser's output is on the switch: a
// fill writes every bound slot (a path the packet lacks reads zero),
// and between the passes of one packet only the per-pass paths change,
// stored through SetHeader after it. No pass restores or moves a header.
type Stage struct {
	Set *Set
	Ctx *Ctx
	// Row is the state each member runs against, by position. The
	// embedder stores it before a pass: a switch's control plane and the
	// fault injectors replace an attachment's State to wipe it, an engine
	// shard has one row per switch.
	Row []*pipeline.State
	// Bind is Row bound to Set. Link gives the stage one; an engine shard
	// keeps one beside each switch's row and stores it with the row.
	Bind *Binding
	// paths names the header paths by index: the standard ones, then
	// each program-specific path some member binds. fills is every bound
	// slot, by path: fills[at[i]:at[i+1]] are path i's, one per member
	// that binds it.
	paths []string
	fills []headerSlot
	at    []int32
}

// headerSlot is a bound PHV slot and the fill's source for it: its
// path's index, NumStdHeaders for a program-specific path.
type headerSlot struct{ slot, src int32 }

// Link links the members, in order, into one image on a fresh context.
func Link(members ...Member) *Stage {
	set := LinkSet(members)
	st := &Stage{
		Set:   set,
		Ctx:   set.NewCtx(),
		Row:   make([]*pipeline.State, len(members)),
		Bind:  new(Binding),
		paths: slices.Clone(StdHeaderPaths[:]),
	}
	for _, path := range set.bindings {
		if !slices.Contains(st.paths, path) {
			st.paths = append(st.paths, path)
		}
	}
	for i, path := range st.paths {
		st.at = append(st.at, int32(len(st.fills)))
		for bi, bound := range set.bindings {
			if bound == path {
				st.fills = append(st.fills, headerSlot{slot: set.bindSlots[bi], src: int32(min(i, NumStdHeaders))})
			}
		}
	}
	st.at = append(st.at, int32(len(st.fills)))
	return st
}

// Binding is a state row bound to a Set: the row's States, every apply
// site's table and every register site's register in site order, and per
// Blocks subset a snapshot of what that pass's lifted scalar loads wrote,
// in the order of its prologue's slots. The zero Binding is unbound.
// Stage.Run keeps it current before every pass: a row whose States are not
// the bound ones (a wipe, a relinked switch) re-resolves every site — and
// panics on a table whose key widths are not the ones its apply site packs
// for, or whose outputs are not at its output slots' widths, a check made
// per bind, never per packet — and drops the snapshots; a moved
// pipeline.ScalarEpoch drops the snapshots.
// A scattered snapshot is the pass's loads because nothing inside a pass
// writes a table; an install moves the epoch before it returns, so the
// next pass re-reads; the epoch is loaded before the loads it stamps, so a
// write racing them moves it again; and a State's tables and registers
// are fixed at NewState, so a State pointer still bound still resolves to
// the same sites.
type Binding struct {
	set    *Set
	row    []*pipeline.State
	tables []*pipeline.Table    // by apply site
	regs   []*pipeline.Register // by register site
	epoch  uint64
	fresh  uint8                       // bit b: snaps[b] holds pass b's loads at epoch
	snaps  [BlockChecker << 1][]uint64 // by Blocks
}

// bind brings bd up to date with s and row.
func (bd *Binding) bind(s *Set, row []*pipeline.State) {
	if bd.set != s || !slices.Equal(bd.row, row) {
		bd.set, bd.row, bd.fresh = s, append(bd.row[:0], row...), 0
		bd.tables, bd.regs = bd.tables[:0], bd.regs[:0]
		for _, a := range s.applies {
			t := row[a.member].Tables[a.name]
			if t == nil || !slices.EqualFunc(t.Keys, a.spec, func(x, y pipeline.KeySpec) bool { return x.Width == y.Width }) ||
				!slices.EqualFunc(t.Default, a.outs, func(d pipeline.Value, sl int32) bool { return d.W == int(s.widths[sl]) }) {
				panic(fmt.Sprintf("bytecode: member %d binds table %q missing or with other key or output widths than its apply site's (%v)", a.member, a.name, a.spec))
			}
			bd.tables = append(bd.tables, t)
		}
		for _, r := range s.regs {
			bd.regs = append(bd.regs, row[r.member].Registers[r.name])
		}
	}
	if e := pipeline.ScalarEpoch(); e != bd.epoch {
		bd.epoch, bd.fresh = e, 0
	}
}

// Paths names the header paths by index (shared backing; callers must
// not mutate).
func (st *Stage) Paths() []string { return st.paths }

// SetHeader writes v into every slot bound to path i: a per-pass path,
// stored after the fill, at the width its members declare the path.
func (st *Stage) SetHeader(i int, v uint64) {
	phv := st.Ctx.PHV
	for _, b := range st.fills[st.at[i]:st.at[i+1]] {
		phv[b.slot] = v
	}
}

// fill writes every bound slot from h, by the standard path's index; its
// last entry, a program-specific path's, stays zero.
func (st *Stage) fill(h *[NumStdHeaders + 1]uint64) {
	phv := st.Ctx.PHV
	for _, b := range st.fills {
		phv[b.slot] = h[b.src]
	}
}

// FillPacket writes every bound slot from the packet: a field of a layer
// it lacks reads zero, a layer's $valid$ bit is always bound.
func (st *Stage) FillPacket(pkt *dataplane.Decoded) {
	var h [NumStdHeaders + 1]uint64
	if pkt.HasVLAN {
		h[HVLANID] = uint64(pkt.VLAN.VID)
	}
	if pkt.HasIPv4 {
		h[HIPv4Valid], h[HIPv4Src], h[HIPv4Dst], h[HIPv4Proto] = 1, uint64(pkt.IPv4.Src), uint64(pkt.IPv4.Dst), uint64(pkt.IPv4.Protocol)
	}
	if pkt.HasTCP {
		h[HTCPValid], h[HTCPSport], h[HTCPDport] = 1, uint64(pkt.TCP.SrcPort), uint64(pkt.TCP.DstPort)
	}
	// A GTP-U tunnel's outer UDP header is the tunnel's, not the flow's.
	h[HUDPValid] = bit(pkt.HasUDP && !pkt.HasGTPU)
	if pkt.HasUDP {
		h[HUDPSport], h[HUDPDport] = uint64(pkt.UDP.SrcPort), uint64(pkt.UDP.DstPort)
	}
	if pkt.HasInnerIPv4 {
		h[HInnerIPv4Valid], h[HInnerIPv4Src], h[HInnerIPv4Dst], h[HInnerIPv4Proto] = 1, uint64(pkt.InnerIPv4.Src), uint64(pkt.InnerIPv4.Dst), uint64(pkt.InnerIPv4.Protocol)
	}
	if pkt.HasInnerTCP {
		h[HInnerTCPValid], h[HInnerTCPDport] = 1, uint64(pkt.InnerTCP.DstPort)
	}
	if pkt.HasInnerUDP {
		h[HInnerUDPValid], h[HInnerUDPDport] = 1, uint64(pkt.InnerUDP.DstPort)
	}
	if pkt.HasSourceRoute && len(pkt.SourceRoute) > 0 {
		h[HSrcRoute0Valid], h[HSrcRoute0Switch] = 1, uint64(pkt.SourceRoute[0].SwitchID)
	}
	st.fill(&h)
}

// FillFlow is FillPacket for a packet known only by its 5-tuple: the
// plain frame the key describes — Ethernet, IPv4, the transport header
// k.Proto names and nothing else; the zero key is a frame that is not
// IPv4 (dataplane.FlowKeyOf). TestFlowFillIsPacketFill holds the two
// fills to each other.
func (st *Stage) FillFlow(k dataplane.FlowKey) {
	var h [NumStdHeaders + 1]uint64
	if k != (dataplane.FlowKey{}) {
		h[HIPv4Valid], h[HIPv4Src], h[HIPv4Dst], h[HIPv4Proto] = 1, uint64(k.Src), uint64(k.Dst), uint64(k.Proto)
	}
	switch k.Proto {
	case dataplane.ProtoTCP:
		h[HTCPValid], h[HTCPSport], h[HTCPDport] = 1, uint64(k.Sport), uint64(k.Dport)
	case dataplane.ProtoUDP:
		h[HUDPValid], h[HUDPSport], h[HUDPDport] = 1, uint64(k.Sport), uint64(k.Dport)
	}
	st.fill(&h)
}

// Run is one pipeline pass over the telemetry and the headers in the
// context's slots: bring Bind up to date with Row and the scalar epoch,
// start the pass's reports, restore the scratch slots, install the hop's
// builtins and run the blocks b of every member through Bind, prologues
// first (no pass writes a table, so a lifted load reads what its block
// head would). It returns the pass's reject mask, bit k set iff member k
// rejected in this pass; its reports (Reports) and telemetry stay in the
// context until the next pass. That is the hop contract: an embedder reads
// a pass's verdict and reports there and nowhere else.
func (st *Stage) Run(switchID uint32, pktLen int, first, last bool, b Blocks) uint64 {
	set, c := st.Set, st.Ctx
	st.Bind.bind(set, st.Row)
	c.bind = st.Bind
	c.reports, c.owners, c.argArena = c.reports[:0], c.owners[:0], c.argArena[:0]
	set.BeginHop(c, switchID, pktLen, first, last)
	set.RunBlocks(c, b)
	return c.rejects
}

// Reports hands the last pass's reports to fn, one call per member that
// raised any, in member order (members run one after another, so each
// one's reports are one run), reps in the order raised. Their Args live in
// the context's arena until the next pass; fn copies what it keeps.
func (st *Stage) Reports(fn func(k int, reps []pipeline.Report)) {
	reps, owners := st.Ctx.reports, st.Ctx.owners
	for lo := 0; lo < len(reps); {
		hi := lo + 1
		for hi < len(reps) && owners[hi] == owners[lo] {
			hi++
		}
		fn(int(owners[lo]), reps[lo:hi])
		lo = hi
	}
}
