package bytecode

import (
	"fmt"
	"slices"

	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// The standard annotation paths a pipeline pass can bind, as positions in
// Stage.H: the three forwarding-metadata paths, which only an embedder
// with a forwarding context stores (a NIC leaves them absent), then the
// packet's own, which the two fills write.
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

// StdHeaderPaths names the standard paths, by H index.
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

// bindPair routes H[src] to PHV slot dst of the linked image.
type bindPair struct{ src, dst int32 }

// Stage is the Hydra half of one pipeline: every program an embedder runs
// — an engine shard's checkers, the attachments of a switch or a NIC —
// linked into one image (§4.2), with the one context that
// image ever runs on. An embedder runs its passes one after another and
// never nested, so the context, the header environment and the reports of
// a pass are the stage's own until the next pass. Every member has a VM
// form: an embedder refuses a program without one where it is attached.
// The image reads its tables and registers through Bind, which Run checks
// against Row and the scalar epoch at every pass.
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
	// H is the pass's header environment, a zero-width Value for a header
	// the packet does not carry: the standard paths, then one entry per
	// program-specific path some member binds (Index finds those). A fill
	// writes H[HVLANID:NumStdHeaders]; every other entry is the embedder's
	// to store, at the width its members declare the path.
	H []pipeline.Value

	index map[string]int32
	binds []bindPair
}

// Link links the members, in order, into one image on a fresh context.
func Link(members ...Member) *Stage {
	set := LinkSet(members)
	st := &Stage{
		Set:   set,
		Ctx:   set.NewCtx(),
		Row:   make([]*pipeline.State, len(members)),
		Bind:  new(Binding),
		index: map[string]int32{},
	}
	n := int32(NumStdHeaders)
	for bi, path := range set.bindings {
		src, ok := st.index[path]
		if !ok {
			if src = int32(slices.Index(StdHeaderPaths[:], path)); src < 0 {
				src = n
				n++
			}
			st.index[path] = src
		}
		st.binds = append(st.binds, bindPair{src: src, dst: set.bindSlots[bi]})
	}
	st.H = make([]pipeline.Value, n)
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

// Index returns the H entry of a path some member binds.
func (st *Stage) Index(path string) (int32, bool) {
	i, ok := st.index[path]
	return i, ok
}

// present is a bound header value, or the zero-width Value that marks a
// header the packet does not carry.
func present(ok bool, w int, v uint64) pipeline.Value {
	if !ok {
		return pipeline.Value{}
	}
	return pipeline.Value{W: w, V: v}
}

// FillPacket writes the packet-derived standard bindings: a field of a
// layer the packet lacks is absent, a layer's $valid$ bit is always bound.
func (st *Stage) FillPacket(pkt *dataplane.Decoded) {
	h := st.H
	h[HVLANID] = present(pkt.HasVLAN, 16, uint64(pkt.VLAN.VID))
	h[HIPv4Valid] = pipeline.BoolV(pkt.HasIPv4)
	h[HIPv4Src] = present(pkt.HasIPv4, 32, uint64(pkt.IPv4.Src))
	h[HIPv4Dst] = present(pkt.HasIPv4, 32, uint64(pkt.IPv4.Dst))
	h[HIPv4Proto] = present(pkt.HasIPv4, 8, uint64(pkt.IPv4.Protocol))
	h[HTCPValid] = pipeline.BoolV(pkt.HasTCP)
	h[HTCPSport] = present(pkt.HasTCP, 16, uint64(pkt.TCP.SrcPort))
	h[HTCPDport] = present(pkt.HasTCP, 16, uint64(pkt.TCP.DstPort))
	// A GTP-U tunnel's outer UDP header is the tunnel's, not the flow's.
	h[HUDPValid] = pipeline.BoolV(pkt.HasUDP && !pkt.HasGTPU)
	h[HUDPSport] = present(pkt.HasUDP, 16, uint64(pkt.UDP.SrcPort))
	h[HUDPDport] = present(pkt.HasUDP, 16, uint64(pkt.UDP.DstPort))
	h[HInnerIPv4Valid] = pipeline.BoolV(pkt.HasInnerIPv4)
	h[HInnerIPv4Src] = present(pkt.HasInnerIPv4, 32, uint64(pkt.InnerIPv4.Src))
	h[HInnerIPv4Dst] = present(pkt.HasInnerIPv4, 32, uint64(pkt.InnerIPv4.Dst))
	h[HInnerIPv4Proto] = present(pkt.HasInnerIPv4, 8, uint64(pkt.InnerIPv4.Protocol))
	h[HInnerTCPValid] = pipeline.BoolV(pkt.HasInnerTCP)
	h[HInnerTCPDport] = present(pkt.HasInnerTCP, 16, uint64(pkt.InnerTCP.DstPort))
	h[HInnerUDPValid] = pipeline.BoolV(pkt.HasInnerUDP)
	h[HInnerUDPDport] = present(pkt.HasInnerUDP, 16, uint64(pkt.InnerUDP.DstPort))
	routed := pkt.HasSourceRoute && len(pkt.SourceRoute) > 0
	h[HSrcRoute0Valid] = pipeline.BoolV(routed)
	h[HSrcRoute0Switch] = pipeline.Value{}
	if routed {
		h[HSrcRoute0Switch] = pipeline.B(32, uint64(pkt.SourceRoute[0].SwitchID))
	}
}

// FillFlow is FillPacket for a packet known only by its 5-tuple: the
// plain frame the key describes — Ethernet, IPv4, the transport header
// k.Proto names and nothing else; the zero key is a frame that is not
// IPv4 (dataplane.FlowKeyOf). TestFlowFillIsPacketFill holds the two
// fills to each other.
func (st *Stage) FillFlow(k dataplane.FlowKey) {
	h := st.H
	clear(h[HVLANID:NumStdHeaders])
	ip4 := k != (dataplane.FlowKey{})
	tcp, udp := k.Proto == dataplane.ProtoTCP, k.Proto == dataplane.ProtoUDP
	h[HIPv4Valid] = pipeline.BoolV(ip4)
	h[HIPv4Src] = present(ip4, 32, uint64(k.Src))
	h[HIPv4Dst] = present(ip4, 32, uint64(k.Dst))
	h[HIPv4Proto] = present(ip4, 8, uint64(k.Proto))
	h[HTCPValid] = pipeline.BoolV(tcp)
	h[HTCPSport] = present(tcp, 16, uint64(k.Sport))
	h[HTCPDport] = present(tcp, 16, uint64(k.Dport))
	h[HUDPValid] = pipeline.BoolV(udp)
	h[HUDPSport] = present(udp, 16, uint64(k.Sport))
	h[HUDPDport] = present(udp, 16, uint64(k.Dport))
	h[HInnerIPv4Valid] = pipeline.BoolV(false)
	h[HInnerTCPValid] = pipeline.BoolV(false)
	h[HInnerUDPValid] = pipeline.BoolV(false)
	h[HSrcRoute0Valid] = pipeline.BoolV(false)
}

// Run is one pipeline pass over the telemetry in the context's slots:
// bring Bind up to date with Row and the scalar epoch, start the pass's
// reports, restore the scratch slots, install the hop's builtins, scatter
// the bound headers — an absent one leaves its slot at the restored
// template — and run the blocks b of every member through Bind, prologues
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
	// In locals: a store through the PHV would have the loop reload both
	// slice headers every pair.
	h, phv := st.H, c.PHV
	for _, bp := range st.binds {
		if v := h[bp.src]; v.W != 0 {
			phv[bp.dst] = v.V
		}
	}
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
