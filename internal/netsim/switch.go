package netsim

import (
	"fmt"
	"sort"

	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// Egress is one forwarding decision: send the (possibly rewritten)
// packet out of Port.
type Egress struct {
	Port int
}

// PacketMeta is the per-packet metadata a forwarding program can read
// and set; the Hydra attachment also exposes parts of it as header
// variables (e.g. fabric_metadata.skip_forwarding for the to_be_dropped
// variable of Figure 9).
type PacketMeta struct {
	InPort int
	// Drop set by the forwarding program: the packet is dropped after
	// the egress pipeline (the checker still observes it, as the UPF
	// checker of Figure 9 requires).
	Drop bool
	// Extra carries program-specific header bindings for the checker,
	// keyed by annotation path.
	Extra map[string]pipeline.Value

	// egr backs OneEgress.
	egr [1]Egress
}

// OneEgress returns a single-entry egress slice backed by per-packet
// scratch, letting unicast forwarding programs return their decision
// without a per-hop allocation. The slice is valid until the switch
// finishes processing the packet.
func (m *PacketMeta) OneEgress(port int) []Egress {
	m.egr[0] = Egress{Port: port}
	return m.egr[:1]
}

// reset prepares the meta for a new packet.
func (m *PacketMeta) reset(inPort int) {
	m.InPort = inPort
	m.Drop = false
	m.Extra = nil
}

// ForwardingProgram is the switch's forwarding behavior — the analogue
// of the P4 program Hydra links with, and deliberately independent of
// the checker (§2: "This independence between forwarding and checking
// is key").
type ForwardingProgram interface {
	// Process inspects (and may rewrite) the packet and returns egress
	// decisions; returning nil drops the packet. The packet and meta are
	// borrowed from the switch: they must not be retained past the call.
	Process(sw *Switch, pkt *dataplane.Decoded, meta *PacketMeta) []Egress
}

// HydraAttachment links a compiled checker to a switch.
type HydraAttachment struct {
	Runtime *compiler.Runtime
	// State is this switch's tables and registers for the checker
	// program; the control plane installs entries into it.
	State *pipeline.State
	// OnReport receives report digests raised at this switch.
	OnReport func(sw *Switch, rep pipeline.Report)
	// Rejected counts packets dropped by the checker at this switch.
	Rejected uint64
	// Checked counts packets that ran the checker block here.
	Checked uint64

	// hop is this attachment's resident execution state, built by
	// AttachChecker.
	hop residentHop
}

// wireShape is a snapshot of everything that determines a packet's
// serialized layout: the layer validity flags and the lengths of the
// variable-size pieces. If the shape at egress equals the shape at
// parse, every byte offset in the frame is unchanged — telemetry and
// field rewrites can be serialized in place over the received frame.
type wireShape struct {
	hasHydra, hasVLAN, hasSourceRoute      bool
	hasIPv4, hasUDP, hasTCP, hasICMP       bool
	hasGTPU                                bool
	hasInnerIPv4, hasInnerUDP, hasInnerTCP bool
	hasInnerICMP                           bool
	blobLen, srHops, payloadLen            int
}

func shapeOf(pkt *dataplane.Decoded) wireShape {
	return wireShape{
		hasHydra:       pkt.HasHydra,
		hasVLAN:        pkt.HasVLAN,
		hasSourceRoute: pkt.HasSourceRoute,
		hasIPv4:        pkt.HasIPv4,
		hasUDP:         pkt.HasUDP,
		hasTCP:         pkt.HasTCP,
		hasICMP:        pkt.HasICMP,
		hasGTPU:        pkt.HasGTPU,
		hasInnerIPv4:   pkt.HasInnerIPv4,
		hasInnerUDP:    pkt.HasInnerUDP,
		hasInnerTCP:    pkt.HasInnerTCP,
		hasInnerICMP:   pkt.HasInnerICMP,
		blobLen:        len(pkt.Hydra.Blob),
		srHops:         len(pkt.SourceRoute),
		payloadLen:     len(pkt.Payload),
	}
}

// Switch is a programmable switch: a forwarding program, an optional
// Hydra checker, ports wired to links, and a fixed pipeline latency.
type Switch struct {
	ID   uint32
	Name string

	sim   *Simulator
	links map[int]*Link
	// EdgePorts marks host-facing ports: Hydra injects telemetry when a
	// packet enters on an edge port and strips + checks when it leaves
	// through one (§4.1).
	EdgePorts map[int]bool

	Forwarding ForwardingProgram
	// Checkers are the attached Hydra programs; several can be linked to
	// one switch (the §6.2 "all checkers" configuration), each with its
	// own fixed-size slice of the telemetry blob.
	Checkers []*HydraAttachment

	// NICOffload marks a fabric whose first/last-hop duties live on the
	// end hosts' NICs (the §4.1 future-work extension): the switch never
	// injects, strips, or checks — it only runs telemetry blocks.
	NICOffload bool

	// PipelineLatency models the fixed ingress+egress pipeline delay of
	// a hardware switch. It is constant by construction — a Tofino
	// pipeline takes the same time regardless of program — which is why
	// the paper finds no latency difference with checkers on (§6.2).
	PipelineLatency Time

	// Counters.
	RxFrames, TxFrames, Dropped uint64
	// ParseErrors counts undecodable frames.
	ParseErrors uint64
	// FastTxFrames counts frames sent via the in-place rewrite fast
	// path; SlowTxFrames counts full re-serializations (inject, strip,
	// encap/decap, source-route edits, multicast clones).
	FastTxFrames, SlowTxFrames uint64

	// origin is the stable simulator-assigned node ID: the switch's
	// deterministic event-ordering key and shard routing address.
	origin int32

	// Per-packet scratch. All of a switch's callbacks run on one event
	// loop (its shard, after Partition) and frame processing never
	// nests (Link.Send defers delivery through the event queue), so one
	// of each suffices per switch.
	dec       dataplane.Decoded
	meta      PacketMeta
	parts     [][]byte
	txBuf     []byte
	injectBuf []byte
	// blobSize is the wire size of the shared telemetry blob: the sum of
	// the attached checkers' slots.
	blobSize int
}

// NewSwitch creates a switch with the given identifier.
func NewSwitch(sim *Simulator, id uint32, name string) *Switch {
	sw := &Switch{
		ID:              id,
		Name:            name,
		sim:             sim,
		links:           map[int]*Link{},
		EdgePorts:       map[int]bool{},
		PipelineLatency: 500 * Nanosecond,
	}
	sw.origin = sim.registerNode(sw)
	return sw
}

// NodeName implements Node.
func (sw *Switch) NodeName() string { return sw.Name }

// AttachLink wires a link to a port.
func (sw *Switch) AttachLink(port int, l *Link) {
	if _, dup := sw.links[port]; dup {
		panic(fmt.Sprintf("netsim: %s port %d wired twice", sw.Name, port))
	}
	sw.links[port] = l
}

// Link returns the link on a port, or nil.
func (sw *Switch) Link(port int) *Link { return sw.links[port] }

// Ports returns the switch's wired ports in ascending order — the
// deterministic iteration companion to Link for topology discovery.
func (sw *Switch) Ports() []int {
	out := make([]int, 0, len(sw.links))
	for p := range sw.links {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Sim returns the simulator the switch runs in.
func (sw *Switch) Sim() *Simulator { return sw.sim }

// Receive implements Node: a frame arrived on `port`. The switch takes
// ownership of the frame and releases it after the pipeline runs.
func (sw *Switch) Receive(frame []byte, port int) {
	sw.RxFrames++
	sw.sim.atFrame(sw.sim.now+sw.PipelineLatency, (*switchPipe)(sw), frame, port, sw.origin)
}

// switchPipe is the frame sink running the switch pipeline; a separate
// type so Switch.Receive (link-side entry) and pipeline entry (after
// PipelineLatency) both exist without an extra object.
type switchPipe Switch

func (p *switchPipe) deliverFrame(frame []byte, port int) {
	(*Switch)(p).process(frame, port)
}

func (sw *Switch) process(frame []byte, inPort int) {
	defer sw.sim.ReleaseFrame(frame)
	pkt := &sw.dec
	if err := dataplane.ParseInto(pkt, frame); err != nil {
		sw.ParseErrors++
		return
	}
	meta := &sw.meta
	meta.reset(inPort)
	// Shape snapshot for the egress fast path: taken before forwarding
	// so any layer the program adds/removes forces re-serialization.
	shape := shapeOf(pkt)

	// --- Hydra first-hop injection + init blocks. §4.2: "the init block
	// must be placed at the beginning of the ingress pipeline on
	// first-hop switches" — it therefore observes the packet before the
	// forwarding tables rewrite it (e.g. before the UPF decapsulates a
	// GTP tunnel, which the Figure 9 checker's init block relies on).
	firstHop := false
	if len(sw.Checkers) > 0 && !sw.NICOffload && !pkt.HasHydra && sw.EdgePorts[inPort] {
		sw.inject(pkt, meta, inPort)
		firstHop = true
	}

	// --- Forwarding (independent of checking).
	var egresses []Egress
	if sw.Forwarding != nil {
		egresses = sw.Forwarding.Process(sw, pkt, meta)
	}
	if len(egresses) == 0 && !meta.Drop {
		sw.Dropped++
		return
	}

	// --- Egress pipeline per output port: telemetry at every hop,
	// checker + strip at the last hop (edge egress port).
	for _, eg := range egresses {
		out, f := pkt, frame
		if len(egresses) > 1 {
			// Multicast: each copy carries independent telemetry, so it
			// gets its own storage (and no in-place frame).
			out, f = pkt.Clone(), nil
		}
		sw.egress(out, f, shape, meta, inPort, eg.Port, firstHop)
	}
	if meta.Drop && len(sw.Checkers) > 0 && len(egresses) == 0 {
		// The forwarding program dropped the packet outright with no
		// egress decision: the checker still observes it at this hop so
		// properties like Figure 9's can fire (modelled as an egress to
		// a drop port).
		sw.egress(pkt, nil, shape, meta, inPort, -1, firstHop)
	}
}

// inject runs first-hop injection: an empty Hydra header is inserted
// and every checker's init block encodes its telemetry slot directly
// into the switch's reused inject buffer.
func (sw *Switch) inject(pkt *dataplane.Decoded, meta *PacketMeta, inPort int) {
	pkt.InsertHydra(nil)
	pktLen := pkt.WireLen()
	if cap(sw.injectBuf) < sw.blobSize {
		sw.injectBuf = make([]byte, sw.blobSize)
	}
	blob := sw.injectBuf[:sw.blobSize]
	off := 0
	for _, at := range sw.Checkers {
		n := at.hop.size
		slot := blob[off : off+n : off+n]
		off += n
		// An empty incoming blob decodes to the zero telemetry image; the
		// init block's output is encoded straight into the slot.
		_, _, reports, err := at.hop.run(at.State, sw.ID, nil, slot[:0],
			at.hop.plan.bind(pkt, meta, inPort, -1), pktLen, true, false, compiler.BlockSet{Init: true})
		if err != nil {
			sw.ParseErrors++
			zeroFill(slot)
			continue
		}
		if at.OnReport != nil {
			for _, rep := range reports {
				at.OnReport(sw, rep)
			}
		}
	}
	pkt.Hydra.Blob = blob
}

// egress runs the per-hop egress pipeline for one output port. frame,
// when non-nil, is the received frame backing pkt's blob and payload;
// if the wire shape is unchanged the rewritten packet is serialized in
// place over it and sent without allocating.
func (sw *Switch) egress(pkt *dataplane.Decoded, frame []byte, shape wireShape, meta *PacketMeta, inPort, outPort int, firstHop bool) {
	// A packet leaving through a host-facing port — or being dropped by
	// the forwarding program — is at its last hop: the checker must run
	// now or never (the Figure 9 property explicitly inspects packets
	// the data plane decided to drop).
	lastHop := (outPort >= 0 && sw.EdgePorts[outPort]) || meta.Drop
	if sw.NICOffload {
		// The receiving NIC is the last hop; the switch only remains
		// responsible for packets it drops itself (they never reach a
		// NIC, so the violation must surface here or never).
		lastHop = meta.Drop
	}

	if len(sw.Checkers) > 0 && pkt.HasHydra {
		pktLen := pkt.WireLen()
		parts, inPlace := sw.splitBlob(pkt.Hydra.Blob)
		rejected := false
		for i, at := range sw.Checkers {
			check := lastHop || at.Runtime.CheckEveryHop
			// The in-place slots are disjoint capped subslices of the
			// blob, so each checker may encode into its own slot.
			var dst []byte
			if inPlace {
				dst = parts[i][:0]
			}
			out, reject, reports, err := at.hop.run(at.State, sw.ID, parts[i], dst,
				at.hop.plan.bind(pkt, meta, inPort, outPort), pktLen, firstHop, lastHop,
				compiler.BlockSet{Telemetry: true, Checker: check})
			if err != nil {
				// A checker execution error must never take down
				// forwarding; count it and forward unchecked.
				sw.ParseErrors++
				if inPlace {
					zeroFill(parts[i])
				} else if parts[i] == nil {
					parts[i] = make([]byte, at.hop.size)
				}
				continue
			}
			parts[i] = out
			if at.OnReport != nil {
				for _, rep := range reports {
					at.OnReport(sw, rep)
				}
			}
			if check {
				at.Checked++
			}
			if reject {
				at.Rejected++
				rejected = true
			}
		}
		if !inPlace {
			pkt.Hydra.Blob = joinBlobs(parts)
		}
		if rejected {
			return // a checker halts the packet (reject, §2)
		}
		if lastHop {
			pkt.StripHydra()
		}
	}

	if meta.Drop || outPort < 0 {
		sw.Dropped++
		return
	}
	link := sw.links[outPort]
	if link == nil {
		sw.Dropped++
		return
	}
	sw.TxFrames++
	// Fast path: same wire shape as at parse means every offset is
	// unchanged — rewrite the received frame in place (header field and
	// telemetry updates land at their old offsets; blob and payload
	// copies are identity memmoves). Inject, strip, encap/decap, and
	// source-route edits all change the shape and take the slow path.
	if frame != nil && pkt.WireLen() == len(frame) && shapeOf(pkt) == shape {
		sw.FastTxFrames++
		link.Send(sw, pkt.AppendTo(frame[:0]))
		return
	}
	sw.SlowTxFrames++
	sw.txBuf = pkt.AppendTo(sw.txBuf[:0])
	link.Send(sw, sw.txBuf)
}

// bindHeaders builds the checker's header-variable environment from the
// packet and metadata, using the standard annotation paths plus any
// program-specific extras.
//
// It survives as the map-based reference used by tests; the hot path
// binds through each attachment's bindPlan instead.
func (sw *Switch) bindHeaders(pkt *dataplane.Decoded, meta *PacketMeta, inPort, outPort int) map[string]pipeline.Value {
	h := BindPacketHeaders(pkt, map[string]pipeline.Value{
		"standard_metadata.ingress_port":  pipeline.B(8, uint64(inPort)),
		"standard_metadata.egress_port":   pipeline.B(8, uint64(maxInt(outPort, 0))),
		"fabric_metadata.skip_forwarding": pipeline.BoolV(meta.Drop),
	})
	for k, v := range meta.Extra {
		h[k] = v
	}
	return h
}

// BindPacketHeaders builds the packet-derived header bindings shared by
// switches and Hydra NICs; extra entries (may be nil) are merged in.
func BindPacketHeaders(pkt *dataplane.Decoded, extra map[string]pipeline.Value) map[string]pipeline.Value {
	h := map[string]pipeline.Value{}
	for k, v := range extra {
		h[k] = v
	}
	if pkt.HasVLAN {
		h["hdr.vlan_tag.vlan_id"] = pipeline.B(16, uint64(pkt.VLAN.VID))
	}
	if pkt.HasIPv4 {
		h["hdr.ipv4.$valid$"] = pipeline.BoolV(true)
		h["hdr.ipv4.src_addr"] = pipeline.B(32, uint64(pkt.IPv4.Src))
		h["hdr.ipv4.dst_addr"] = pipeline.B(32, uint64(pkt.IPv4.Dst))
		h["hdr.ipv4.protocol"] = pipeline.B(8, uint64(pkt.IPv4.Protocol))
	} else {
		h["hdr.ipv4.$valid$"] = pipeline.BoolV(false)
	}
	h["hdr.tcp.$valid$"] = pipeline.BoolV(pkt.HasTCP)
	if pkt.HasTCP {
		h["hdr.tcp.sport"] = pipeline.B(16, uint64(pkt.TCP.SrcPort))
		h["hdr.tcp.dport"] = pipeline.B(16, uint64(pkt.TCP.DstPort))
	}
	h["hdr.udp.$valid$"] = pipeline.BoolV(pkt.HasUDP && !pkt.HasGTPU)
	if pkt.HasUDP {
		h["hdr.udp.sport"] = pipeline.B(16, uint64(pkt.UDP.SrcPort))
		h["hdr.udp.dport"] = pipeline.B(16, uint64(pkt.UDP.DstPort))
	}
	h["hdr.inner_ipv4.$valid$"] = pipeline.BoolV(pkt.HasInnerIPv4)
	if pkt.HasInnerIPv4 {
		h["hdr.inner_ipv4.src_addr"] = pipeline.B(32, uint64(pkt.InnerIPv4.Src))
		h["hdr.inner_ipv4.dst_addr"] = pipeline.B(32, uint64(pkt.InnerIPv4.Dst))
		h["hdr.inner_ipv4.protocol"] = pipeline.B(8, uint64(pkt.InnerIPv4.Protocol))
	}
	h["hdr.inner_tcp.$valid$"] = pipeline.BoolV(pkt.HasInnerTCP)
	if pkt.HasInnerTCP {
		h["hdr.inner_tcp.dport"] = pipeline.B(16, uint64(pkt.InnerTCP.DstPort))
	}
	h["hdr.inner_udp.$valid$"] = pipeline.BoolV(pkt.HasInnerUDP)
	if pkt.HasInnerUDP {
		h["hdr.inner_udp.dport"] = pipeline.B(16, uint64(pkt.InnerUDP.DstPort))
	}
	h["hdr.srcRoutes[0].$valid$"] = pipeline.BoolV(pkt.HasSourceRoute && len(pkt.SourceRoute) > 0)
	if pkt.HasSourceRoute && len(pkt.SourceRoute) > 0 {
		h["hdr.srcRoutes[0].switch_id"] = pipeline.B(32, uint64(pkt.SourceRoute[0].SwitchID))
	}
	return h
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AttachChecker wires an already-compiled runtime plus fresh per-switch
// state to the switch and returns the attachment for control-plane use.
// Multiple checkers may be attached; their telemetry shares the Hydra
// header, each in a statically-sized slot.
func (sw *Switch) AttachChecker(rt *compiler.Runtime, onReport func(*Switch, pipeline.Report)) *HydraAttachment {
	at := &HydraAttachment{Runtime: rt, State: rt.Prog.NewState(), OnReport: onReport, hop: newResidentHop(rt, false)}
	sw.Checkers = append(sw.Checkers, at)
	sw.parts = nil // checker set changed: rebuild split scratch
	sw.blobSize += at.hop.size
	return at
}

// Checker returns the first attached checker, or nil.
func (sw *Switch) Checker() *HydraAttachment {
	if len(sw.Checkers) == 0 {
		return nil
	}
	return sw.Checkers[0]
}

// splitBlob slices the shared telemetry blob into per-checker slots,
// reusing the switch's scratch slice. When the blob length matches the
// attached checkers exactly, the slots are disjoint capped subslices of
// the blob and inPlace is true: checkers may encode telemetry back into
// them without reassembly. Otherwise (fresh empty blob, or a malformed
// length) the slots are detached and the caller must joinBlobs.
func (sw *Switch) splitBlob(blob []byte) (parts [][]byte, inPlace bool) {
	if cap(sw.parts) < len(sw.Checkers) {
		sw.parts = make([][]byte, len(sw.Checkers))
	}
	parts = sw.parts[:len(sw.Checkers)]
	if len(blob) == sw.blobSize && len(blob) > 0 {
		off := 0
		for i, at := range sw.Checkers {
			n := at.hop.size
			parts[i] = blob[off : off+n : off+n]
			off += n
		}
		return parts, true
	}
	for i := range parts {
		parts[i] = nil
	}
	if len(blob) == 0 {
		return parts, false
	}
	off := 0
	for i, at := range sw.Checkers {
		n := at.hop.size
		if off+n > len(blob) {
			// Malformed: reset every slot so DecodeTele zero-fills.
			for j := range parts {
				parts[j] = nil
			}
			return parts, false
		}
		parts[i] = blob[off : off+n]
		off += n
	}
	return parts, false
}

func joinBlobs(parts [][]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func zeroFill(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
