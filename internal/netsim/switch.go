package netsim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bytecode"
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

	// Per-packet scratch. All of a switch's callbacks run on the one
	// event loop and frame processing never nests (Link.Send defers
	// delivery through the event queue), so one of each suffices per
	// switch.
	dec       dataplane.Decoded
	meta      PacketMeta
	txBuf     []byte
	injectBuf []byte
	// stage is Checkers linked into one image and linked the runtime it
	// holds at each index; see hydra.
	stage  *bytecode.Stage
	linked []*compiler.Runtime
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
	sim.addNode()
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
	sw.sim.atFrame(sw.sim.now+sw.PipelineLatency, (*switchPipe)(sw), frame, port)
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

// hydra returns the switch's checkers as one linked image, relinked when
// Checkers no longer holds the runtimes it was linked from — one more was
// attached, or an entry was replaced — with the state row the attachments
// hold now.
func (sw *Switch) hydra() *bytecode.Stage {
	linkedFrom := func(rt *compiler.Runtime, at *HydraAttachment) bool { return rt == at.Runtime }
	if sw.stage == nil || !slices.EqualFunc(sw.linked, sw.Checkers, linkedFrom) {
		members := make([]bytecode.Member, len(sw.Checkers))
		sw.linked = sw.linked[:0]
		for i, at := range sw.Checkers {
			members[i] = at.Runtime.Member(i)
			sw.linked = append(sw.linked, at.Runtime)
		}
		sw.stage = bytecode.Link(members...)
	}
	for i, at := range sw.Checkers {
		sw.stage.Row[i] = at.State
	}
	return sw.stage
}

// pass runs one pipeline pass of the linked image over the packet as it is
// now — before forwarding at ingress, after it at egress; outPort is
// negative for a packet with no egress port. The telemetry in `in` (empty
// at the first hop, else at least the image's size) is decoded first; a
// program-specific binding in meta.Extra overrides a standard one.
func (sw *Switch) pass(st *bytecode.Stage, in []byte, pkt *dataplane.Decoded, meta *PacketMeta, inPort, outPort int, first, last bool, b bytecode.Blocks) {
	_ = st.Set.DecodeTele(in, st.Ctx.PHV) // cannot fail: in is empty or long enough
	st.Ctx.BeginEphemeralReports()
	h := st.H
	st.FillPacket(pkt)
	clear(h[bytecode.NumStdHeaders:])
	h[bytecode.HInPort] = pipeline.B(8, uint64(inPort))
	h[bytecode.HEgPort] = pipeline.B(8, uint64(max(outPort, 0)))
	h[bytecode.HSkipFwd] = pipeline.BoolV(meta.Drop)
	for path, v := range meta.Extra {
		if i, ok := st.Index(path); ok {
			h[i] = v
		}
	}
	st.Run(sw.ID, pkt.WireLen(), first, last, b)
	for i, rep := range st.Ctx.Reports {
		if at := sw.Checkers[st.Ctx.Owners[i]]; at.OnReport != nil {
			at.OnReport(sw, rep)
		}
	}
}

// inject runs first-hop injection: a Hydra header is inserted and every
// checker's init block runs over the decode-empty telemetry image, which
// is then encoded into the switch's reused inject buffer.
func (sw *Switch) inject(pkt *dataplane.Decoded, meta *PacketMeta, inPort int) {
	st := sw.hydra()
	pkt.InsertHydra(nil)
	sw.pass(st, nil, pkt, meta, inPort, -1, true, false, bytecode.BlockInit)
	sw.injectBuf = st.Set.EncodeTele(sw.injectBuf[:0], st.Ctx.PHV)
	pkt.Hydra.Blob = sw.injectBuf
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
		st := sw.hydra()
		// A blob of exactly the image's size is rewritten in place; a
		// shorter one is malformed and decodes as empty, a longer one loses
		// its tail — both re-encoded into fresh storage.
		in, blocks := pkt.Hydra.Blob, bytecode.BlockTelemetry
		var dst []byte
		if n := st.Set.TeleWireBytes(); len(in) == n {
			dst = in[:0]
		} else if len(in) < n {
			in = nil
		}
		if lastHop {
			blocks |= bytecode.BlockChecker
		}
		sw.pass(st, in, pkt, meta, inPort, outPort, firstHop, lastHop, blocks)
		pkt.Hydra.Blob = st.Set.EncodeTele(dst, st.Ctx.PHV)
		// A checker that could not be linked must never take down
		// forwarding: it is counted and the packet goes on unchecked by it.
		sw.ParseErrors += st.Skipped()
		rejected := false
		for k := 0; k < st.Set.Len(); k++ {
			at := sw.Checkers[st.Set.Owner(k)]
			if lastHop || at.Runtime.CheckEveryHop {
				at.Checked++
			}
			if st.Set.Reject(st.Ctx, k) {
				at.Rejected++
				rejected = true
			}
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

// AttachChecker wires an already-compiled runtime plus fresh per-switch
// state to the switch and returns the attachment for control-plane use.
// Multiple checkers may be attached; their telemetry shares the Hydra
// header, each in a statically-sized slot.
func (sw *Switch) AttachChecker(rt *compiler.Runtime, onReport func(*Switch, pipeline.Report)) *HydraAttachment {
	at := &HydraAttachment{Runtime: rt, State: rt.Prog.NewState(), OnReport: onReport}
	sw.Checkers = append(sw.Checkers, at)
	return at
}

// Checker returns the first attached checker, or nil.
func (sw *Switch) Checker() *HydraAttachment {
	if len(sw.Checkers) == 0 {
		return nil
	}
	return sw.Checkers[0]
}
