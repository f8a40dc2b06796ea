package netsim

import (
	"fmt"

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
	// Popped is the source-route entry forwarding consumed at this hop,
	// set when HasPopped: the egress pass runs after the pop, so the
	// checker reads it as hdr.srcRoutes[0] in place of the entry the
	// packet now carries.
	Popped    dataplane.SourceRouteHop
	HasPopped bool

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
	m.HasPopped = false
}

// ForwardingProgram is the switch's forwarding behavior — the analogue
// of the P4 program Hydra links with, and deliberately independent of
// the checker (§2: "This independence between forwarding and checking
// is key").
type ForwardingProgram interface {
	// Process inspects (and may rewrite) the packet and returns egress
	// decisions; returning nil drops the packet. The packet and meta are
	// borrowed from the switch: they must not be retained past the call.
	// At a first hop the packet's telemetry is still in the checker's
	// PHV: its blob has the telemetry's size but reads zero.
	Process(sw *Switch, pkt *dataplane.Decoded, meta *PacketMeta) []Egress
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

// pipelineLatency models the fixed ingress+egress pipeline delay of a
// hardware switch. It is constant by construction — a Tofino pipeline
// takes the same time regardless of program — which is why the paper
// finds no latency difference with checkers on (§6.2).
const pipelineLatency = 500 * Nanosecond

// Switch is a programmable switch: a forwarding program, optional Hydra
// checkers, ports wired to links, and a fixed pipeline latency.
type Switch struct {
	ID   uint32
	Name string

	sim *Simulator
	// ports holds, by port number, the link Connect wired there and the
	// host behind it, nil behind a port facing a switch or another node.
	// A port with a host behind it is an edge port (see hydra).
	ports []swPort

	Forwarding ForwardingProgram
	// hydra holds the attached checkers; AttachChecker is the one writer.
	hydra

	// Counters.
	RxFrames, TxFrames, Dropped uint64
	// ParseErrors counts undecodable frames.
	ParseErrors uint64
	// FastTxFrames counts frames sent via the in-place rewrite fast
	// path; SlowTxFrames counts full re-serializations (inject, strip,
	// encap/decap, source-route edits, multicast clones).
	FastTxFrames, SlowTxFrames uint64

	// Per-packet scratch. All of a switch's callbacks run on the one
	// event loop and frame processing never nests (a link defers
	// delivery through the event queue), so one of each suffices per
	// switch.
	dec  dataplane.Decoded
	meta PacketMeta
}

// swPort is one switch port: its link and the host behind it, if any.
type swPort struct {
	link *Link
	host *Host
}

// NewSwitch creates a switch with the given identifier.
func NewSwitch(sim *Simulator, id uint32, name string) *Switch {
	sw := &Switch{ID: id, Name: name, sim: sim}
	sim.addNode()
	return sw
}

// wire records l on a port, with the host behind it if peer is one; it
// panics if the port is wired already.
func (sw *Switch) wire(port int, l *Link, peer Node) {
	if port >= len(sw.ports) {
		sw.ports = append(sw.ports, make([]swPort, port+1-len(sw.ports))...)
	}
	if sw.ports[port].link != nil {
		panic(fmt.Sprintf("netsim: %s port %d wired twice", sw.Name, port))
	}
	host, _ := peer.(*Host)
	sw.ports[port] = swPort{link: l, host: host}
}

// port returns a port's wiring, the zero swPort for a drop port (-1) or
// an unwired one.
func (sw *Switch) port(n int) swPort {
	if uint(n) < uint(len(sw.ports)) {
		return sw.ports[n]
	}
	return swPort{}
}

// Link returns the link on a port, or nil.
func (sw *Switch) Link(port int) *Link { return sw.port(port).link }

// Ports returns the switch's wired ports in ascending order — the
// deterministic iteration companion to Link for topology discovery.
func (sw *Switch) Ports() []int {
	var out []int
	for p, sp := range sw.ports {
		if sp.link != nil {
			out = append(out, p)
		}
	}
	return out
}

// Sim returns the simulator the switch runs in.
func (sw *Switch) Sim() *Simulator { return sw.sim }

// Receive implements Node: a frame arrived on `port`. The switch takes
// ownership of the frame and releases it after the pipeline runs.
func (sw *Switch) Receive(frame []byte, port int) {
	sw.RxFrames++
	sw.sim.atFrame(sw.sim.now+pipelineLatency, (*switchPipe)(sw), frame, port)
}

// switchPipe is the frame sink running the switch pipeline; a separate
// type so Switch.Receive (link-side entry) and pipeline entry (after
// pipelineLatency) both exist without an extra object.
type switchPipe Switch

func (p *switchPipe) deliverFrame(frame []byte, port int) {
	(*Switch)(p).process(frame, port)
}

// process runs the pipeline over a received frame and releases it,
// unless the fast path handed it on to a link.
func (sw *Switch) process(frame []byte, inPort int) {
	if !sw.forward(frame, inPort) {
		sw.sim.ReleaseFrame(frame)
	}
}

// forward runs the pipeline over a received frame and reports whether it
// handed the frame itself to a link.
func (sw *Switch) forward(frame []byte, inPort int) bool {
	pkt := &sw.dec
	if err := dataplane.ParseInto(pkt, frame); err != nil {
		sw.ParseErrors++
		return false
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
	if len(sw.checkers) > 0 && !pkt.HasHydra && sw.port(inPort).host != nil {
		sw.inject(sw.ID, pkt, meta, inPort)
		firstHop = true
	}

	// --- Forwarding (independent of checking).
	var egresses []Egress
	if sw.Forwarding != nil {
		egresses = sw.Forwarding.Process(sw, pkt, meta)
	}
	if len(egresses) == 0 && !meta.Drop {
		sw.Dropped++
		return false
	}

	// --- Egress pipeline per output port: telemetry at every hop,
	// checker + strip at the last hop (edge egress port).
	if len(egresses) > 1 {
		// Multicast: each copy carries independent telemetry, so it gets
		// its own storage (and no in-place frame). At the first hop the
		// init pass's telemetry is encoded once, for every clone to decode.
		if firstHop && pkt.HasHydra {
			st := sw.linked()
			pkt.Hydra.Blob = st.Set.EncodeTele(sw.injectBuf[:0], st.Ctx.PHV)
		}
		for _, eg := range egresses {
			sw.egress(pkt.Clone(), nil, shape, meta, inPort, eg.Port, firstHop, false)
		}
		return false
	}
	if len(egresses) == 1 {
		return sw.egress(pkt, frame, shape, meta, inPort, egresses[0].Port, firstHop, firstHop)
	}
	if len(sw.checkers) > 0 {
		// The forwarding program dropped the packet outright with no
		// egress decision: the checker still observes it at this hop so
		// properties like Figure 9's can fire (modelled as an egress to
		// a drop port).
		sw.egress(pkt, nil, shape, meta, inPort, -1, firstHop, firstHop)
	}
	return false
}

// egress runs the per-hop egress pipeline for one output port and
// reports whether it handed frame to the link. frame, when non-nil, is
// the received frame backing pkt's blob and payload; if the wire shape is
// unchanged the rewritten packet is serialized in place over it and the
// link carries it on. resident marks a first hop's packet whose telemetry
// is still in the stage's PHV, where the init pass left it: the egress
// pass runs on it with no decode. A hop encodes only a blob that leaves
// on the wire, once, after its pass.
func (sw *Switch) egress(pkt *dataplane.Decoded, frame []byte, shape wireShape, meta *PacketMeta, inPort, outPort int, firstHop, resident bool) bool {
	out := sw.port(outPort)
	link := out.link // nil for a drop port (-1) or an unwired one

	// tele is the stage whose PHV holds telemetry still to be encoded
	// into dst's storage; nil when there is none.
	var tele *bytecode.Stage
	var dst []byte
	if len(sw.checkers) > 0 && pkt.HasHydra {
		// A packet leaving through a host-facing port — or being dropped
		// by the forwarding program — is at its last hop: the checker
		// must run now or never (the Figure 9 property explicitly
		// inspects packets the data plane decided to drop). Behind a port
		// to a host whose NIC has checkers attached the NIC is the last
		// hop.
		lastHop := meta.Drop || out.host != nil && len(out.host.nic.checkers) == 0
		st := sw.linked()
		if resident {
			// The first hop's blob is encoded into the inject buffer.
			dst = sw.injectBuf[:0]
		} else {
			dst = sw.decode(st, pkt.Hydra.Blob)
		}
		if sw.pass(st, sw.ID, pkt, meta, inPort, outPort, firstHop, lastHop, bytecode.HopBlocks(false, lastHop)) {
			return false // a checker halts the packet (reject, §2)
		}
		if lastHop {
			pkt.StripHydra()
		} else {
			tele = st
		}
	}

	if meta.Drop || link == nil {
		sw.Dropped++
		return false
	}
	if tele != nil {
		pkt.Hydra.Blob = tele.Set.EncodeTele(dst, tele.Ctx.PHV)
	}
	sw.TxFrames++
	// Fast path: same wire shape as at parse means every offset is
	// unchanged — rewrite the received frame in place (header field and
	// telemetry updates land at their old offsets; blob and payload
	// copies are identity memmoves) and hand it to the link. Inject,
	// strip, encap/decap, and source-route edits all change the shape and
	// take the slow path: one serialization into a fresh pooled frame.
	if frame != nil && pkt.WireLen() == len(frame) && shapeOf(pkt) == shape {
		sw.FastTxFrames++
		link.transmit(sw, pkt.AppendTo(frame[:0]))
		return true
	}
	sw.SlowTxFrames++
	link.transmit(sw, pkt.AppendTo(sw.sim.AcquireFrame(pkt.WireLen())[:0]))
	return false
}

// AttachChecker wires an already-compiled runtime plus fresh per-switch
// state to the switch and returns the attachment for control-plane use.
// Multiple checkers may be attached; their telemetry shares the Hydra
// header, each in a statically-sized slot. The next pass relinks. It
// panics on a runtime without a VM form.
func (sw *Switch) AttachChecker(rt *compiler.Runtime, onReport func(pipeline.Report)) *HydraAttachment {
	return sw.attach(rt, onReport)
}

// Checker returns the first attached checker, or nil.
func (sw *Switch) Checker() *HydraAttachment {
	if len(sw.checkers) == 0 {
		return nil
	}
	return sw.checkers[0]
}
