package netsim

import (
	"math/rand"

	"repro/internal/dataplane"
)

// RTTSample is one completed ping measurement.
type RTTSample struct {
	Seq    uint16
	SentAt Time
	RTT    Time
}

// ReceivedPacket records a packet delivered to a host, for assertions.
type ReceivedPacket struct {
	At  Time
	Pkt *dataplane.Decoded
}

// Host is an end host with a single NIC. It answers ICMP echo requests
// automatically, records everything it receives, and offers UDP/TCP/
// ping senders for the experiment harnesses.
type Host struct {
	Name string
	MAC  dataplane.MAC
	IP   dataplane.IP4

	sim  *Simulator
	link *Link

	// GatewayMAC is the destination MAC for outbound frames (the
	// attached switch port); the fabric routes on IP.
	GatewayMAC dataplane.MAC

	// RTTs collects completed ping samples.
	RTTs []RTTSample
	// Received records delivered packets when RecordAll is set; UDP/TCP
	// counters are always maintained.
	RecordAll bool
	Received  []ReceivedPacket

	RxFrames  uint64
	RxUDP     uint64
	RxTCP     uint64
	RxBytes   uint64
	ParseErrs uint64

	pingSent map[uint16]Time
	// OnPacket, when set, sees every delivered packet.
	OnPacket func(*dataplane.Decoded)

	// nic is the Hydra code of the host's NIC, which takes the first- and
	// last-hop duties once a checker is attached (see hydra).
	nic hydra

	// rxDec is per-host scratch: all of a host's callbacks run on the one
	// event loop, so one decode target suffices.
	rxDec dataplane.Decoded

	// StackBase and StackJitter model end-host networking-stack latency
	// (kernel + NIC): each send and receive is delayed by
	// StackBase + Exp(StackJitter). Zero (the default) disables the
	// model; the Figure 12 harness enables it because host-stack noise,
	// not switch queueing, dominates the paper's 0.1-0.3 ms RTT spread.
	StackBase   Time
	StackJitter Time
	rng         *rand.Rand

	ipID uint16
}

// NewHost creates a host; wire it with netsim.Connect.
func NewHost(sim *Simulator, name string, mac dataplane.MAC, ip dataplane.IP4) *Host {
	seed := int64(0)
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	h := &Host{Name: name, MAC: mac, IP: ip, sim: sim, pingSent: map[uint16]Time{}, rng: rand.New(rand.NewSource(seed))}
	sim.addNode()
	return h
}

// ReseedStack reseeds the host's stack-noise generator, so experiment
// harnesses can give each configuration independent noise.
func (h *Host) ReseedStack(seed int64) { h.rng = rand.New(rand.NewSource(seed)) }

// stackDelay draws one end-host processing delay.
func (h *Host) stackDelay() Time {
	if h.StackBase == 0 && h.StackJitter == 0 {
		return 0
	}
	d := h.StackBase
	if h.StackJitter > 0 {
		d += Time(h.rng.ExpFloat64() * float64(h.StackJitter))
	}
	return d
}

// Receive implements Node. The host takes ownership of the frame and
// releases it once the packet is delivered; anything retained
// (Received) is a deep copy.
func (h *Host) Receive(frame []byte, port int) {
	if d := h.stackDelay(); d > 0 {
		h.sim.After(d, func() {
			h.deliver(frame)
			h.sim.ReleaseFrame(frame)
		})
		return
	}
	h.deliver(frame)
	h.sim.ReleaseFrame(frame)
}

func (h *Host) deliver(frame []byte) {
	h.RxFrames++
	pkt := &h.rxDec
	if err := dataplane.ParseInto(pkt, frame); err != nil {
		h.ParseErrs++
		return
	}
	if !h.nicIngress(pkt) {
		return // rejected by the Hydra NIC
	}
	h.RxBytes += uint64(len(frame))
	if h.RecordAll {
		// pkt borrows the pooled frame; retained records get a copy.
		h.Received = append(h.Received, ReceivedPacket{At: h.sim.Now(), Pkt: pkt.Clone()})
	}
	if h.OnPacket != nil {
		// OnPacket borrows pkt for the duration of the callback only.
		h.OnPacket(pkt)
	}

	switch {
	case pkt.HasICMP && pkt.ICMP.Type == dataplane.ICMPEchoRequest:
		h.replyEcho(pkt)
	case pkt.HasICMP && pkt.ICMP.Type == dataplane.ICMPEchoReply:
		if sent, ok := h.pingSent[pkt.ICMP.Seq]; ok {
			h.RTTs = append(h.RTTs, RTTSample{Seq: pkt.ICMP.Seq, SentAt: sent, RTT: h.sim.Now() - sent})
			delete(h.pingSent, pkt.ICMP.Seq)
		}
	case pkt.HasUDP:
		h.RxUDP++
	case pkt.HasTCP:
		h.RxTCP++
	}
}

func (h *Host) send(pkt *dataplane.Decoded) {
	if h.link == nil {
		panic("netsim: host " + h.Name + " has no link")
	}
	h.nicEgress(pkt)
	// Serialize once, into the pooled buffer the link carries and
	// releases.
	wire := pkt.AppendTo(h.sim.AcquireFrame(pkt.WireLen())[:0])
	if d := h.stackDelay(); d > 0 {
		h.sim.After(d, func() { h.link.transmit(h, wire) })
		return
	}
	h.link.transmit(h, wire)
}

// SendPacket transmits an arbitrary pre-built packet, for substrates
// (like the Aether base station) that craft their own encapsulations.
// pkt is serialized before SendPacket returns and not retained, so a
// caller may build it on its stack and reuse it at once.
func (h *Host) SendPacket(pkt *dataplane.Decoded) { h.send(pkt) }

func (h *Host) newIPv4(dst dataplane.IP4, proto uint8) dataplane.IPv4 {
	h.ipID++
	return dataplane.IPv4{
		ID: h.ipID, TTL: 64, Protocol: proto, Src: h.IP, Dst: dst,
	}
}

// SendUDP emits a UDP datagram with a payload of payloadLen zero bytes.
func (h *Host) SendUDP(dst dataplane.IP4, sport, dport uint16, payloadLen int) {
	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: h.GatewayMAC, Src: h.MAC, Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    h.newIPv4(dst, dataplane.ProtoUDP),
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: sport, DstPort: dport},
		Payload: make([]byte, payloadLen),
	}
	h.send(pkt)
}

// Ping sends an ICMP echo request; the RTT is recorded when the reply
// arrives.
func (h *Host) Ping(dst dataplane.IP4, seq uint16) {
	h.pingSent[seq] = h.sim.Now()
	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: h.GatewayMAC, Src: h.MAC, Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    h.newIPv4(dst, dataplane.ProtoICMP),
		HasICMP: true,
		ICMP:    dataplane.ICMPEcho{Type: dataplane.ICMPEchoRequest, ID: 1, Seq: seq},
		Payload: make([]byte, 56),
	}
	h.send(pkt)
}

// SendSourceRouted emits a source-routed UDP packet carrying the given
// hop stack (§5.1).
func (h *Host) SendSourceRouted(dst dataplane.IP4, hops []dataplane.SourceRouteHop, payloadLen int) {
	pkt := &dataplane.Decoded{
		Eth:            dataplane.Ethernet{Dst: h.GatewayMAC, Src: h.MAC, Type: dataplane.EtherTypeSourceRoute},
		HasSourceRoute: true,
		SourceRoute:    hops,
		HasIPv4:        true,
		IPv4:           h.newIPv4(dst, dataplane.ProtoUDP),
		HasUDP:         true,
		UDP:            dataplane.UDP{SrcPort: 4000, DstPort: 4000},
		Payload:        make([]byte, payloadLen),
	}
	h.send(pkt)
}

func (h *Host) replyEcho(req *dataplane.Decoded) {
	rep := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: h.GatewayMAC, Src: h.MAC, Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    h.newIPv4(req.IPv4.Src, dataplane.ProtoICMP),
		HasICMP: true,
		ICMP:    dataplane.ICMPEcho{Type: dataplane.ICMPEchoReply, ID: req.ICMP.ID, Seq: req.ICMP.Seq},
		Payload: req.Payload,
	}
	h.send(rep)
}
