// Package trafficgen generates the workloads of the §6.2 evaluation:
//
//   - a campus-like packet trace standing in for the Princeton P4Campus
//     tap (Figure 13): two /16 subnets, prefix-preserving one-way hashed
//     addresses (the ONTAS anonymizer's transform), heavy-tailed flow
//     sizes, an empirical packet-size mix, and a ~350 Kpps offered load;
//   - an iperf3-like constant-bitrate UDP load between hosts;
//   - the "fast ping" (one echo every 0.2 s) whose RTTs Figure 12 plots.
package trafficgen

import (
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// AnonymizeIP applies a prefix-preserving one-way transform: the /16
// network part is kept (so subnet structure survives) and the host part
// is replaced by a salted hash, like the paper's line-rate anonymizer.
func AnonymizeIP(ip dataplane.IP4, salt uint64) dataplane.IP4 {
	h := fnv.New32a()
	var b [12]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(salt >> (8 * uint(i)))
	}
	b[8] = byte(ip >> 24)
	b[9] = byte(ip >> 16)
	b[10] = byte(ip >> 8)
	b[11] = byte(ip)
	h.Write(b[:])
	return ip&0xffff0000 | dataplane.IP4(h.Sum32()&0xffff)
}

// CampusConfig seeds the synthetic campus trace.
type CampusConfig struct {
	Seed int64
}

// The campus trace's shape.
const (
	// campusPPS is the offered load; the paper's replay is ~350K.
	campusPPS = 350_000
	// campusFlows is the number of concurrent flows.
	campusFlows = 4096
	// campusSalt feeds the address anonymizer.
	campusSalt = 0
)

// campusSubnets are the tapped /16s, two RFC-style blocks.
var campusSubnets = [...]dataplane.IP4{
	dataplane.MustIP4("172.16.0.0"),
	dataplane.MustIP4("172.17.0.0"),
}

// Packet is one generated trace record.
type Packet struct {
	Src, Dst     dataplane.IP4
	Proto        uint8
	Sport, Dport uint16
	Size         int // wire bytes
	// Gap is the inter-arrival time to the previous packet.
	Gap netsim.Time
}

type flow struct {
	src, dst     dataplane.IP4
	proto        uint8
	sport, dport uint16
	remaining    int
}

// Campus is a deterministic synthetic trace generator.
type Campus struct {
	rng   *rand.Rand
	flows []flow
}

// NewCampus builds a generator.
func NewCampus(cfg CampusConfig) *Campus {
	g := &Campus{rng: rand.New(rand.NewSource(cfg.Seed))}
	g.flows = make([]flow, campusFlows)
	for i := range g.flows {
		g.flows[i] = g.newFlow()
	}
	return g
}

// newFlow draws a flow with a Pareto-distributed size (heavy tail: most
// flows are mice, most bytes are in elephants).
func (g *Campus) newFlow() flow {
	inside := campusSubnets[g.rng.Intn(len(campusSubnets))]
	src := AnonymizeIP(inside|dataplane.IP4(g.rng.Intn(1<<16)), campusSalt)
	dst := AnonymizeIP(dataplane.IP4(g.rng.Uint32()), campusSalt)

	proto := dataplane.ProtoTCP
	if g.rng.Float64() < 0.25 {
		proto = dataplane.ProtoUDP
	}
	// Pareto(alpha=1.3) packet count, clamped.
	n := int(math.Pow(1-g.rng.Float64(), -1/1.3))
	if n < 1 {
		n = 1
	}
	if n > 10000 {
		n = 10000
	}
	return flow{
		src: src, dst: dst, proto: proto,
		sport:     uint16(1024 + g.rng.Intn(60000)),
		dport:     commonPorts[g.rng.Intn(len(commonPorts))],
		remaining: n,
	}
}

var commonPorts = []uint16{80, 443, 53, 22, 123, 8080, 3478, 5353}

// packetSizes is an empirical internet mix: smalls, mediums, MTU-sized.
var packetSizes = []struct {
	size   int
	weight float64
}{
	{64, 0.45},
	{215, 0.15},
	{576, 0.10},
	{1024, 0.05},
	{1500, 0.25},
}

func (g *Campus) drawSize() int {
	r := g.rng.Float64()
	for _, s := range packetSizes {
		if r < s.weight {
			return s.size
		}
		r -= s.weight
	}
	return 1500
}

// Next returns the next trace packet. Inter-arrivals are exponential at
// the configured rate (Poisson arrivals).
func (g *Campus) Next() Packet {
	i := g.rng.Intn(len(g.flows))
	f := &g.flows[i]
	pkt := Packet{
		Src: f.src, Dst: f.dst, Proto: f.proto,
		Sport: f.sport, Dport: f.dport,
		Size: g.drawSize(),
		Gap:  netsim.Time(g.rng.ExpFloat64() * float64(netsim.Second) / campusPPS),
	}
	f.remaining--
	if f.remaining <= 0 {
		g.flows[i] = g.newFlow()
	}
	return pkt
}

// Decode builds the wire packet for a trace record (payload zeroed, as
// the anonymizer discards payloads). The payload is a read-only view of
// a shared zero array, its capacity its length so an append copies: a
// caller that writes into it must Clone the packet first. Decode inlines,
// so a caller that does not keep the packet can have it on its stack.
func (p Packet) Decode() *dataplane.Decoded {
	d := new(dataplane.Decoded)
	p.fill(d)
	return d
}

// zeroPayload backs every decoded payload up to its size; nothing writes
// it.
var zeroPayload [1 << 16]byte

// fill writes the record's headers and payload into the zero packet d.
func (p Packet) fill(d *dataplane.Decoded) {
	d.Eth = dataplane.Ethernet{Type: dataplane.EtherTypeIPv4}
	d.HasIPv4 = true
	d.IPv4 = dataplane.IPv4{TTL: 64, Protocol: p.Proto, Src: p.Src, Dst: p.Dst}
	overhead := dataplane.EthernetLen + dataplane.IPv4Len
	switch p.Proto {
	case dataplane.ProtoUDP:
		d.HasUDP = true
		d.UDP = dataplane.UDP{SrcPort: p.Sport, DstPort: p.Dport}
		overhead += dataplane.UDPLen
	case dataplane.ProtoTCP:
		d.HasTCP = true
		d.TCP = dataplane.TCP{SrcPort: p.Sport, DstPort: p.Dport, Window: 65535}
		overhead += dataplane.TCPLen
	}
	switch pay := p.Size - overhead; {
	case pay > len(zeroPayload):
		d.Payload = make([]byte, pay)
	case pay > 0:
		d.Payload = zeroPayload[:pay:pay]
	}
}

// FlowKey returns the record's 5-tuple — the shard-affinity unit the
// checker engine hashes for RSS-style dispatch.
func (p Packet) FlowKey() dataplane.FlowKey {
	return dataplane.FlowKey{Src: p.Src, Dst: p.Dst, Proto: p.Proto, Sport: p.Sport, Dport: p.Dport}
}

// UDPLoad is an iperf3-like UDP stream: constant bitrate by default,
// Poisson arrivals at the same average rate when Poisson is set.
type UDPLoad struct {
	Host    *netsim.Host
	Dst     dataplane.IP4
	Bps     int64
	PktSize int
	Sport   uint16
	Dport   uint16
	Poisson bool
	Seed    int64

	Sent uint64
}

// Start schedules the stream from now until the given time.
func (l *UDPLoad) Start(sim *netsim.Simulator, until netsim.Time) {
	if l.PktSize == 0 {
		l.PktSize = 1400
	}
	mean := float64(int64(l.PktSize) * 8 * int64(netsim.Second) / l.Bps)
	payload := l.PktSize - dataplane.EthernetLen - dataplane.IPv4Len - dataplane.UDPLen
	rng := rand.New(rand.NewSource(l.Seed + int64(l.Sport)))
	var tick func()
	tick = func() {
		if sim.Now() >= until {
			return
		}
		l.Host.SendUDP(l.Dst, l.Sport, l.Dport, payload)
		l.Sent++
		gap := netsim.Time(mean)
		if l.Poisson {
			gap = netsim.Time(rng.ExpFloat64() * mean)
		}
		sim.After(gap, tick)
	}
	sim.After(0, tick)
}

// StartPinger issues an echo request every interval until the given
// time, the Figure 12 measurement workload (0.2 s period in the paper).
func StartPinger(sim *netsim.Simulator, h *netsim.Host, dst dataplane.IP4, interval, until netsim.Time) {
	seq := uint16(0)
	var tick func()
	tick = func() {
		if sim.Now() >= until {
			return
		}
		seq++
		h.Ping(dst, seq)
		sim.After(interval, tick)
	}
	sim.After(0, tick)
}
