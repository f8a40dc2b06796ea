package dataplane

import (
	"bytes"
	"testing"
)

// roundTripCases builds one representative packet per wire shape the
// simulator produces: every combination of Hydra telemetry, VLAN,
// source-route stacks, and GTP-U tunnels that ParseInto has a path for.
// Shared between the round-trip table test and the fuzz seed corpus.
func roundTripCases() []struct {
	name  string
	build func() *Decoded
} {
	return []struct {
		name  string
		build func() *Decoded
	}{
		{"udp", func() *Decoded { return buildUDPPacket([]byte("hello")) }},
		{"udp-empty-payload", func() *Decoded { return buildUDPPacket(nil) }},
		{"tcp", func() *Decoded {
			d := buildUDPPacket([]byte("tcp data"))
			d.HasUDP, d.HasTCP = false, true
			d.IPv4.Protocol = ProtoTCP
			d.TCP = TCP{SrcPort: 43210, DstPort: 80, Seq: 7, Flags: TCPSyn | 1<<4 /* ACK */, Window: 1024}
			return d
		}},
		{"icmp", func() *Decoded {
			d := buildUDPPacket([]byte("ping"))
			d.HasUDP, d.HasICMP = false, true
			d.IPv4.Protocol = ProtoICMP
			d.ICMP = ICMPEcho{Type: ICMPEchoRequest, ID: 9, Seq: 2}
			return d
		}},
		{"udp-vlan", func() *Decoded {
			d := buildUDPPacket([]byte("tagged"))
			d.HasVLAN = true
			d.VLAN = VLAN{PCP: 5, VID: 300}
			return d
		}},
		{"hydra-udp", func() *Decoded {
			d := buildUDPPacket([]byte("telemetry"))
			d.InsertHydra([]byte{0xca, 0xfe, 0x01, 0x02})
			return d
		}},
		{"hydra-empty-blob", func() *Decoded {
			d := buildUDPPacket([]byte("x"))
			d.InsertHydra(nil)
			return d
		}},
		{"hydra-vlan-udp", func() *Decoded {
			d := buildUDPPacket([]byte("both"))
			d.HasVLAN = true
			d.VLAN = VLAN{VID: 42}
			d.InsertHydra([]byte{1, 2, 3})
			return d
		}},
		{"source-route", func() *Decoded {
			d := buildUDPPacket([]byte("sr"))
			d.HasSourceRoute = true
			d.SourceRoute = []SourceRouteHop{{Port: 2}, {Port: 3}, {Port: 1, BOS: true}}
			return d
		}},
		{"hydra-source-route", func() *Decoded {
			d := buildUDPPacket([]byte("sr+tele"))
			d.HasSourceRoute = true
			d.SourceRoute = []SourceRouteHop{{Port: 4, SwitchID: 10}, {Port: 1, SwitchID: 20, BOS: true}}
			d.InsertHydra([]byte{0x7e})
			return d
		}},
		{"gtpu-inner-tcp", func() *Decoded {
			d := buildUDPPacket([]byte("user"))
			d.UDP = UDP{SrcPort: GTPUPort, DstPort: GTPUPort}
			d.HasGTPU = true
			d.GTPU = GTPU{MsgType: GTPUGPDU, TEID: 0xbeef}
			d.HasInnerIPv4 = true
			d.InnerIPv4 = IPv4{TTL: 63, Protocol: ProtoTCP, Src: MustIP4("10.250.0.1"), Dst: MustIP4("192.168.5.5")}
			d.HasInnerTCP = true
			d.InnerTCP = TCP{SrcPort: 50000, DstPort: 443, Flags: TCPSyn}
			return d
		}},
		{"gtpu-inner-udp", func() *Decoded {
			d := buildUDPPacket([]byte("dns"))
			d.UDP = UDP{SrcPort: GTPUPort, DstPort: GTPUPort}
			d.HasGTPU = true
			d.GTPU = GTPU{MsgType: GTPUGPDU, TEID: 1}
			d.HasInnerIPv4 = true
			d.InnerIPv4 = IPv4{TTL: 64, Protocol: ProtoUDP, Src: MustIP4("10.250.0.2"), Dst: MustIP4("8.8.8.8")}
			d.HasInnerUDP = true
			d.InnerUDP = UDP{SrcPort: 40000, DstPort: 53}
			return d
		}},
		{"gtpu-inner-icmp", func() *Decoded {
			d := buildUDPPacket(nil)
			d.UDP = UDP{SrcPort: GTPUPort, DstPort: GTPUPort}
			d.HasGTPU = true
			d.GTPU = GTPU{MsgType: GTPUGPDU, TEID: 2}
			d.HasInnerIPv4 = true
			d.InnerIPv4 = IPv4{TTL: 64, Protocol: ProtoICMP, Src: MustIP4("10.250.0.3"), Dst: MustIP4("1.1.1.1")}
			d.HasInnerICMP = true
			d.InnerICMP = ICMPEcho{Type: ICMPEchoRequest, ID: 1, Seq: 1}
			return d
		}},
		{"hydra-over-gtpu", func() *Decoded {
			d := buildUDPPacket([]byte("u"))
			d.UDP = UDP{SrcPort: GTPUPort, DstPort: GTPUPort}
			d.HasGTPU = true
			d.GTPU = GTPU{MsgType: GTPUGPDU, TEID: 3}
			d.HasInnerIPv4 = true
			d.InnerIPv4 = IPv4{TTL: 60, Protocol: ProtoUDP, Src: MustIP4("10.0.0.9"), Dst: MustIP4("10.0.0.10")}
			d.HasInnerUDP = true
			d.InnerUDP = UDP{SrcPort: 1000, DstPort: 2000}
			d.InsertHydra([]byte{9, 8, 7})
			return d
		}},
		{"opaque-ethertype", func() *Decoded {
			return &Decoded{
				Eth:     Ethernet{Dst: MACFromUint64(2), Src: MACFromUint64(1), Type: EtherType(0x86dd)},
				Payload: []byte{0xde, 0xad, 0xbe, 0xef},
			}
		}},
		{"hydra-opaque", func() *Decoded {
			d := &Decoded{
				Eth:     Ethernet{Dst: MACFromUint64(2), Src: MACFromUint64(1), Type: EtherType(0x86dd)},
				Payload: []byte{0x01},
			}
			d.InsertHydra([]byte{0xaa})
			return d
		}},
	}
}

// TestWireRoundTrip pins the codec invariant every layer combination
// must satisfy: Serialize ∘ ParseInto is the identity on wire bytes. The
// first Serialize normalizes lengths and checksums; from then on
// parse → re-serialize must reproduce the exact bytes, or telemetry
// insertion/stripping at intermediate hops would corrupt packets.
func TestWireRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.name, func(t *testing.T) {
			wire := tc.build().Serialize()
			p1 := new(Decoded)
			if err := ParseInto(p1, wire); err != nil {
				t.Fatalf("parse: %v", err)
			}
			w1 := p1.Serialize()
			if !bytes.Equal(w1, wire) {
				t.Fatalf("first re-serialize diverged\n got %x\nwant %x", w1, wire)
			}
			p2 := new(Decoded)
			if err := ParseInto(p2, w1); err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if w2 := p2.Serialize(); !bytes.Equal(w2, wire) {
				t.Fatalf("second re-serialize diverged\n got %x\nwant %x", w2, wire)
			}
		})
	}
}

// malformedCases are wire fragments that must make ParseInto return an
// error — or, for the GTP-U heuristic, fall back to opaque UDP — but
// never panic. They double as fuzz seeds.
func malformedCases() []struct {
	name string
	wire []byte
	// fallback marks GTP-U-port packets whose broken tunnel framing is
	// legal as plain UDP: ParseInto succeeds with HasGTPU false.
	fallback bool
} {
	eth := func(t EtherType) []byte {
		e := Ethernet{Type: t}
		return e.Append(nil)
	}
	udpTo2152 := func(payload []byte) []byte {
		d := buildUDPPacket(payload)
		d.UDP.DstPort = GTPUPort
		return d.Serialize()
	}
	gtpuHeader := GTPU{MsgType: GTPUGPDU, TEID: 5}
	return []struct {
		name     string
		wire     []byte
		fallback bool
	}{
		{"empty", nil, false},
		{"short-ethernet", []byte{1, 2, 3}, false},
		{"hydra-fixed-truncated", append(eth(EtherTypeHydra), 0x08), false},
		{"hydra-blob-overruns", append(eth(EtherTypeHydra), 0x08, 0x00, 0x00, 0x10, 1, 2, 3), false},
		{"vlan-truncated", append(eth(EtherTypeVLAN), 0x00, 0x64), false},
		{"srcroute-no-bos", append(eth(EtherTypeSourceRoute), 0x00, 0x05, 0, 0, 0, 1), false},
		{"srcroute-partial-hop", append(eth(EtherTypeSourceRoute), 0x80, 0x05, 0, 0), false},
		{"ipv4-truncated", append(eth(EtherTypeIPv4), 0x45, 0x00, 0x00), false},
		{"ipv4-bad-checksum", func() []byte {
			w := buildUDPPacket([]byte("x")).Serialize()
			w[EthernetLen+10] ^= 0xff
			return w
		}(), false},
		{"udp-truncated", func() []byte {
			w := buildUDPPacket(nil).Serialize()
			return w[:EthernetLen+IPv4Len+3]
		}(), false},
		{"tcp-truncated", func() []byte {
			d := buildUDPPacket(nil)
			d.HasUDP, d.HasTCP = false, true
			d.IPv4.Protocol = ProtoTCP
			d.TCP = TCP{SrcPort: 1, DstPort: 2}
			w := d.Serialize()
			return w[:EthernetLen+IPv4Len+TCPLen-5]
		}(), false},
		{"gtpu-header-truncated", udpTo2152([]byte{0x30, GTPUGPDU, 0x00}), true},
		{"gtpu-bad-version", udpTo2152([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}), true},
		{"gtpu-inner-ipv4-truncated", udpTo2152(append(gtpuHeader.Append(nil), 0x45, 0x00)), true},
		{"gtpu-inner-tcp-truncated", udpTo2152(func() []byte {
			ip := IPv4{TTL: 1, Protocol: ProtoTCP, TotalLen: IPv4Len + TCPLen}
			inner := ip.Append(nil)
			inner = append(inner, 0x01, 0x02) // 2 of 20 TCP bytes
			g := gtpuHeader
			g.Length = uint16(len(inner))
			return append(g.Append(nil), inner...)
		}()), true},
	}
}

// TestMalformedInputs drives every malformed fragment through ParseInto:
// structurally broken headers must error, GTP-U heuristic misses must
// fall back to opaque UDP, and nothing may panic (a panic in the parse
// path would let one crafted packet kill a verification switch).
func TestMalformedInputs(t *testing.T) {
	for _, tc := range malformedCases() {
		t.Run(tc.name, func(t *testing.T) {
			d := new(Decoded)
			err := ParseInto(d, tc.wire)
			if tc.fallback {
				if err != nil {
					t.Fatalf("GTP-U fallback case must parse as plain UDP, got error: %v", err)
				}
				if d.HasGTPU || d.HasInnerIPv4 {
					t.Fatalf("broken tunnel framing must not set tunnel flags: %+v", d)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected a parse error, got %+v", d)
			}
		})
	}
}

// TestGTPUDecapEncapWire checks the UPF tunnel operations at the wire
// level: decap of an encapsulated packet restores the exact original
// user packet bytes, and encap round-trips through the parser.
func TestGTPUDecapEncapWire(t *testing.T) {
	user := buildUDPPacket([]byte("user payload"))
	userWire := user.Serialize()

	up := new(Decoded)
	if err := ParseInto(up, userWire); err != nil {
		t.Fatal(err)
	}
	if err := up.EncapGTPU(MustIP4("140.0.100.1"), MustIP4("140.0.100.254"), 0x1234); err != nil {
		t.Fatal(err)
	}
	tunneled := new(Decoded)
	if err := ParseInto(tunneled, up.Serialize()); err != nil {
		t.Fatalf("encapsulated packet failed to parse: %v", err)
	}
	if !tunneled.HasGTPU || tunneled.GTPU.TEID != 0x1234 || !tunneled.HasInnerIPv4 {
		t.Fatalf("tunnel layers wrong: %+v", tunneled)
	}
	if err := tunneled.DecapGTPU(); err != nil {
		t.Fatal(err)
	}
	if got := tunneled.Serialize(); !bytes.Equal(got, userWire) {
		t.Fatalf("decap did not restore the user packet\n got %x\nwant %x", got, userWire)
	}

	// Error paths must stay errors, not panics.
	plain := new(Decoded)
	_ = ParseInto(plain, userWire)
	if err := plain.DecapGTPU(); err == nil {
		t.Fatal("decap of an untunneled packet must error")
	}
	opaque := &Decoded{Eth: Ethernet{Type: EtherType(0x86dd)}}
	if err := opaque.EncapGTPU(1, 2, 3); err == nil {
		t.Fatal("encap of a non-IPv4 packet must error")
	}
}

// FuzzParse seeds the fuzzer with every valid wire shape and every
// known-tricky malformed fragment, and checks the two codec safety
// properties on arbitrary bytes: ParseInto never panics, and whenever it
// succeeds, one Serialize normalizes the packet to a fixpoint
// (parse → serialize → parse → serialize is stable).
func FuzzParse(f *testing.F) {
	for _, tc := range roundTripCases() {
		f.Add(tc.build().Serialize())
	}
	for _, tc := range malformedCases() {
		f.Add(tc.wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodecDifferential(t, data)
		d := new(Decoded)
		if err := ParseInto(d, data); err != nil {
			return
		}
		wire := d.Serialize()
		d2 := new(Decoded)
		if err := ParseInto(d2, wire); err != nil {
			t.Fatalf("re-serialized packet failed to parse: %v\nwire %x", err, wire)
		}
		if w2 := d2.Serialize(); !bytes.Equal(w2, wire) {
			t.Fatalf("serialize is not a fixpoint\nfirst  %x\nsecond %x", wire, w2)
		}
	})
}
