package dataplane

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: MACFromUint64(0xaabbccddeeff), Src: MACFromUint64(0x112233445566), Type: EtherTypeIPv4}
	buf := e.Append(nil)
	if len(buf) != EthernetLen {
		t.Fatalf("len = %d", len(buf))
	}
	var got Ethernet
	rest, err := got.Decode(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if got != e {
		t.Fatalf("got %+v want %+v", got, e)
	}
}

func TestMACConversion(t *testing.T) {
	for _, v := range []uint64{0, 7, 0xffffffffffff, 0x0102030405060} {
		v &= 0xffffffffffff
		if got := MACFromUint64(v).Uint64(); got != v {
			t.Errorf("MAC round trip %x -> %x", v, got)
		}
	}
	if s := MACFromUint64(7).String(); s != "00:00:00:00:00:07" {
		t.Errorf("MAC string = %s", s)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := IPv4{TOS: 0x10, TotalLen: 40, ID: 7, TTL: 64, Protocol: ProtoUDP,
		Src: MustIP4("10.0.1.1"), Dst: MustIP4("10.0.2.2")}
	buf := ip.Append(nil)
	if Checksum(buf) != 0 {
		t.Fatal("serialized header checksum must verify")
	}
	var got IPv4
	if _, err := got.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.TTL != 64 || got.Protocol != ProtoUDP {
		t.Fatalf("got %+v", got)
	}
	// Corrupt a byte: checksum must catch it.
	buf[8] ^= 0xff
	if _, err := got.Decode(buf); err == nil {
		t.Fatal("corrupted header should fail checksum")
	}
}

func TestIP4Helpers(t *testing.T) {
	ip := MustIP4("192.168.1.5")
	if ip.String() != "192.168.1.5" {
		t.Fatalf("String = %s", ip.String())
	}
	if !ip.InPrefix(MustIP4("192.168.0.0"), 16) {
		t.Fatal("should match /16")
	}
	if ip.InPrefix(MustIP4("10.0.0.0"), 8) {
		t.Fatal("should not match 10/8")
	}
	if !ip.InPrefix(0, 0) {
		t.Fatal("every address matches /0")
	}
	if !ip.InPrefix(ip, 32) {
		t.Fatal("address matches itself at /32")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustIP4 should panic on bad input")
		}
	}()
	MustIP4("not-an-ip")
}

func TestSourceRouteStack(t *testing.T) {
	// AppendSourceRoute sets bottom-of-stack on the last entry itself.
	hops := []SourceRouteHop{{Port: 2}, {Port: 3}, {Port: 1}}
	buf := AppendSourceRoute(nil, hops)
	got, rest, err := decodeSourceRouteInto(nil, append(buf, 0xde, 0xad))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Port != 2 || got[1].Port != 3 || got[2].Port != 1 || !got[2].BOS || got[0].BOS || got[1].BOS {
		t.Fatalf("got %+v", got)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d bytes", len(rest))
	}

	// Truncated stack (no BOS) must error.
	if _, _, err := decodeSourceRouteInto(nil, []byte{0x00, 0x05}); err == nil {
		t.Fatal("expected truncation error")
	}
}

func buildUDPPacket(payload []byte) *Decoded {
	d := &Decoded{
		Eth:     Ethernet{Dst: MACFromUint64(2), Src: MACFromUint64(1), Type: EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    IPv4{TTL: 64, Protocol: ProtoUDP, Src: MustIP4("10.0.1.1"), Dst: MustIP4("10.0.2.2")},
		HasUDP:  true,
		UDP:     UDP{SrcPort: 5555, DstPort: 6666},
		Payload: payload,
	}
	return d
}

func TestParseSerializeUDP(t *testing.T) {
	d := buildUDPPacket([]byte("hello"))
	wire := d.Serialize()
	got := new(Decoded)
	if err := ParseInto(got, wire); err != nil {
		t.Fatal(err)
	}
	if !got.HasIPv4 || !got.HasUDP || got.HasTCP || got.HasHydra {
		t.Fatalf("layer flags wrong: %+v", got)
	}
	if got.UDP.DstPort != 6666 || string(got.Payload) != "hello" {
		t.Fatalf("payload wrong: %+v %q", got.UDP, got.Payload)
	}
	if got.IPv4.TotalLen != uint16(IPv4Len+UDPLen+5) {
		t.Fatalf("TotalLen = %d", got.IPv4.TotalLen)
	}
	if got.UDP.Length != uint16(UDPLen+5) {
		t.Fatalf("UDP length = %d", got.UDP.Length)
	}
}

func TestHydraInsertStripRestoresWire(t *testing.T) {
	d := buildUDPPacket([]byte("payload"))
	orig := d.Serialize()

	// First hop: inject telemetry.
	p := new(Decoded)
	if err := ParseInto(p, orig); err != nil {
		t.Fatal(err)
	}
	p.InsertHydra([]byte{0xca, 0xfe, 0x01})
	withTele := p.Serialize()
	if len(withTele) != len(orig)+hydraFixedLen+3 {
		t.Fatalf("telemetry added %d bytes, want %d", len(withTele)-len(orig), hydraFixedLen+3)
	}

	// Middle hop: parse keeps the blob visible.
	mid := new(Decoded)
	if err := ParseInto(mid, withTele); err != nil {
		t.Fatal(err)
	}
	if !mid.HasHydra || !bytes.Equal(mid.Hydra.Blob, []byte{0xca, 0xfe, 0x01}) {
		t.Fatalf("hydra header lost: %+v", mid.Hydra)
	}
	if !mid.HasUDP || mid.UDP.DstPort != 6666 {
		t.Fatal("inner layers must still parse under the hydra header")
	}

	// Last hop: strip restores the original bytes exactly (§4.1).
	blob := mid.StripHydra()
	if !bytes.Equal(blob, []byte{0xca, 0xfe, 0x01}) {
		t.Fatalf("stripped blob = %x", blob)
	}
	restored := mid.Serialize()
	if !bytes.Equal(restored, orig) {
		t.Fatalf("strip did not restore original wire bytes\n got %x\nwant %x", restored, orig)
	}
}

func TestHydraOverVLAN(t *testing.T) {
	d := buildUDPPacket([]byte("x"))
	d.HasVLAN = true
	d.VLAN = VLAN{PCP: 3, VID: 100}
	orig := d.Serialize()

	p := new(Decoded)
	if err := ParseInto(p, orig); err != nil {
		t.Fatal(err)
	}
	if !p.HasVLAN || p.VLAN.VID != 100 {
		t.Fatalf("vlan lost: %+v", p.VLAN)
	}
	p.InsertHydra([]byte{1, 2})
	q := new(Decoded)
	if err := ParseInto(q, p.Serialize()); err != nil {
		t.Fatal(err)
	}
	if !q.HasHydra || !q.HasVLAN || q.VLAN.VID != 100 || !q.HasUDP {
		t.Fatal("hydra+vlan chain broken")
	}
	q.StripHydra()
	if !bytes.Equal(q.Serialize(), orig) {
		t.Fatal("strip over vlan did not restore original")
	}
}

func TestSourceRoutePacketRoundTrip(t *testing.T) {
	d := buildUDPPacket([]byte("sr"))
	d.HasSourceRoute = true
	d.SourceRoute = []SourceRouteHop{{Port: 2}, {Port: 3}, {Port: 1, BOS: true}}
	wire := d.Serialize()
	got := new(Decoded)
	if err := ParseInto(got, wire); err != nil {
		t.Fatal(err)
	}
	if !got.HasSourceRoute || len(got.SourceRoute) != 3 {
		t.Fatalf("source route lost: %+v", got.SourceRoute)
	}
	if got.Eth.Type != EtherTypeSourceRoute {
		t.Fatalf("ethertype = %s", got.Eth.Type)
	}
	if !got.HasIPv4 || !got.HasUDP {
		t.Fatal("payload under source route must parse")
	}

	// Popping one hop and re-serializing mimics a source-routing switch.
	got.SourceRoute = got.SourceRoute[1:]
	reparsed := new(Decoded)
	if err := ParseInto(reparsed, got.Serialize()); err != nil {
		t.Fatal(err)
	}
	if len(reparsed.SourceRoute) != 2 || reparsed.SourceRoute[0].Port != 3 {
		t.Fatalf("pop failed: %+v", reparsed.SourceRoute)
	}
}

func TestGTPUEncapRoundTrip(t *testing.T) {
	// Downlink Aether packet: outer IPv4/UDP/GTP-U around an inner
	// IPv4/TCP user packet.
	d := &Decoded{
		Eth:     Ethernet{Dst: MACFromUint64(2), Src: MACFromUint64(1), Type: EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    IPv4{TTL: 64, Protocol: ProtoUDP, Src: MustIP4("140.0.100.1"), Dst: MustIP4("140.0.100.254")},
		HasUDP:  true,
		UDP:     UDP{SrcPort: GTPUPort, DstPort: GTPUPort},
		HasGTPU: true,
		GTPU:    GTPU{MsgType: GTPUGPDU, TEID: 0xbeef},

		HasInnerIPv4: true,
		InnerIPv4:    IPv4{TTL: 63, Protocol: ProtoTCP, Src: MustIP4("10.250.0.1"), Dst: MustIP4("192.168.5.5")},
		HasInnerTCP:  true,
		InnerTCP:     TCP{SrcPort: 43210, DstPort: 81, Flags: TCPSyn},
		Payload:      []byte("user data"),
	}
	wire := d.Serialize()
	got := new(Decoded)
	if err := ParseInto(got, wire); err != nil {
		t.Fatal(err)
	}
	if !got.HasGTPU || got.GTPU.TEID != 0xbeef {
		t.Fatalf("gtpu lost: %+v", got.GTPU)
	}
	if !got.HasInnerIPv4 || got.InnerIPv4.Dst != MustIP4("192.168.5.5") {
		t.Fatalf("inner ipv4: %+v", got.InnerIPv4)
	}
	if !got.HasInnerTCP || got.InnerTCP.DstPort != 81 || got.InnerTCP.Flags&TCPSyn == 0 {
		t.Fatalf("inner tcp: %+v", got.InnerTCP)
	}
	if string(got.Payload) != "user data" {
		t.Fatalf("payload %q", got.Payload)
	}
	if got.GTPU.Length != uint16(IPv4Len+TCPLen+9) {
		t.Fatalf("gtpu length = %d", got.GTPU.Length)
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	d := &Decoded{
		Eth:     Ethernet{Type: EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    IPv4{TTL: 64, Protocol: ProtoICMP, Src: MustIP4("10.0.1.1"), Dst: MustIP4("10.0.4.4")},
		HasICMP: true,
		ICMP:    ICMPEcho{Type: ICMPEchoRequest, ID: 77, Seq: 3},
	}
	got := new(Decoded)
	if err := ParseInto(got, d.Serialize()); err != nil {
		t.Fatal(err)
	}
	if !got.HasICMP || got.ICMP.ID != 77 || got.ICMP.Seq != 3 || got.ICMP.Type != ICMPEchoRequest {
		t.Fatalf("icmp: %+v", got.ICMP)
	}
}

func TestParseErrors(t *testing.T) {
	cases := [][]byte{
		{},        // empty
		{1, 2, 3}, // short ethernet
		func() []byte { // hydra header truncated
			e := Ethernet{Type: EtherTypeHydra}
			return e.Append(nil)
		}(),
		func() []byte { // hydra blob truncated
			e := Ethernet{Type: EtherTypeHydra}
			b := e.Append(nil)
			return append(b, 0x08, 0x00, 0x00, 0x09, 1, 2) // claims 9-byte blob
		}(),
		func() []byte { // short ipv4
			e := Ethernet{Type: EtherTypeIPv4}
			return append(e.Append(nil), 0x45, 0)
		}(),
	}
	for i, c := range cases {
		if err := ParseInto(new(Decoded), c); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestChecksumRFC1071(t *testing.T) {
	// Example from RFC 1071 §3: the checksum of this data is 0xddf2
	// (complement of 0x220d).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %04x, want %04x", got, ^uint16(0xddf2))
	}
	// Odd-length input uses an implicit zero pad byte.
	if got, want := Checksum([]byte{0xab}), ^uint16(0xab00); got != want {
		t.Fatalf("odd checksum = %04x, want %04x", got, want)
	}
}

// checksum16 is RFC 1071's loop as the RFC writes it: 16-bit big-endian
// words, an odd tail byte padded with zero, carries folded at the end.
func checksum16(b []byte) uint16 {
	var sum uint32
	for ; len(b) >= 2; b = b[2:] {
		sum += uint32(b[0])<<8 | uint32(b[1])
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesRFC1071Loop holds Checksum to the 16-bit loop on
// random buffers of every length up to 64, odd ones included, and on
// all-zero and all-0xFF ones (the two representations of one's-complement
// zero).
func TestChecksumMatchesRFC1071Loop(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	for n := 0; n <= 64; n++ {
		bufs := [][]byte{make([]byte, n), bytes.Repeat([]byte{0xff}, n)}
		for i := 0; i < 50; i++ {
			b := make([]byte, n)
			rng.Read(b)
			bufs = append(bufs, b)
		}
		for _, b := range bufs {
			if got, want := Checksum(b), checksum16(b); got != want {
				t.Fatalf("Checksum(%x) = %04x, the 16-bit loop gives %04x", b, got, want)
			}
		}
	}
}

// TestIPv4RejectsEverySingleBitFlip flips each bit of a valid header in
// turn: Decode must refuse every one.
func TestIPv4RejectsEverySingleBitFlip(t *testing.T) {
	ip := IPv4{TOS: 0x10, TotalLen: 84, ID: 0xbeef, Flags: 2, TTL: 64, Protocol: ProtoUDP, Src: MustIP4("10.1.2.3"), Dst: MustIP4("192.168.7.9")}
	hdr := ip.Append(nil)
	var got IPv4
	if _, err := got.Decode(hdr); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*IPv4Len; bit++ {
		b := bytes.Clone(hdr)
		b[bit/8] ^= 0x80 >> (bit % 8)
		if _, err := got.Decode(b); err == nil {
			t.Errorf("bit %d flipped: header %x decoded", bit, b)
		}
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0x5, 3)
	w.WriteBits(1, 1)
	w.WriteBits(0xABCD, 16)
	w.WriteBits(1, 1)
	w.Align()
	w.WriteBits(0xFF, 8)
	buf := w.Bytes()

	r := NewBitReader(buf)
	if v, _ := r.ReadBits(3); v != 0x5 {
		t.Fatalf("3-bit read = %x", v)
	}
	if v, _ := r.ReadBits(1); v != 1 {
		t.Fatal("1-bit read")
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Fatalf("16-bit read = %x", v)
	}
	if v, _ := r.ReadBits(1); v != 1 {
		t.Fatal("1-bit read")
	}
	r.Align()
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Fatal("aligned read")
	}
	if _, err := r.ReadBits(1); err == nil {
		t.Fatal("read past end should fail")
	}
}

func TestBitRoundTripProperty(t *testing.T) {
	// Property: any sequence of (width, value) writes reads back
	// identically.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%24) + 1
		widths := make([]int, count)
		vals := make([]uint64, count)
		w := NewBitWriter()
		for i := range widths {
			widths[i] = rng.Intn(64) + 1
			vals[i] = rng.Uint64()
			if widths[i] < 64 {
				vals[i] &= 1<<uint(widths[i]) - 1
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewBitReader(w.Bytes())
		for i := range widths {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeParseProperty(t *testing.T) {
	// Property: Serialize then ParseInto is the identity on the fields the
	// simulator depends on, for random UDP packets with random hydra
	// blobs and vlan tags.
	f := func(srcIP, dstIP uint32, sport, dport uint16, vid uint16, blobLen uint8, withVLAN, withHydra bool) bool {
		d := buildUDPPacket(bytes.Repeat([]byte{0xaa}, int(blobLen%32)))
		d.IPv4.Src, d.IPv4.Dst = IP4(srcIP), IP4(dstIP)
		d.UDP.SrcPort, d.UDP.DstPort = sport, dport
		if d.UDP.DstPort == GTPUPort || d.UDP.SrcPort == GTPUPort {
			return true // GTP parsing path tested separately
		}
		if withVLAN {
			d.HasVLAN = true
			d.VLAN = VLAN{VID: vid & 0x0fff}
		}
		if withHydra {
			d.InsertHydra(bytes.Repeat([]byte{0x7e}, int(blobLen%16)))
		}
		got := new(Decoded)
		if err := ParseInto(got, d.Serialize()); err != nil {
			return false
		}
		if got.IPv4.Src != IP4(srcIP) || got.IPv4.Dst != IP4(dstIP) {
			return false
		}
		if got.UDP.SrcPort != sport || got.UDP.DstPort != dport {
			return false
		}
		if got.HasVLAN != withVLAN || got.HasHydra != withHydra {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGTPUPortFallback(t *testing.T) {
	// A UDP packet using port 2152 without a GTP-U header must parse as
	// plain UDP (port-based tunnel detection is only a heuristic).
	d := buildUDPPacket([]byte{0x00, 0x01, 0x02}) // version nibble 0: not GTP
	d.UDP.SrcPort = GTPUPort
	got := new(Decoded)
	if err := ParseInto(got, d.Serialize()); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if got.HasGTPU || !got.HasUDP {
		t.Fatalf("flags: gtpu=%v udp=%v", got.HasGTPU, got.HasUDP)
	}
	if len(got.Payload) != 3 {
		t.Fatalf("payload = %d bytes", len(got.Payload))
	}
}
