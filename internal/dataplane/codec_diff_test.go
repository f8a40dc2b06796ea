package dataplane

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// legacySerialize is the pre-AppendTo serializer, kept verbatim as the
// differential reference: inside-out build with one Append(nil) per
// layer and cascading copies. It mutates the receiver (length and
// EtherType fix-ups are written back), so callers pass a Clone.
func legacySerialize(d *Decoded) []byte {
	var inner []byte
	if d.HasInnerIPv4 {
		var l4 []byte
		switch {
		case d.HasInnerUDP:
			d.InnerUDP.Length = uint16(UDPLen + len(d.Payload))
			l4 = d.InnerUDP.Append(nil)
		case d.HasInnerTCP:
			l4 = d.InnerTCP.Append(nil)
		case d.HasInnerICMP:
			l4 = d.InnerICMP.Append(nil)
		}
		d.InnerIPv4.TotalLen = uint16(IPv4Len + len(l4) + len(d.Payload))
		inner = d.InnerIPv4.Append(nil)
		inner = append(inner, l4...)
		inner = append(inner, d.Payload...)
	}

	var l3 []byte
	if d.HasIPv4 {
		var l4 []byte
		switch {
		case d.HasGTPU:
			d.GTPU.Length = uint16(len(inner))
			g := d.GTPU.Append(nil)
			g = append(g, inner...)
			d.UDP.Length = uint16(UDPLen + len(g))
			l4 = d.UDP.Append(nil)
			l4 = append(l4, g...)
		case d.HasUDP:
			d.UDP.Length = uint16(UDPLen + len(d.Payload))
			l4 = d.UDP.Append(nil)
			l4 = append(l4, d.Payload...)
		case d.HasTCP:
			l4 = d.TCP.Append(nil)
			l4 = append(l4, d.Payload...)
		case d.HasICMP:
			l4 = d.ICMP.Append(nil)
			l4 = append(l4, d.Payload...)
		default:
			l4 = d.Payload
		}
		d.IPv4.TotalLen = uint16(IPv4Len + len(l4))
		l3 = d.IPv4.Append(nil)
		l3 = append(l3, l4...)
	} else {
		l3 = d.Payload
	}

	if d.HasSourceRoute {
		sr := AppendSourceRoute(nil, d.SourceRoute)
		l3 = append(sr, l3...)
	}

	innermostType := EtherTypeIPv4
	if d.HasSourceRoute {
		innermostType = EtherTypeSourceRoute
	} else if !d.HasIPv4 {
		innermostType = d.Eth.Type
		if d.HasHydra {
			innermostType = d.Hydra.OrigType
		}
		if d.HasVLAN {
			innermostType = d.VLAN.Type
		}
	}

	if d.HasVLAN {
		d.VLAN.Type = innermostType
		l3 = append(d.VLAN.Append(nil), l3...)
		innermostType = EtherTypeVLAN
	}
	if d.HasHydra {
		d.Hydra.OrigType = innermostType
		l3 = append(d.Hydra.Append(nil), l3...)
		innermostType = EtherTypeHydra
	}
	d.Eth.Type = innermostType
	return append(d.Eth.Append(nil), l3...)
}

// dirtyDecoded returns a Decoded full of stale state from a "previous
// packet" — every flag set, slices non-empty — so reuse tests prove
// ParseInto really resets everything.
func dirtyDecoded() *Decoded {
	d := buildUDPPacket([]byte("stale payload from the previous packet"))
	d.HasVLAN = true
	d.VLAN = VLAN{PCP: 7, VID: 4095}
	d.InsertHydra([]byte{0xde, 0xad, 0xbe, 0xef, 0x99})
	d.HasSourceRoute = true
	d.SourceRoute = []SourceRouteHop{{Port: 9}, {Port: 8}, {Port: 7}, {Port: 6, BOS: true}}
	d.HasGTPU = true
	d.GTPU = GTPU{MsgType: GTPUGPDU, Length: 77, TEID: 0xffff}
	d.HasInnerIPv4 = true
	d.InnerIPv4 = IPv4{TTL: 9, Protocol: ProtoTCP, Src: 1, Dst: 2}
	d.HasInnerTCP = true
	d.InnerTCP = TCP{SrcPort: 5, DstPort: 6}
	d.HasICMP = true
	d.ICMP = ICMPEcho{Type: ICMPEchoRequest, ID: 3, Seq: 4}
	return d
}

// normalizedDecoded flattens the nil-vs-empty slice distinction so a
// fresh Decoded (nil SourceRoute) compares equal to a ParseInto reuse
// (length-0 slice with retained capacity).
func normalizedDecoded(d *Decoded) Decoded {
	c := *d
	if len(c.SourceRoute) == 0 {
		c.SourceRoute = nil
	}
	if len(c.Hydra.Blob) == 0 {
		c.Hydra.Blob = nil
	}
	if len(c.Payload) == 0 {
		c.Payload = nil
	}
	return c
}

// checkCodecDifferential is the shared oracle for the table test and the
// fuzzer: on any input bytes,
//
//  1. ParseInto into a dirty reused Decoded agrees with one into a fresh Decoded —
//     same error, or semantically equal result;
//  2. AppendTo reproduces legacy Serialize byte-for-byte;
//  3. WireLen equals the serialized length without serializing.
func checkCodecDifferential(t *testing.T, data []byte) {
	t.Helper()
	fresh := new(Decoded)
	freshErr := ParseInto(fresh, data)
	reused := dirtyDecoded()
	reusedErr := ParseInto(reused, data)
	if (freshErr == nil) != (reusedErr == nil) {
		t.Fatalf("fresh ParseInto err %v but reused ParseInto err %v", freshErr, reusedErr)
	}
	if freshErr != nil {
		return
	}
	if !reflect.DeepEqual(normalizedDecoded(fresh), normalizedDecoded(reused)) {
		t.Fatalf("ParseInto into dirty Decoded diverged from a fresh one\nfresh  %+v\nreused %+v", fresh, reused)
	}

	legacy := legacySerialize(fresh.Clone())
	got := fresh.AppendTo(nil)
	if !bytes.Equal(got, legacy) {
		t.Fatalf("AppendTo diverged from legacy Serialize\n got %x\nwant %x", got, legacy)
	}
	if n := fresh.WireLen(); n != len(legacy) {
		t.Fatalf("WireLen = %d, serialized length = %d", n, len(legacy))
	}

	// In-place rewrite: serializing over the input frame (same shape,
	// aliased blob/payload) must produce the same bytes too.
	frame := append([]byte(nil), data...)
	aliased := &Decoded{}
	if err := ParseInto(aliased, frame); err != nil {
		t.Fatalf("re-parse of own input: %v", err)
	}
	if aliased.WireLen() == len(frame) {
		inPlace := aliased.AppendTo(frame[:0])
		if !bytes.Equal(inPlace, legacySerialize(fresh.Clone())) {
			t.Fatalf("in-place AppendTo over the source frame diverged\n got %x\nwant %x", inPlace, legacy)
		}
	}
}

// TestCodecDifferential runs the differential oracle over every corpus
// wire shape and every malformed fragment.
func TestCodecDifferential(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.name, func(t *testing.T) {
			checkCodecDifferential(t, tc.build().Serialize())
		})
	}
	for _, tc := range malformedCases() {
		t.Run("malformed-"+tc.name, func(t *testing.T) {
			checkCodecDifferential(t, tc.wire)
		})
	}
}

// TestAppendToDoesNotMutate pins the fix for the legacy hazard: Serialize
// used to write Length/TotalLen/EtherType fix-ups back into the
// receiver. AppendTo must leave the Decoded bit-identical.
func TestAppendToDoesNotMutate(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := new(Decoded)
			if err := ParseInto(p, tc.build().Serialize()); err != nil {
				t.Fatal(err)
			}
			before := *p
			_ = p.AppendTo(nil)
			_ = p.WireLen()
			if !reflect.DeepEqual(before, *p) {
				t.Fatalf("AppendTo mutated the receiver\nbefore %+v\nafter  %+v", before, *p)
			}
		})
	}
}

// TestSerializeSharedDecodedRace serializes one shared *Decoded from
// several goroutines. Run under -race this proves the serializer is
// read-only; the byte comparison proves the outputs are stable.
func TestSerializeSharedDecodedRace(t *testing.T) {
	for _, tc := range roundTripCases() {
		p := new(Decoded)
		if err := ParseInto(p, tc.build().Serialize()); err != nil {
			t.Fatal(err)
		}
		want := p.Serialize()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 0, p.WireLen())
				for i := 0; i < 50; i++ {
					buf = p.AppendTo(buf[:0])
					if !bytes.Equal(buf, want) {
						t.Errorf("%s: concurrent AppendTo diverged", tc.name)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestCloneIndependence: mutating a clone's owned slices must not touch
// the original's, and vice versa.
func TestCloneIndependence(t *testing.T) {
	d := buildUDPPacket([]byte("payload"))
	d.InsertHydra([]byte{1, 2, 3})
	d.HasSourceRoute = true
	d.SourceRoute = []SourceRouteHop{{Port: 1}, {Port: 2, BOS: true}}
	c := d.Clone()
	if !reflect.DeepEqual(normalizedDecoded(d), normalizedDecoded(c)) {
		t.Fatalf("clone differs from original")
	}
	c.Hydra.Blob[0] = 0xff
	c.Payload[0] = 0xff
	c.SourceRoute[0].Port = 99
	if d.Hydra.Blob[0] == 0xff || d.Payload[0] == 0xff || d.SourceRoute[0].Port == 99 {
		t.Fatal("clone shares storage with the original")
	}
}

// codecBenchFrame is the frame the codec's hot-path budget is stated on:
// VLAN + 24-byte Hydra blob + UDP.
func codecBenchFrame() []byte {
	d := buildUDPPacket([]byte("benchmark payload bytes"))
	d.HasVLAN = true
	d.VLAN = VLAN{VID: 42}
	d.InsertHydra(make([]byte, 24))
	return d.Serialize()
}

// TestCodecAllocs: parsing into a caller-owned Decoded and serializing
// into a buffer of WireLen capacity allocate nothing — an accidental
// per-parse allocation fails here on any machine.
func TestCodecAllocs(t *testing.T) {
	wire := codecBenchFrame()
	var dec Decoded
	if n := testing.AllocsPerRun(200, func() {
		if err := ParseInto(&dec, wire); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("ParseInto: %.1f allocs/run, want 0", n)
	}
	buf := make([]byte, 0, dec.WireLen())
	if n := testing.AllocsPerRun(200, func() { buf = dec.AppendTo(buf[:0]) }); n > 0 {
		t.Errorf("AppendTo: %.1f allocs/run, want 0", n)
	}
	if !bytes.Equal(buf, wire) {
		t.Errorf("AppendTo(ParseInto(frame)) != frame")
	}
}

func BenchmarkParseInto(b *testing.B) {
	wire := codecBenchFrame()
	var dec Decoded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ParseInto(&dec, wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendTo(b *testing.B) {
	p := new(Decoded)
	if err := ParseInto(p, codecBenchFrame()); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, p.WireLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendTo(buf[:0])
	}
}
