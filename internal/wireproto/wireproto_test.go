package wireproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

func encodeFrame(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteFrame(typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x01},
		bytes.Repeat([]byte{0xab}, 65536),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, p := range payloads {
		if err := w.WriteFrame(byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, p := range payloads {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != byte(i+1) {
			t.Fatalf("frame %d: type = %d, want %d", i, f.Type, i+1)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(f.Payload), len(p))
		}
		f.Release()
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("at end: err = %v, want io.EOF", err)
	}
}

// TestFrameMalformed pins the typed error for every way a frame can be
// damaged: truncation at each boundary, corrupt CRC, oversized length,
// wrong magic, wrong version.
func TestFrameMalformed(t *testing.T) {
	valid := encodeFrame(t, TypePacketBatch, []byte{1, 2, 3, 4, 5})
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		max     int
		wantErr error
	}{
		{"truncated header", func(b []byte) []byte { return b[:headerLen-3] }, 0, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:headerLen+2] }, 0, ErrTruncated},
		{"truncated crc", func(b []byte) []byte { return b[:len(b)-1] }, 0, ErrTruncated},
		{"corrupt crc", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, 0, ErrChecksum},
		{"corrupt payload", func(b []byte) []byte { b[headerLen] ^= 0x80; return b }, 0, ErrChecksum},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, 0, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[4] = Version + 1; return b }, 0, ErrBadVersion},
		{"oversized length field", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[6:], DefaultMaxPayload+1)
			return b
		}, 0, ErrOversized},
		{"over reader bound", func(b []byte) []byte { return b }, 4, ErrOversized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			r := NewReader(bytes.NewReader(b))
			r.MaxPayload = tc.max
			_, err := r.ReadFrame()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func samplePackets() []Packet {
	return []Packet{
		{Src: 0xac100001, Dst: 0xac110202, Sport: 40000, Dport: 443, Proto: 6, Len: 1500,
			Hops: []Hop{{Switch: 1, In: 3, Out: 1}, {Switch: 3, In: 1, Out: 2}, {Switch: 2, In: 1, Out: 3}}},
		{Src: 1, Dst: 2, Sport: 53, Dport: 53, Proto: 17, Len: 64, Hops: nil},
		{Src: 0xffffffff, Dst: 0, Sport: 0, Dport: 65535, Proto: 255, Len: 9000,
			Hops: []Hop{{Switch: 0xffffffff, In: 65535, Out: 65535}}},
	}
}

func TestPacketBatchRoundTrip(t *testing.T) {
	pkts := samplePackets()
	payload, err := AppendPacketBatch(nil, pkts)
	if err != nil {
		t.Fatal(err)
	}
	var d BatchDecoder
	if err := d.Reset(payload); err != nil {
		t.Fatal(err)
	}
	if d.n != len(pkts) {
		t.Fatalf("batch holds %d packets, want %d", d.n, len(pkts))
	}
	for i := range pkts {
		p, err := d.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if p == nil {
			t.Fatalf("packet %d: early end", i)
		}
		want := pkts[i]
		if p.Src != want.Src || p.Dst != want.Dst || p.Sport != want.Sport ||
			p.Dport != want.Dport || p.Proto != want.Proto || p.Len != want.Len {
			t.Fatalf("packet %d: %+v != %+v", i, *p, want)
		}
		if len(p.Hops) != len(want.Hops) {
			t.Fatalf("packet %d: %d hops, want %d", i, len(p.Hops), len(want.Hops))
		}
		for h := range p.Hops {
			if p.Hops[h] != want.Hops[h] {
				t.Fatalf("packet %d hop %d: %+v != %+v", i, h, p.Hops[h], want.Hops[h])
			}
		}
	}
	p, err := d.Next()
	if err != nil || p != nil {
		t.Fatalf("after last: (%v, %v), want (nil, nil)", p, err)
	}
}

func TestPacketBatchMalformed(t *testing.T) {
	payload, err := AppendPacketBatch(nil, samplePackets())
	if err != nil {
		t.Fatal(err)
	}
	drain := func(payload []byte) error {
		var d BatchDecoder
		if err := d.Reset(payload); err != nil {
			return err
		}
		for {
			p, err := d.Next()
			if err != nil {
				return err
			}
			if p == nil {
				return nil
			}
		}
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"short count", func(b []byte) []byte { return b[:3] }},
		{"huge count", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, MaxBatchPackets+1)
			return b
		}},
		{"count over content", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 100)
			return b
		}},
		{"truncated record", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xee) }},
		{"hop count over content", func(b []byte) []byte {
			b[4+pktFixedLen-1] = MaxHops // first packet claims 64 hops
			return b
		}},
		{"hop count over bound", func(b []byte) []byte {
			b[4+pktFixedLen-1] = MaxHops + 1
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := drain(tc.mutate(append([]byte(nil), payload...))); err == nil {
				t.Fatal("want decode error")
			}
		})
	}
}

func TestPacketBatchBounds(t *testing.T) {
	if _, err := AppendPacketBatch(nil, make([]Packet, MaxBatchPackets+1)); err == nil {
		t.Fatal("want error encoding oversized batch")
	}
	if _, err := AppendPacketBatch(nil, []Packet{{Hops: make([]Hop, MaxHops+1)}}); err == nil {
		t.Fatal("want error encoding oversized hop list")
	}
}

func TestCredit(t *testing.T) {
	n, err := DecodeCredit(AppendCredit(nil, 7))
	if err != nil || n != 7 {
		t.Fatalf("round trip = (%d, %v), want (7, nil)", n, err)
	}
	if _, err := DecodeCredit([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error on short credit payload")
	}
}

func TestSeed(t *testing.T) {
	pairs := [][2]uint32{{0xac100001, 0xac110202}, {0, 0xffffffff}, {7, 7}}
	for _, done := range []bool{false, true} {
		payload, err := AppendSeed([]byte{0xee}, pairs, done)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != 0xee || len(payload) != 1+5+8*len(pairs) {
			t.Fatalf("AppendSeed wrote %d bytes from %#x, want an append of %d", len(payload), payload[0], 5+8*len(pairs))
		}
		got, gotDone, err := DecodeSeed(payload[1:])
		if err != nil || gotDone != done || !slices.Equal(got, pairs) {
			t.Fatalf("round trip (done=%t) = (%v, %t, %v)", done, got, gotDone, err)
		}
	}
	if got, done, err := DecodeSeed([]byte{1, 0, 0, 0, 0}); err != nil || !done || len(got) != 0 {
		t.Fatalf("empty done chunk = (%v, %t, %v)", got, done, err)
	}
	if _, err := AppendSeed(nil, make([][2]uint32, MaxSeedPairs+1), true); err == nil {
		t.Fatal("want error encoding an oversized seed chunk")
	}
	valid, _ := AppendSeed(nil, pairs, true)
	for name, mutate := range map[string]func([]byte) []byte{
		"short header":       func(b []byte) []byte { return b[:4] },
		"unknown flag":       func(b []byte) []byte { b[0] |= 2; return b },
		"count over bound":   func(b []byte) []byte { binary.LittleEndian.PutUint32(b[1:], MaxSeedPairs+1); return b },
		"count over content": func(b []byte) []byte { binary.LittleEndian.PutUint32(b[1:], 4); return b },
		"trailing bytes":     func(b []byte) []byte { return append(b, 0) },
		"truncated pair":     func(b []byte) []byte { return b[:len(b)-1] },
	} {
		if _, _, err := DecodeSeed(mutate(slices.Clone(valid))); err == nil {
			t.Errorf("%s: want decode error", name)
		}
	}
}
