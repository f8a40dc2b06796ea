package wireproto

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzWireFrame from fuzzSeeds")

// fuzzSeeds is the named seed corpus of FuzzWireFrame: one valid frame
// of every binary payload kind, a JSON one, and the damaged shapes. The
// committed files under testdata/fuzz embed the version byte and the
// checksums, so they are generated from this list
// (TestCommittedFuzzSeeds, -update) rather than edited.
func fuzzSeeds(t testing.TB) map[string][]byte {
	batch, err := AppendPacketBatch(nil, samplePackets()[:2])
	if err != nil {
		t.Fatal(err)
	}
	seedChunk, err := AppendSeed(nil, [][2]uint32{{0xac100001, 0xac110202}, {1, 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	seedDone, err := AppendSeed(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := encodeFrame(t, TypePacketBatch, batch)
	corrupt[len(corrupt)-2] ^= 0x40
	return map[string][]byte{
		"seed_hello":        encodeFrame(t, TypeHello, []byte(`{"role":"worker","node":"worker-0"}`)),
		"seed_packet_batch": encodeFrame(t, TypePacketBatch, batch),
		"seed_seed":         append(encodeFrame(t, TypeSeed, seedChunk), encodeFrame(t, TypeSeed, seedDone)...),
		"seed_seed_short":   encodeFrame(t, TypeSeed, seedChunk[:len(seedChunk)-3]),
		"seed_fin":          encodeFrame(t, TypeFin, nil),
		"seed_credit":       encodeFrame(t, TypeCredit, AppendCredit(nil, 3)),
		"seed_two_frames":   append(encodeFrame(t, TypeFin, nil), encodeFrame(t, TypeCredit, AppendCredit(nil, 1))...),
		"seed_truncated":    encodeFrame(t, TypePacketBatch, batch)[:headerLen+3],
		"seed_bad_crc":      corrupt,
	}
}

// TestCommittedFuzzSeeds keeps the committed corpus equal to fuzzSeeds,
// so a version bump cannot leave seeds the reader refuses at byte 4.
func TestCommittedFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireFrame")
	for name, data := range fuzzSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if *updateSeeds {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is stale: run go test ./internal/wireproto -run TestCommittedFuzzSeeds -update", path)
		}
	}
}

// FuzzWireFrame hammers the framing layer with arbitrary bytes. The
// invariants:
//
//   - ReadFrame never panics and never allocates past the payload
//     bound;
//   - every accepted frame survives a re-encode/re-decode round trip
//     byte-exactly (the codec is canonical);
//   - an accepted TypePacketBatch payload drains through the batch
//     decoder without panicking, and if it drains cleanly it re-encodes
//     to the identical payload; an accepted TypeSeed payload that
//     decodes re-encodes to the identical payload too.
func FuzzWireFrame(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Add([]byte("HYWP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		r.MaxPayload = 1 << 16 // keep fuzz memory small
		for {
			fr, err := r.ReadFrame()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
					!errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrOversized) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			var buf bytes.Buffer
			if err := NewWriter(&buf).WriteFrame(fr.Type, fr.Payload); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			re, err := NewReader(&buf).ReadFrame()
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if re.Type != fr.Type || !bytes.Equal(re.Payload, fr.Payload) {
				t.Fatalf("round trip changed frame: type %d->%d, %d->%d payload bytes",
					fr.Type, re.Type, len(fr.Payload), len(re.Payload))
			}
			switch fr.Type {
			case TypePacketBatch:
				fuzzDrainBatch(t, fr.Payload)
			case TypeSeed:
				if pairs, done, err := DecodeSeed(fr.Payload); err == nil {
					if re, err := AppendSeed(nil, pairs, done); err != nil || !bytes.Equal(re, fr.Payload) {
						t.Fatalf("seed codec not canonical: %v, %d vs %d bytes", err, len(re), len(fr.Payload))
					}
				}
			}
			re.Release()
			fr.Release()
		}
	})
}

// fuzzDrainBatch decodes a batch payload; if it decodes cleanly, the
// packets must re-encode to the identical bytes.
func fuzzDrainBatch(t *testing.T, payload []byte) {
	var d BatchDecoder
	if err := d.Reset(payload); err != nil {
		return
	}
	var pkts []Packet
	for {
		p, err := d.Next()
		if err != nil {
			return
		}
		if p == nil {
			break
		}
		cp := *p
		cp.Hops = append([]Hop(nil), p.Hops...)
		pkts = append(pkts, cp)
	}
	re, err := AppendPacketBatch(nil, pkts)
	if err != nil {
		t.Fatalf("re-encoding decoded batch: %v", err)
	}
	if !bytes.Equal(re, payload) {
		t.Fatalf("batch codec not canonical: %d vs %d bytes", len(re), len(payload))
	}
}
