package bytecode_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/pipeline"
)

// refField is one field of a program's telemetry record as
// pipeline.Program documents the wire layout — hop count, then the
// declared fields in order, an array as its 8-bit count and Cap elements,
// every declared field and element padded to a byte under AlignedTele —
// laid out here independently of the compiled copy plan.
type refField struct {
	ref        pipeline.FieldRef
	off, width int
}

func refLayout(t *testing.T, p *pipeline.Program) ([]refField, int) {
	t.Helper()
	var fields []refField
	off := 0
	add := func(ref pipeline.FieldRef, width int, pad bool) {
		fields = append(fields, refField{ref, off, width})
		off += width
		if pad && p.AlignedTele {
			off = (off + 7) &^ 7
		}
	}
	add(pipeline.FieldHops, 8, false)
	for _, f := range p.Tele {
		if !f.IsArray {
			add(pipeline.FieldRef(f.Name), f.Width, true)
			continue
		}
		add(pipeline.ArrayCount(f.Name), 8, false)
		for i := 0; i < f.Cap; i++ {
			add(pipeline.ArraySlot(f.Name, i), f.Width, true)
		}
	}
	if off != p.TeleWireBits() {
		t.Fatalf("%s: reference layout is %d bits, TeleWireBits %d", p.Name, off, p.TeleWireBits())
	}
	return fields, (off + 7) / 8
}

// refRecode is the reference codec over one record: every field read
// bit by bit out of in, and the canonical record — padding zero — those
// values encode to.
func refRecode(fields []refField, size int, in []byte) (vals []uint64, out []byte) {
	out = make([]byte, size)
	for _, f := range fields {
		v := bytecode.RefGetBits(in, f.off, f.width)
		vals = append(vals, v)
		bytecode.RefPutBits(out, f.off, f.width, v)
	}
	return vals, out
}

// codecMember is one program of a checked set.
type codecMember struct {
	vp     *bytecode.Prog
	fields []refField
	size   int
}

func newCodecMember(t *testing.T, p *pipeline.Program) codecMember {
	t.Helper()
	vp, err := bytecode.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	m := codecMember{vp: vp}
	m.fields, m.size = refLayout(t, p)
	if n := bytecode.LinkSet([]bytecode.Member{{Prog: vp}}).TeleWireBytes(); n != m.size {
		t.Fatalf("%s: TeleWireBytes %d, reference %d", p.Name, n, m.size)
	}
	return m
}

// checkCodec holds an image's codec — decode, then encode in place and
// into fresh storage — to the reference on one input blob: bytes past
// the image's size are ignored, a short blob is refused before any slot
// changes, an empty one decodes to zeros.
func checkCodec(t *testing.T, name string, members []codecMember, blob []byte) {
	t.Helper()
	var link []bytecode.Member
	size := 0
	for _, m := range members {
		link = append(link, bytecode.Member{Prog: m.vp})
		size += m.size
	}
	set := bytecode.LinkSet(link)
	if set.TeleWireBytes() != size {
		t.Fatalf("%s: set blob is %d bytes, members sum to %d", name, set.TeleWireBytes(), size)
	}
	c := set.NewCtx()

	if len(blob) > 0 && len(blob) < size {
		before := slices.Clone(c.PHV)
		if err := set.DecodeTele(blob, c.PHV); err == nil {
			t.Fatalf("%s: %d-byte blob decoded into a %d-byte image", name, len(blob), size)
		}
		for i := range before {
			if c.PHV[i] != before[i] {
				t.Fatalf("%s: refused blob changed slot %d", name, i)
			}
		}
		return
	}
	in := blob
	if len(in) == 0 {
		in = make([]byte, size)
	}
	if err := set.DecodeTele(blob, c.PHV); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var want []byte
	off := 0
	for k, m := range members {
		record := in[off : off+m.size]
		vals, canon := refRecode(m.fields, m.size, record)
		for i, f := range m.fields {
			slot, ok := set.SlotOf(k, f.ref)
			if !ok {
				t.Fatalf("%s: member %d has no slot for %s", name, k, f.ref)
			}
			if got := c.PHV[slot]; got != vals[i] {
				t.Fatalf("%s: member %d %s@%d decoded %#x, reference %d-bit %#x", name, k, f.ref, f.off, got, f.width, vals[i])
			}
		}
		// The member alone — a set of one — over its own record.
		one := bytecode.LinkSet([]bytecode.Member{{Prog: m.vp}})
		solo := one.NewCtx()
		if err := one.DecodeTele(record, solo.PHV); err != nil {
			t.Fatalf("%s: member %d alone: %v", name, k, err)
		}
		if got := one.EncodeTele(nil, solo.PHV); !bytes.Equal(got, canon) {
			t.Fatalf("%s: member %d alone encoded %x, reference %x", name, k, got, canon)
		}
		if o, n := set.TeleSpan(k); o != off || n != m.size {
			t.Fatalf("%s: member %d spans [%d, +%d), want [%d, +%d)", name, k, o, n, off, m.size)
		}
		want = append(want, canon...)
		off += m.size
	}
	if fresh := set.EncodeTele(nil, c.PHV); !bytes.Equal(fresh, want) {
		t.Fatalf("%s: encoded %x, reference %x", name, fresh, want)
	}
	if len(blob) >= size {
		tail := append([]byte(nil), blob[size:]...)
		got := set.EncodeTele(blob[:0], c.PHV)
		if &got[0] != &blob[0] || !bytes.Equal(got, want) {
			t.Fatalf("%s: in-place encode %x (moved: %v), reference %x", name, got, &got[0] != &blob[0], want)
		}
		if !bytes.Equal(blob[size:], tail) {
			t.Fatalf("%s: in-place encode wrote past the image's %d bytes", name, size)
		}
	}
}

// randomLayout declares 1–10 telemetry fields of widths 1–64, one in four
// an array.
func randomLayout(rng *rand.Rand, aligned bool) *pipeline.Program {
	p := &pipeline.Program{Name: "random", AlignedTele: aligned}
	for i, n := 0, 1+rng.Intn(10); i < n; i++ {
		f := pipeline.TeleField{Name: fmt.Sprintf("hydra_header.f%d", i), Width: 1 + rng.Intn(64)}
		if rng.Intn(4) == 0 {
			f.IsArray, f.Cap = true, 1+rng.Intn(4)
		}
		p.Tele = append(p.Tele, f)
	}
	return p
}

// blobs are the inputs one layout is checked on: random, non-canonical
// bytes (padding bits set) of exactly the image's size, over-long, short,
// and empty.
func blobs(rng *rand.Rand, size int) [][]byte {
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	ones := bytes.Repeat([]byte{0xFF}, size)
	return [][]byte{random(size), random(size), ones, random(size + 1 + rng.Intn(9)), random(size - 1), random(size / 2), nil}
}

// TestTeleCodecDifferential holds the copy plan to the bit-serial
// reference on the corpus — each of the 12 layouts alone, and all of them
// linked into one image — and on random
// layouts, packed and byte-aligned, alone and linked in threes.
func TestTeleCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var corpus []codecMember
	for _, p := range checkers.All {
		prog, err := compiler.Compile(checkers.MustParse(p.Key), compiler.Options{Name: p.Key})
		if err != nil {
			t.Fatal(err)
		}
		m := newCodecMember(t, prog)
		for _, b := range blobs(rng, m.size) {
			checkCodec(t, p.Key, []codecMember{m}, b)
		}
		corpus = append(corpus, m)
	}
	size := 0
	for _, m := range corpus {
		size += m.size
	}
	for _, b := range blobs(rng, size) {
		checkCodec(t, "corpus set", corpus, b)
	}

	for round := 0; round < 300; round++ {
		var ms []codecMember
		size := 0
		for len(ms) < 3 {
			m := newCodecMember(t, randomLayout(rng, round%2 == 1))
			ms = append(ms, m)
			size += m.size
			for _, b := range blobs(rng, m.size) {
				checkCodec(t, fmt.Sprintf("round %d member %d", round, len(ms)-1), []codecMember{m}, b)
			}
		}
		for _, b := range blobs(rng, size) {
			checkCodec(t, fmt.Sprintf("round %d set", round), ms, b)
		}
	}
}

// fuzzLayout turns fuzz bytes into a layout: one scalar field per byte,
// of width 1 + b%64.
func fuzzLayout(widths []byte, aligned bool) *pipeline.Program {
	p := &pipeline.Program{Name: "fuzz", AlignedTele: aligned}
	for i, b := range widths {
		if i == 24 {
			break
		}
		p.Tele = append(p.Tele, pipeline.TeleField{Name: fmt.Sprintf("hydra_header.f%d", i), Width: 1 + int(b)%64})
	}
	return p
}

// FuzzTeleCodec fuzzes layout and input together. The committed seeds
// are the shapes of the corpus's three fields that miss a byte boundary
// — a 32-bit field at bit 17 (egress-validity), 145 (loop-freedom) and
// 273 (source-routing) — behind the fields that push them there.
func FuzzTeleCodec(f *testing.F) {
	f.Add([]byte{0, 7, 31}, false, bytes.Repeat([]byte{0xA5}, 7))
	f.Add([]byte{0, 63, 63, 7, 31}, false, bytes.Repeat([]byte{0x5A}, 23))
	f.Add([]byte{0, 63, 63, 63, 63, 7, 31}, false, bytes.Repeat([]byte{0xC3}, 39))
	f.Add([]byte{0, 7, 31}, true, bytes.Repeat([]byte{0xFF}, 8))
	f.Fuzz(func(t *testing.T, widths []byte, aligned bool, blob []byte) {
		m := newCodecMember(t, fuzzLayout(widths, aligned))
		// The blob as given — short, exact or over-long, whichever the fuzzer
		// found — then cut or padded to the record, alone and doubled.
		checkCodec(t, "as given", []codecMember{m}, append([]byte(nil), blob...))
		exact := append(append([]byte(nil), blob...), make([]byte, 2*m.size)...)
		checkCodec(t, "exact", []codecMember{m}, append([]byte(nil), exact[:m.size]...))
		checkCodec(t, "pair", []codecMember{m, m}, exact[:2*m.size])
	})
}
