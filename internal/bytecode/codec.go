package bytecode

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/pipeline"
)

// Telemetry wire codec over slots. An image's blob layout is a copy plan
// fixed at link time: one step per telemetry field, sorted by shape, so
// the fields a deparser emits on byte boundaries — nearly all of them —
// move with one load or store in a loop that does nothing else, and only
// the odd ones walk bits. Every shape reads and writes exactly what
// getBits and putBits would, which codec_test.go holds against the
// bit-serial reference.

// stepKind is the shape of one copy-plan step.
type stepKind uint8

const (
	stepBits stepKind = iota // any width at any bit offset: getBits / putBits
	stepFlag                 // one bit: a shift and a mask
	stepU8                   // byte-aligned 8, 16, 32 or 64 bits: one load or store
	stepU16
	stepU32
	stepU64
	numStepKinds
)

func stepShape(off, width int32) stepKind {
	switch {
	case width == 1:
		return stepFlag
	case off&7 != 0:
		return stepBits
	case width == 8:
		return stepU8
	case width == 16:
		return stepU16
	case width == 32:
		return stepU32
	case width == 64:
		return stepU64
	}
	return stepBits
}

// planTele orders the image's steps by shape — the fields are disjoint,
// so any order decodes and encodes the same bytes — and records where
// each shape's run ends.
func (p *image) planTele() {
	slices.SortStableFunc(p.teleSteps, func(a, b teleStep) int { return int(a.kind) - int(b.kind) })
	n := 0
	for k := range p.kindEnd {
		for n < len(p.teleSteps) && p.teleSteps[n].kind == stepKind(k) {
			n++
		}
		p.kindEnd[k] = n
	}
}

// TeleWireBytes is the serialized telemetry blob size: a Prog's own
// record, a Set's members' records one after another.
func (p *image) TeleWireBytes() int { return p.teleBytes }

// DecodeTele unpacks a telemetry blob into the slot PHV, each field's
// bits into its slot. An empty blob (first hop) zero-fills the telemetry
// slots; a short one fails before any slot is written; bytes past
// TeleWireBytes are ignored.
func (p *image) DecodeTele(blob []byte, phv []uint64) error {
	if len(blob) == 0 {
		copy(phv[:p.nTele], p.template[:p.nTele])
		return nil
	}
	if len(blob) < p.teleBytes {
		return fmt.Errorf("bytecode: telemetry blob: read past end: need %d bytes, have %d", p.teleBytes, len(blob))
	}
	steps, end := p.teleSteps, &p.kindEnd
	for _, st := range steps[:end[stepBits]] {
		phv[st.slot] = getBits(blob, int(st.off), int(st.width))
	}
	for _, st := range steps[end[stepBits]:end[stepFlag]] {
		phv[st.slot] = uint64(blob[st.off>>3]>>(7-uint(st.off)&7)) & 1
	}
	for _, st := range steps[end[stepFlag]:end[stepU8]] {
		phv[st.slot] = uint64(blob[st.off>>3])
	}
	for _, st := range steps[end[stepU8]:end[stepU16]] {
		phv[st.slot] = uint64(binary.BigEndian.Uint16(blob[st.off>>3:]))
	}
	for _, st := range steps[end[stepU16]:end[stepU32]] {
		phv[st.slot] = uint64(binary.BigEndian.Uint32(blob[st.off>>3:]))
	}
	for _, st := range steps[end[stepU32]:end[stepU64]] {
		phv[st.slot] = binary.BigEndian.Uint64(blob[st.off>>3:])
	}
	return nil
}

// EncodeTele packs the slot PHV's telemetry fields into dst's storage
// (grown only if too small) and returns the blob, padding bits zero.
// Callers that own dst get an allocation-free encode — in place over the
// blob DecodeTele just read when dst is blob[:0], since every slot was
// read before the first byte is written; pass nil for a fresh blob.
func (p *image) EncodeTele(dst []byte, phv []uint64) []byte {
	if cap(dst) >= p.teleBytes {
		dst = dst[:p.teleBytes]
		clear(dst)
	} else {
		dst = make([]byte, p.teleBytes)
	}
	steps, end := p.teleSteps, &p.kindEnd
	for _, st := range steps[:end[stepBits]] {
		putBits(dst, int(st.off), int(st.width), phv[st.slot])
	}
	for _, st := range steps[end[stepBits]:end[stepFlag]] {
		dst[st.off>>3] |= byte(phv[st.slot]&1) << (7 - uint(st.off)&7)
	}
	for _, st := range steps[end[stepFlag]:end[stepU8]] {
		dst[st.off>>3] = byte(phv[st.slot])
	}
	for _, st := range steps[end[stepU8]:end[stepU16]] {
		binary.BigEndian.PutUint16(dst[st.off>>3:], uint16(phv[st.slot]))
	}
	for _, st := range steps[end[stepU16]:end[stepU32]] {
		binary.BigEndian.PutUint32(dst[st.off>>3:], uint32(phv[st.slot]))
	}
	for _, st := range steps[end[stepU32]:end[stepU64]] {
		binary.BigEndian.PutUint64(dst[st.off>>3:], phv[st.slot])
	}
	return dst
}

// putBits writes the low `width` bits of v MSB-first at static bit
// offset off, a byte at a time: the head and tail bytes are OR-ed in
// (the buffer must be pre-zeroed), whole bytes in between are stored.
func putBits(buf []byte, off, width int, v uint64) {
	if width <= 0 {
		return
	}
	v = pipeline.Mask(width, v)
	i, head := off>>3, 8-off&7 // head: bits left in the first byte
	if width <= head {
		buf[i] |= byte(v << uint(head-width))
		return
	}
	rem := width - head
	buf[i] |= byte(v >> uint(rem))
	for rem >= 8 {
		i++
		rem -= 8
		buf[i] = byte(v >> uint(rem))
	}
	if rem > 0 {
		buf[i+1] |= byte(v << uint(8-rem))
	}
}

// getBits reads `width` bits MSB-first from static bit offset off.
func getBits(buf []byte, off, width int) uint64 {
	if width <= 0 {
		return 0
	}
	i, head := off>>3, 8-off&7
	v := uint64(buf[i]) & (0xFF >> uint(8-head))
	if width <= head {
		return v >> uint(head-width)
	}
	rem := width - head
	for rem >= 8 {
		i++
		rem -= 8
		v = v<<8 | uint64(buf[i])
	}
	if rem > 0 {
		v = v<<uint(rem) | uint64(buf[i+1])>>uint(8-rem)
	}
	return v
}
