package bytecode

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
)

// refPutBits and refGetBits are the bit-serial codec the byte-wise one
// replaced, kept here as its reference: one bit per iteration, MSB
// first, the wire layout Program.EncodeTele's BitWriter emits.
func refPutBits(buf []byte, off, width int, v uint64) {
	for i := width - 1; i >= 0; i-- {
		buf[off>>3] |= byte(v>>uint(i)&1) << uint(7-off%8)
		off++
	}
}

func refGetBits(buf []byte, off, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<1 | uint64(buf[off>>3]>>uint(7-off%8)&1)
		off++
	}
	return v
}

// TestTeleCodecExhaustive checks every (bit offset 0..15, width 1..64)
// against the bit-serial reference with random values: putBits writes
// the same bytes, alone in a zeroed buffer and packed between two
// neighbouring fields that share its head and tail bytes; getBits reads
// the same value out of random bytes; and decode∘encode is the identity.
func TestTeleCodecExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got, want := make([]byte, 12), make([]byte, 12)
	for off := 0; off < 16; off++ {
		for width := 1; width <= 64; width++ {
			for rep := 0; rep < 8; rep++ {
				v := rng.Uint64()
				if rep == 0 {
					v = ^uint64(0)
				}
				clear(got)
				clear(want)
				putBits(got, off, width, v)
				refPutBits(want, off, width, v)
				if !bytes.Equal(got, want) {
					t.Fatalf("putBits(off=%d, width=%d, %#x) = %x, reference %x", off, width, v, got, want)
				}
				if back := getBits(got, off, width); back != pipeline.Mask(width, v) {
					t.Fatalf("getBits∘putBits(off=%d, width=%d, %#x) = %#x", off, width, v, back)
				}

				pre, post := rng.Uint64(), rng.Uint64()
				clear(got)
				clear(want)
				putBits(got, 0, off, pre)
				putBits(got, off, width, v)
				putBits(got, off+width, 7, post)
				refPutBits(want, 0, off, pre)
				refPutBits(want, off, width, v)
				refPutBits(want, off+width, 7, post)
				if !bytes.Equal(got, want) {
					t.Fatalf("packed putBits(off=%d, width=%d) = %x, reference %x", off, width, got, want)
				}

				rng.Read(got)
				if g, w := getBits(got, off, width), refGetBits(got, off, width); g != w {
					t.Fatalf("getBits(%x, off=%d, width=%d) = %#x, reference %#x", got, off, width, g, w)
				}
			}
		}
	}
}
