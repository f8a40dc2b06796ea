package difftest

import (
	"math/rand"
	"testing"
)

// wideDictSrc looks a five-column key of mixed widths up in every block
// — 80 bits, which the packed store holds in two key words and each
// apply site packs column by column — and reports what it read.
const wideDictSrc = `
header bit<8> a;
header bit<16> b;
header bit<32> c;
control dict<(bit<8>,bit<16>,bit<32>,bit<8>,bit<16>),bit<8>> wide;
tele bit<8> sum = 0;
{ sum = wide[(a, b, c, a, b)]; }
{ sum = sum + wide[(a, b, c, 7, b)]; }
{ report((sum, wide[(a, b, c, a, 0)])); }
`

// TestWideDictConformance holds the applies of a dict of more than four
// columns to the indus/eval oracle, with control-plane installs,
// replacements and traces drawn from one small pool of header values so
// that most lookups hit. RandomProgram declares such a dict too, but its
// random keys almost never meet an installed entry.
func TestWideDictConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := NewHarness(t, wideDictSrc)
	as, bs, cs := []uint64{0, 7, 200}, []uint64{0, 1, 65535}, []uint64{0, 9, 1 << 31}
	pick := func(p []uint64) uint64 { return p[rng.Intn(len(p))] }
	hits := 0
	for round := 0; round < 40; round++ {
		for id := uint32(1); id <= 2; id++ {
			a, b, c := pick(as), pick(bs), pick(cs)
			h.InstallDict(id, "wide", []uint64{a, b, c, a, b}, uint64(1+rng.Intn(255)))
			h.InstallDict(id, "wide", []uint64{a, b, c, 7, b}, uint64(1+rng.Intn(255)))
			h.InstallDict(id, "wide", []uint64{a, b, c, a, 0}, uint64(1+rng.Intn(255)))
		}
		trace := make([]HopSpec, 1+rng.Intn(3))
		for i := range trace {
			trace[i] = HopSpec{
				SW:      uint32(1 + rng.Intn(2)),
				Headers: map[string]uint64{"a": pick(as), "b": pick(bs), "c": pick(cs)},
				PktLen:  64,
			}
		}
		_, reports := h.RunBoth(trace)
		for _, r := range reports {
			if len(r) == 2 && r[1] != 0 {
				hits++
			}
		}
	}
	if hits < 10 {
		t.Fatalf("vacuous: %d of 40 traces reported a hit", hits)
	}
}
