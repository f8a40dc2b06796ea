package dataplane

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func randKey(rng *rand.Rand) FlowKey {
	proto := ProtoTCP
	if rng.Intn(2) == 0 {
		proto = ProtoUDP
	}
	return FlowKey{
		Src:   IP4(rng.Uint32()),
		Dst:   IP4(rng.Uint32()),
		Proto: proto,
		Sport: uint16(rng.Uint32()),
		Dport: uint16(rng.Uint32()),
	}
}

// TestRSSHashSymmetry: the repeating-0x6d5a Toeplitz key must make the
// hash invariant under direction reversal, so both halves of a
// connection share a shard.
func TestRSSHashSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		k := randKey(rng)
		rev := FlowKey{Src: k.Dst, Dst: k.Src, Proto: k.Proto, Sport: k.Dport, Dport: k.Sport}
		if k.RSSHash() != rev.RSSHash() {
			t.Fatalf("asymmetric hash: %+v -> %08x, reverse -> %08x", k, k.RSSHash(), rev.RSSHash())
		}
	}
}

// TestRSSHashSpread: distinct flows must spread across buckets; a
// degenerate hash would serialize the engine onto one shard.
func TestRSSHashSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const flows, buckets = 4096, 8
	var counts [buckets]int
	for i := 0; i < flows; i++ {
		counts[randKey(rng).RSSHash()%buckets]++
	}
	for b, c := range counts {
		if c < flows/buckets/2 || c > flows/buckets*2 {
			t.Fatalf("bucket %d holds %d of %d flows (counts %v)", b, c, flows, counts)
		}
	}
}

// toeplitz is the bit-serial reference for RSSHash's table: for every
// set bit of the input, XOR in the 32-bit rssKey window starting at that
// bit position.
func toeplitz(data []byte) uint32 {
	var h uint32
	w := binary.BigEndian.Uint32(rssKey[0:4])
	for i, b := range data {
		for bit := 0; bit < 8; bit++ {
			if b&(0x80>>uint(bit)) != 0 {
				h ^= w
			}
			next := rssKey[i+4] >> uint(7-bit) & 1
			w = w<<1 | uint32(next)
		}
	}
	return h
}

// rssKeyOf is the flow key whose RSSHash input bytes are in.
func rssKeyOf(in []byte) FlowKey {
	return FlowKey{
		Src:   IP4(binary.BigEndian.Uint32(in[0:4])),
		Dst:   IP4(binary.BigEndian.Uint32(in[4:8])),
		Sport: binary.BigEndian.Uint16(in[8:10]),
		Dport: binary.BigEndian.Uint16(in[10:12]),
		Proto: in[12],
	}
}

// TestRSSHashMatchesReference: the table hash equals the bit-serial one.
// The single-byte inputs read every table entry once; both hashes are
// XORs over the input's bytes, so equality there is equality everywhere,
// and the random keys check that the combination is that XOR.
func TestRSSHashMatchesReference(t *testing.T) {
	for i := 0; i < 13; i++ {
		for v := 0; v < 256; v++ {
			var in [13]byte
			in[i] = byte(v)
			if got, want := rssKeyOf(in[:]).RSSHash(), toeplitz(in[:]); got != want {
				t.Fatalf("byte %d = %#02x: RSSHash %08x, reference %08x", i, v, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	var in [13]byte
	for n := 0; n < 1_000_000; n++ {
		rng.Read(in[:])
		if got, want := rssKeyOf(in[:]).RSSHash(), toeplitz(in[:]); got != want {
			t.Fatalf("input % x: RSSHash %08x, reference %08x", in, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { rssSink = FlowKey{Src: 1, Dst: 2}.RSSHash() }); allocs != 0 {
		t.Fatalf("RSSHash allocated %v times, want 0", allocs)
	}
}

var rssSink uint32

func BenchmarkRSSHash(b *testing.B) {
	keys := make([]FlowKey, 1024)
	rng := rand.New(rand.NewSource(4))
	for i := range keys {
		keys[i] = randKey(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rssSink ^= keys[i&1023].RSSHash()
	}
}

// TestRSSHashZeroKey: all-zero input hashes to 0 — the Toeplitz hash
// has no constant term, so non-IPv4 traffic lands deterministically on
// shard 0.
func TestRSSHashZeroKey(t *testing.T) {
	if h := (FlowKey{}).RSSHash(); h != 0 {
		t.Fatalf("zero key hashed to %08x", h)
	}
}

func TestFlowKeyOf(t *testing.T) {
	udp := &Decoded{
		HasIPv4: true,
		IPv4:    IPv4{Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2"), Protocol: ProtoUDP},
		HasUDP:  true,
		UDP:     UDP{SrcPort: 1234, DstPort: 53},
	}
	want := FlowKey{Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2"), Proto: ProtoUDP, Sport: 1234, Dport: 53}
	if got := FlowKeyOf(udp); got != want {
		t.Errorf("udp key %+v, want %+v", got, want)
	}

	tcp := &Decoded{
		HasIPv4: true,
		IPv4:    IPv4{Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2"), Protocol: ProtoTCP},
		HasTCP:  true,
		TCP:     TCP{SrcPort: 1234, DstPort: 80},
	}
	wantTCP := FlowKey{Src: MustIP4("10.0.0.1"), Dst: MustIP4("10.0.0.2"), Proto: ProtoTCP, Sport: 1234, Dport: 80}
	if got := FlowKeyOf(tcp); got != wantTCP {
		t.Errorf("tcp key %+v, want %+v", got, wantTCP)
	}

	if got := FlowKeyOf(&Decoded{}); got != (FlowKey{}) {
		t.Errorf("non-IPv4 packet yielded non-zero key %+v", got)
	}
}
