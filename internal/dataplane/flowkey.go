package dataplane

import "encoding/binary"

// FlowKey is the canonical 5-tuple identifying a transport flow. It is
// the unit of affinity for RSS-style receive-side scaling: all packets
// of a flow — in both directions — must hash to the same value so that
// per-flow checker state stays on one shard.
type FlowKey struct {
	Src, Dst     IP4
	Proto        uint8
	Sport, Dport uint16
}

// FlowKeyOf extracts the 5-tuple from a decoded packet. Non-IPv4
// packets yield the zero key (they all land on one shard, like
// non-RSS-hashable traffic landing on queue 0 of a NIC).
func FlowKeyOf(d *Decoded) FlowKey {
	if !d.HasIPv4 {
		return FlowKey{}
	}
	k := FlowKey{Src: d.IPv4.Src, Dst: d.IPv4.Dst, Proto: d.IPv4.Protocol}
	switch {
	case d.HasUDP:
		k.Sport, k.Dport = d.UDP.SrcPort, d.UDP.DstPort
	case d.HasTCP:
		k.Sport, k.Dport = d.TCP.SrcPort, d.TCP.DstPort
	}
	return k
}

// rssKey is the symmetric Toeplitz key (0x6d5a repeating, Woo &
// Zhang's choice): its 16-bit period makes the hash invariant under
// (src,sport) <-> (dst,dport) exchange, so both directions of a flow —
// which the stateful-firewall checker correlates — land on one shard.
var rssKey = func() [40]byte {
	var k [40]byte
	for i := 0; i < len(k); i += 2 {
		k[i], k[i+1] = 0x6d, 0x5a
	}
	return k
}()

// rssTable[i][v] is what byte value v at input byte i adds to the
// Toeplitz hash: the XOR of the 32-bit rssKey windows starting at v's
// set bits. The hash is linear in its input bits, so the hash of an
// input is the XOR of one entry per byte.
var rssTable = func() (t [13][256]uint32) {
	for i := range t {
		key := binary.BigEndian.Uint64(rssKey[i:])
		for v := range t[i] {
			for bit := 0; bit < 8; bit++ {
				if v&(0x80>>bit) != 0 {
					t[i][v] ^= uint32(key >> (32 - bit))
				}
			}
		}
	}
	return t
}()

// RSSHash is the Toeplitz hash of the flow key over the standard RSS
// input layout (src, dst, sport, dport — plus the protocol byte, which
// hardware RSS folds into the queue-indirection table instead).
func (k FlowKey) RSSHash() uint32 {
	var in [13]byte
	binary.BigEndian.PutUint32(in[0:4], uint32(k.Src))
	binary.BigEndian.PutUint32(in[4:8], uint32(k.Dst))
	binary.BigEndian.PutUint16(in[8:10], k.Sport)
	binary.BigEndian.PutUint16(in[10:12], k.Dport)
	in[12] = k.Proto
	var h uint32
	for i, b := range in {
		h ^= rssTable[i][b]
	}
	return h
}
