package wireproto

import (
	"encoding/binary"
	"fmt"
)

// MaxBatchPackets bounds the packets one TypePacketBatch frame may
// carry — the protocol-level contract workers size their verdict
// scratch against.
const MaxBatchPackets = 4096

// MaxHops bounds one packet's path length on the wire.
const MaxHops = 64

// Hop is one switch traversal in wire form.
type Hop struct {
	Switch  uint32
	In, Out uint16
}

// Packet is one unit of checking work in wire form: the flow 5-tuple,
// the wire length, and the path the fabric would carry it over. The
// ingest daemon resolves paths (it owns the topology model); workers
// just execute.
type Packet struct {
	Src, Dst     uint32
	Sport, Dport uint16
	Proto        uint8
	Len          uint32
	Hops         []Hop
}

const pktFixedLen = 4 + 4 + 2 + 2 + 1 + 4 + 1 // + 8 bytes per hop

// AppendPacketBatch appends the binary encoding of a packet batch:
// count (uint32 LE) then each record as fixed little-endian fields
// with an explicit hop count.
func AppendPacketBatch(buf []byte, pkts []Packet) ([]byte, error) {
	if len(pkts) > MaxBatchPackets {
		return buf, fmt.Errorf("wireproto: batch of %d packets exceeds %d", len(pkts), MaxBatchPackets)
	}
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], uint32(len(pkts)))
	buf = append(buf, w[:]...)
	for i := range pkts {
		p := &pkts[i]
		if len(p.Hops) > MaxHops {
			return buf, fmt.Errorf("wireproto: packet with %d hops exceeds %d", len(p.Hops), MaxHops)
		}
		binary.LittleEndian.PutUint32(w[:], p.Src)
		buf = append(buf, w[:]...)
		binary.LittleEndian.PutUint32(w[:], p.Dst)
		buf = append(buf, w[:]...)
		binary.LittleEndian.PutUint16(w[:], p.Sport)
		buf = append(buf, w[:2]...)
		binary.LittleEndian.PutUint16(w[:], p.Dport)
		buf = append(buf, w[:2]...)
		buf = append(buf, p.Proto)
		binary.LittleEndian.PutUint32(w[:], p.Len)
		buf = append(buf, w[:]...)
		buf = append(buf, byte(len(p.Hops)))
		for _, h := range p.Hops {
			binary.LittleEndian.PutUint32(w[:], h.Switch)
			buf = append(buf, w[:]...)
			binary.LittleEndian.PutUint16(w[:], h.In)
			buf = append(buf, w[:2]...)
			binary.LittleEndian.PutUint16(w[:], h.Out)
			buf = append(buf, w[:2]...)
		}
	}
	return buf, nil
}

// BatchDecoder iterates a packet-batch payload. The decoder owns one
// Packet and one hop slice, reused across Next calls — copy anything
// that must outlive the iteration.
type BatchDecoder struct {
	buf  []byte
	n    int
	i    int
	pkt  Packet
	hops []Hop
}

// Reset points the decoder at a payload and validates the count.
func (d *BatchDecoder) Reset(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("wireproto: packet batch shorter than its count field")
	}
	n := binary.LittleEndian.Uint32(payload)
	if n > MaxBatchPackets {
		return fmt.Errorf("wireproto: batch count %d exceeds %d", n, MaxBatchPackets)
	}
	d.buf = payload[4:]
	d.n = int(n)
	d.i = 0
	return nil
}

// Next decodes the next packet, or returns (nil, nil) when the batch
// is exhausted exactly at the payload end.
func (d *BatchDecoder) Next() (*Packet, error) {
	if d.i >= d.n {
		if len(d.buf) != 0 {
			return nil, fmt.Errorf("wireproto: %d trailing bytes after packet batch", len(d.buf))
		}
		return nil, nil
	}
	if len(d.buf) < pktFixedLen {
		return nil, fmt.Errorf("wireproto: truncated packet record (%d of %d)", d.i, d.n)
	}
	b := d.buf
	d.pkt.Src = binary.LittleEndian.Uint32(b[0:])
	d.pkt.Dst = binary.LittleEndian.Uint32(b[4:])
	d.pkt.Sport = binary.LittleEndian.Uint16(b[8:])
	d.pkt.Dport = binary.LittleEndian.Uint16(b[10:])
	d.pkt.Proto = b[12]
	d.pkt.Len = binary.LittleEndian.Uint32(b[13:])
	nh := int(b[17])
	if nh > MaxHops {
		return nil, fmt.Errorf("wireproto: packet record with %d hops exceeds %d", nh, MaxHops)
	}
	b = b[pktFixedLen:]
	if len(b) < nh*8 {
		return nil, fmt.Errorf("wireproto: truncated hop list (%d of %d)", d.i, d.n)
	}
	if cap(d.hops) < nh {
		d.hops = make([]Hop, nh)
	}
	d.hops = d.hops[:nh]
	for h := 0; h < nh; h++ {
		d.hops[h] = Hop{
			Switch: binary.LittleEndian.Uint32(b[0:]),
			In:     binary.LittleEndian.Uint16(b[4:]),
			Out:    binary.LittleEndian.Uint16(b[6:]),
		}
		b = b[8:]
	}
	d.pkt.Hops = d.hops
	d.buf = b
	d.i++
	return &d.pkt, nil
}

// AppendCredit appends the binary TypeCredit payload: a uint32 count
// of batch frames the worker has fully processed.
func AppendCredit(buf []byte, frames uint32) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], frames)
	return append(buf, w[:]...)
}

// DecodeCredit parses a TypeCredit payload.
func DecodeCredit(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("wireproto: credit payload of %d bytes, want 4", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// MaxSeedPairs bounds the pairs one TypeSeed frame may carry; a larger
// seed set is sent as several frames, the last one marked done.
const MaxSeedPairs = 8192

const seedDone = 1 // flags bit 0: the final chunk of the seed set

// AppendSeed appends the binary TypeSeed payload: flags (1B), count
// (uint32 LE), then each (src, dst) address pair as two uint32 LE.
func AppendSeed(buf []byte, pairs [][2]uint32, done bool) ([]byte, error) {
	if len(pairs) > MaxSeedPairs {
		return buf, fmt.Errorf("wireproto: seed chunk of %d pairs exceeds %d", len(pairs), MaxSeedPairs)
	}
	var flags byte
	if done {
		flags = seedDone
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pairs)))
	for _, p := range pairs {
		buf = binary.LittleEndian.AppendUint32(buf, p[0])
		buf = binary.LittleEndian.AppendUint32(buf, p[1])
	}
	return buf, nil
}

// DecodeSeed parses a TypeSeed payload into its pairs and done flag.
func DecodeSeed(payload []byte) (pairs [][2]uint32, done bool, err error) {
	if len(payload) < 5 {
		return nil, false, fmt.Errorf("wireproto: seed payload shorter than its flags and count")
	}
	if payload[0]&^seedDone != 0 {
		return nil, false, fmt.Errorf("wireproto: seed payload with unknown flags %#x", payload[0])
	}
	n := binary.LittleEndian.Uint32(payload[1:])
	if n > MaxSeedPairs {
		return nil, false, fmt.Errorf("wireproto: seed count %d exceeds %d", n, MaxSeedPairs)
	}
	b := payload[5:]
	if len(b) != int(n)*8 {
		return nil, false, fmt.Errorf("wireproto: seed payload carries %d bytes for %d pairs", len(b), n)
	}
	pairs = make([][2]uint32, n)
	for i := range pairs {
		pairs[i] = [2]uint32{binary.LittleEndian.Uint32(b[8*i:]), binary.LittleEndian.Uint32(b[8*i+4:])}
	}
	return pairs, payload[0] == seedDone, nil
}
