package dataplane

import (
	"encoding/binary"
	"fmt"
)

// IP protocol numbers used by the substrate.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// IPv4 is a 20-byte IPv4 header (no options).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      IP4
	Dst      IP4
}

// IPv4Len is the serialized length of an optionless IPv4 header.
const IPv4Len = 20

// Decode parses the header from b and returns the remaining payload,
// verifying version, IHL, and the header checksum.
func (ip *IPv4) Decode(b []byte) ([]byte, error) {
	if len(b) < IPv4Len {
		return nil, fmt.Errorf("ipv4: short header: %d bytes", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return nil, fmt.Errorf("ipv4: bad version %d", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl != IPv4Len {
		return nil, fmt.Errorf("ipv4: options unsupported (ihl=%d)", ihl)
	}
	if Checksum(b[:IPv4Len]) != 0 {
		return nil, fmt.Errorf("ipv4: bad header checksum")
	}
	ip.TOS = b[1]
	ip.TotalLen = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	ip.Src = IP4(binary.BigEndian.Uint32(b[12:16]))
	ip.Dst = IP4(binary.BigEndian.Uint32(b[16:20]))
	return b[IPv4Len:], nil
}

// Append serializes the header onto buf with a freshly computed checksum.
// TotalLen must already be set (header + payload bytes).
func (ip *IPv4) Append(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, 0x45, ip.TOS)
	buf = binary.BigEndian.AppendUint16(buf, ip.TotalLen)
	buf = binary.BigEndian.AppendUint16(buf, ip.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	buf = append(buf, ip.TTL, ip.Protocol, 0, 0) // checksum placeholder
	buf = binary.BigEndian.AppendUint32(buf, uint32(ip.Src))
	buf = binary.BigEndian.AppendUint32(buf, uint32(ip.Dst))
	ck := Checksum(buf[start : start+IPv4Len])
	binary.BigEndian.PutUint16(buf[start+10:start+12], ck)
	ip.Checksum = ck
	return buf
}

// Checksum computes the RFC 1071 Internet checksum over b. It sums 32-bit
// big-endian words into 64 bits and folds once at the end: RFC 1071 §2(B)
// lets a one's-complement sum run over any word size, so the result is the
// 16-bit loop's.
func Checksum(b []byte) uint16 {
	var sum uint64
	for ; len(b) >= 4; b = b[4:] {
		sum += uint64(binary.BigEndian.Uint32(b))
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	sum = sum&0xffffffff + sum>>32
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDP is an 8-byte UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16 // header + payload
	Checksum uint16 // 0 means not computed (legal in IPv4)
}

// UDPLen is the serialized length of a UDP header.
const UDPLen = 8

// Decode parses the header from b and returns the remaining payload.
func (u *UDP) Decode(b []byte) ([]byte, error) {
	if len(b) < UDPLen {
		return nil, fmt.Errorf("udp: short header: %d bytes", len(b))
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	return b[UDPLen:], nil
}

// Append serializes the header onto buf. Length must already be set.
func (u *UDP) Append(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, u.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, u.DstPort)
	buf = binary.BigEndian.AppendUint16(buf, u.Length)
	return binary.BigEndian.AppendUint16(buf, u.Checksum)
}

// TCP is a 20-byte TCP header (no options).
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8 // FIN=0x01 SYN=0x02 RST=0x04 PSH=0x08 ACK=0x10
	Window   uint16
	Checksum uint16
	Urgent   uint16
}

// TCPSyn is the TCP SYN flag bit.
const TCPSyn uint8 = 1 << 1

// TCPLen is the serialized length of an optionless TCP header.
const TCPLen = 20

// Decode parses the header from b and returns the remaining payload.
func (t *TCP) Decode(b []byte) ([]byte, error) {
	if len(b) < TCPLen {
		return nil, fmt.Errorf("tcp: short header: %d bytes", len(b))
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < TCPLen || dataOff > len(b) {
		return nil, fmt.Errorf("tcp: bad data offset %d", dataOff)
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	return b[dataOff:], nil
}

// Append serializes the header onto buf.
func (t *TCP) Append(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, t.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, t.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, t.Seq)
	buf = binary.BigEndian.AppendUint32(buf, t.Ack)
	buf = append(buf, 5<<4, t.Flags) // data offset = 5 words
	buf = binary.BigEndian.AppendUint16(buf, t.Window)
	buf = binary.BigEndian.AppendUint16(buf, t.Checksum)
	return binary.BigEndian.AppendUint16(buf, t.Urgent)
}

// ICMPEcho is an ICMP echo request/reply header (8 bytes).
type ICMPEcho struct {
	Type     uint8 // 8 = request, 0 = reply
	Code     uint8
	Checksum uint16
	ID       uint16
	Seq      uint16
}

// ICMP echo type values.
const (
	ICMPEchoRequest uint8 = 8
	ICMPEchoReply   uint8 = 0
)

// ICMPEchoLen is the serialized length of an ICMP echo header.
const ICMPEchoLen = 8

// Decode parses the header from b and returns the remaining payload.
func (ic *ICMPEcho) Decode(b []byte) ([]byte, error) {
	if len(b) < ICMPEchoLen {
		return nil, fmt.Errorf("icmp: short header: %d bytes", len(b))
	}
	ic.Type = b[0]
	ic.Code = b[1]
	ic.Checksum = binary.BigEndian.Uint16(b[2:4])
	ic.ID = binary.BigEndian.Uint16(b[4:6])
	ic.Seq = binary.BigEndian.Uint16(b[6:8])
	return b[ICMPEchoLen:], nil
}

// Append serializes the header onto buf.
func (ic *ICMPEcho) Append(buf []byte) []byte {
	buf = append(buf, ic.Type, ic.Code)
	buf = binary.BigEndian.AppendUint16(buf, ic.Checksum)
	buf = binary.BigEndian.AppendUint16(buf, ic.ID)
	return binary.BigEndian.AppendUint16(buf, ic.Seq)
}

// GTPU is a minimal GTP-U header (8 bytes, no extension headers): the
// encapsulation Aether's UPF applies to user traffic between the base
// station and the fabric (§5.2).
type GTPU struct {
	MsgType uint8 // 255 = G-PDU (encapsulated user packet)
	Length  uint16
	TEID    uint32
}

// GTPUGPDU is the message type for encapsulated user traffic.
const GTPUGPDU uint8 = 255

// GTPULen is the serialized length of the minimal GTP-U header.
const GTPULen = 8

// GTPUPort is the well-known UDP port for GTP-U.
const GTPUPort uint16 = 2152

// Decode parses the header from b and returns the remaining payload.
func (g *GTPU) Decode(b []byte) ([]byte, error) {
	if len(b) < GTPULen {
		return nil, fmt.Errorf("gtpu: short header: %d bytes", len(b))
	}
	if v := b[0] >> 5; v != 1 {
		return nil, fmt.Errorf("gtpu: bad version %d", v)
	}
	g.MsgType = b[1]
	g.Length = binary.BigEndian.Uint16(b[2:4])
	g.TEID = binary.BigEndian.Uint32(b[4:8])
	return b[GTPULen:], nil
}

// Append serializes the header onto buf. Length must already be set (the
// payload length in bytes).
func (g *GTPU) Append(buf []byte) []byte {
	buf = append(buf, 1<<5|1<<4, g.MsgType) // version 1, protocol type GTP
	buf = binary.BigEndian.AppendUint16(buf, g.Length)
	return binary.BigEndian.AppendUint32(buf, g.TEID)
}
