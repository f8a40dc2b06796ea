// Package dataplane implements byte-level packet layers for the software
// switch substrate: Ethernet, VLAN, the P4-tutorial source-routing stack,
// IPv4, UDP, TCP, ICMP echo, GTP-U, and the Hydra telemetry header.
//
// The design follows gopacket's DecodingLayer idiom: each layer decodes
// from and serializes to byte slices without hidden allocation, so the
// simulator's hot path can reuse buffers.
package dataplane

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// EtherType identifies the protocol carried in an Ethernet frame.
type EtherType uint16

// EtherTypes used by the substrate. EtherTypeHydra marks a Hydra
// telemetry header inserted directly after Ethernet (the compiled
// hydra_eth_type of Figure 6); EtherTypeSourceRoute is the P4-tutorial
// source-routing protocol the §5.1 case study generalizes.
const (
	EtherTypeIPv4        EtherType = 0x0800
	EtherTypeVLAN        EtherType = 0x8100
	EtherTypeSourceRoute EtherType = 0x1234
	EtherTypeHydra       EtherType = 0x88B5 // IEEE 802 local experimental
)

func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeVLAN:
		return "VLAN"
	case EtherTypeSourceRoute:
		return "SourceRoute"
	case EtherTypeHydra:
		return "Hydra"
	}
	return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 builds a MAC from the low 48 bits of v, useful for
// synthetic hosts ("host 7" gets 00:00:00:00:00:07).
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// Uint64 returns the address as an integer.
func (m MAC) Uint64() uint64 {
	var v uint64
	for _, b := range m {
		v = v<<8 | uint64(b)
	}
	return v
}

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	Dst  MAC
	Src  MAC
	Type EtherType
}

// EthernetLen is the serialized length of an Ethernet header.
const EthernetLen = 14

// Decode parses the header from b and returns the remaining payload.
func (e *Ethernet) Decode(b []byte) ([]byte, error) {
	if len(b) < EthernetLen {
		return nil, fmt.Errorf("ethernet: short header: %d bytes", len(b))
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(b[12:14]))
	return b[EthernetLen:], nil
}

// Append serializes the header onto buf.
func (e *Ethernet) Append(buf []byte) []byte {
	buf = append(buf, e.Dst[:]...)
	buf = append(buf, e.Src[:]...)
	return binary.BigEndian.AppendUint16(buf, uint16(e.Type))
}

// VLAN is an 802.1Q tag.
type VLAN struct {
	PCP  uint8  // priority code point (3 bits)
	VID  uint16 // VLAN identifier (12 bits)
	Type EtherType
}

// VLANLen is the serialized length of a VLAN tag.
const VLANLen = 4

// Decode parses the tag from b and returns the remaining payload.
func (v *VLAN) Decode(b []byte) ([]byte, error) {
	if len(b) < VLANLen {
		return nil, fmt.Errorf("vlan: short tag: %d bytes", len(b))
	}
	tci := binary.BigEndian.Uint16(b[0:2])
	v.PCP = uint8(tci >> 13)
	v.VID = tci & 0x0fff
	v.Type = EtherType(binary.BigEndian.Uint16(b[2:4]))
	return b[VLANLen:], nil
}

// Append serializes the tag onto buf.
func (v *VLAN) Append(buf []byte) []byte {
	tci := uint16(v.PCP)<<13 | v.VID&0x0fff
	buf = binary.BigEndian.AppendUint16(buf, tci)
	return binary.BigEndian.AppendUint16(buf, uint16(v.Type))
}

// SourceRouteHop is one entry of the source-routing header stack,
// generalizing the P4 tutorial's format (§5.1): a bottom-of-stack bit, a
// 15-bit egress port the switch should forward through, and the 32-bit
// identifier of the switch expected to process this entry — the field
// the Hydra path-validation checker compares against switch_id.
type SourceRouteHop struct {
	BOS      bool
	Port     uint16
	SwitchID uint32
}

// SourceRouteHopLen is the serialized length of one stack entry.
const SourceRouteHopLen = 6

// decodeSourceRouteInto parses the full header stack (entries up to and
// including the bottom-of-stack entry) into a caller-owned slice
// (normally sliced to length 0), so steady-state parsing reuses its
// capacity, and returns the remaining payload.
func decodeSourceRouteInto(hops []SourceRouteHop, b []byte) ([]SourceRouteHop, []byte, error) {
	for {
		if len(b) < SourceRouteHopLen {
			return nil, nil, fmt.Errorf("source route: truncated stack after %d hops", len(hops))
		}
		v := binary.BigEndian.Uint16(b[0:2])
		h := SourceRouteHop{
			BOS:      v&0x8000 != 0,
			Port:     v & 0x7fff,
			SwitchID: binary.BigEndian.Uint32(b[2:6]),
		}
		hops = append(hops, h)
		b = b[SourceRouteHopLen:]
		if h.BOS {
			return hops, b, nil
		}
		if len(hops) > 64 {
			return nil, nil, fmt.Errorf("source route: stack exceeds 64 hops without bottom-of-stack")
		}
	}
}

// AppendSourceRoute serializes hops onto buf, forcing the bottom-of-stack
// bit on the final entry.
func AppendSourceRoute(buf []byte, hops []SourceRouteHop) []byte {
	for i, h := range hops {
		v := h.Port & 0x7fff
		if h.BOS || i == len(hops)-1 {
			v |= 0x8000
		}
		buf = binary.BigEndian.AppendUint16(buf, v)
		buf = binary.BigEndian.AppendUint32(buf, h.SwitchID)
	}
	return buf
}

// IP4 is a 32-bit IPv4 address in host byte order helpers.
type IP4 uint32

// IP4FromAddr converts a netip.Addr (must be IPv4) to IP4.
func IP4FromAddr(a netip.Addr) IP4 {
	b := a.As4()
	return IP4(binary.BigEndian.Uint32(b[:]))
}

// MustIP4 parses a dotted-quad string, panicking on error (for tests and
// topology fixtures).
func MustIP4(s string) IP4 {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		panic(fmt.Sprintf("dataplane: bad IPv4 address %q", s))
	}
	return IP4FromAddr(a)
}

func (ip IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// InPrefix reports whether ip falls inside prefix/bits.
func (ip IP4) InPrefix(prefix IP4, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits >= 32 {
		return ip == prefix
	}
	mask := ^IP4(0) << (32 - uint(bits))
	return ip&mask == prefix&mask
}
