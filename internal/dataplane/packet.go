package dataplane

import (
	"encoding/binary"
	"fmt"
)

// HydraRaw is the on-wire Hydra telemetry header: when present it sits
// directly after Ethernet, announced by EtherTypeHydra. It stores the
// displaced EtherType (so stripping restores the original packet exactly,
// as §4.1 requires) and the program-specific telemetry blob, whose layout
// only the compiled checker knows.
type HydraRaw struct {
	OrigType EtherType
	Blob     []byte
}

// hydraFixedLen is the fixed part of the Hydra header: orig ethertype (2)
// plus blob length (2).
const hydraFixedLen = 4

// Decode parses the header from b and returns the remaining payload.
func (h *HydraRaw) Decode(b []byte) ([]byte, error) {
	if len(b) < hydraFixedLen {
		return nil, fmt.Errorf("hydra: short header: %d bytes", len(b))
	}
	h.OrigType = EtherType(binary.BigEndian.Uint16(b[0:2]))
	n := int(binary.BigEndian.Uint16(b[2:4]))
	if len(b) < hydraFixedLen+n {
		return nil, fmt.Errorf("hydra: blob truncated: want %d bytes, have %d", n, len(b)-hydraFixedLen)
	}
	h.Blob = b[hydraFixedLen : hydraFixedLen+n]
	return b[hydraFixedLen+n:], nil
}

// Append serializes the header onto buf.
func (h *HydraRaw) Append(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.OrigType))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Blob)))
	return append(buf, h.Blob...)
}

// Decoded is a fully parsed packet. The Has* flags mirror P4 header
// validity bits; the Aether UPF checkers match on them directly.
type Decoded struct {
	Eth Ethernet

	HasHydra bool
	Hydra    HydraRaw

	HasVLAN bool
	VLAN    VLAN

	HasSourceRoute bool
	SourceRoute    []SourceRouteHop

	HasIPv4 bool
	IPv4    IPv4
	HasUDP  bool
	UDP     UDP
	HasTCP  bool
	TCP     TCP
	HasICMP bool
	ICMP    ICMPEcho

	HasGTPU bool
	GTPU    GTPU

	// Inner headers when the packet is GTP-U encapsulated.
	HasInnerIPv4 bool
	InnerIPv4    IPv4
	HasInnerUDP  bool
	InnerUDP     UDP
	HasInnerTCP  bool
	InnerTCP     TCP
	HasInnerICMP bool
	InnerICMP    ICMPEcho

	Payload []byte
}

// ParseInto decodes a full packet from wire bytes into a caller-owned
// Decoded, reusing its SourceRoute capacity so steady-state parsing does
// not allocate. It never fails on an unknown inner protocol — parsing
// just stops and the rest lands in Payload — but it does fail on
// structurally broken headers. All fields are reset first, so d may be
// dirty from a previous packet. On error the contents of d are
// unspecified.
//
// The Hydra blob and Payload alias data: d is only valid while the
// caller owns the frame. Retain a packet past that with Clone.
func ParseInto(d *Decoded, data []byte) error {
	*d = Decoded{SourceRoute: d.SourceRoute[:0]}
	rest, err := d.Eth.Decode(data)
	if err != nil {
		return err
	}
	next := d.Eth.Type

	if next == EtherTypeHydra {
		d.HasHydra = true
		rest, err = d.Hydra.Decode(rest)
		if err != nil {
			return err
		}
		next = d.Hydra.OrigType
	}

	if next == EtherTypeVLAN {
		d.HasVLAN = true
		rest, err = d.VLAN.Decode(rest)
		if err != nil {
			return err
		}
		next = d.VLAN.Type
	}

	if next == EtherTypeSourceRoute {
		d.HasSourceRoute = true
		d.SourceRoute, rest, err = decodeSourceRouteInto(d.SourceRoute, rest)
		if err != nil {
			return err
		}
		next = EtherTypeIPv4 // the tutorial protocol always carries IPv4
	}

	if next != EtherTypeIPv4 {
		d.Payload = rest
		return nil
	}

	d.HasIPv4 = true
	rest, err = d.IPv4.Decode(rest)
	if err != nil {
		return err
	}

	switch d.IPv4.Protocol {
	case ProtoUDP:
		d.HasUDP = true
		rest, err = d.UDP.Decode(rest)
		if err != nil {
			return err
		}
		if d.UDP.DstPort == GTPUPort || d.UDP.SrcPort == GTPUPort {
			// Port 2152 suggests GTP-U, but the port alone is only a
			// heuristic: traffic that happens to use it without a valid
			// GTP header falls back to opaque UDP payload.
			if err := d.parseGTPU(rest); err == nil {
				return nil
			}
			// parseGTPU may have set tunnel flags before hitting the
			// broken framing; clear them so the fallback really is a
			// plain UDP packet (a half-valid tunnel would re-serialize
			// as garbage).
			d.HasGTPU, d.GTPU = false, GTPU{}
			d.HasInnerIPv4, d.InnerIPv4 = false, IPv4{}
			d.HasInnerUDP, d.InnerUDP = false, UDP{}
			d.HasInnerTCP, d.InnerTCP = false, TCP{}
			d.HasInnerICMP, d.InnerICMP = false, ICMPEcho{}
			d.Payload = rest
			return nil
		}
	case ProtoTCP:
		d.HasTCP = true
		rest, err = d.TCP.Decode(rest)
		if err != nil {
			return err
		}
	case ProtoICMP:
		d.HasICMP = true
		rest, err = d.ICMP.Decode(rest)
		if err != nil {
			return err
		}
	}
	d.Payload = rest
	return nil
}

func (d *Decoded) parseGTPU(b []byte) error {
	rest, err := d.GTPU.Decode(b)
	if err != nil {
		return err
	}
	d.HasGTPU = true
	if len(rest) == 0 {
		d.Payload = rest
		return nil
	}
	d.HasInnerIPv4 = true
	rest, err = d.InnerIPv4.Decode(rest)
	if err != nil {
		return err
	}
	switch d.InnerIPv4.Protocol {
	case ProtoUDP:
		d.HasInnerUDP = true
		rest, err = d.InnerUDP.Decode(rest)
	case ProtoTCP:
		d.HasInnerTCP = true
		rest, err = d.InnerTCP.Decode(rest)
	case ProtoICMP:
		d.HasInnerICMP = true
		rest, err = d.InnerICMP.Decode(rest)
	}
	if err != nil {
		return err
	}
	d.Payload = rest
	return nil
}

// Serialize re-encodes the packet to wire bytes, fixing up chained
// EtherTypes, IPv4 total lengths, UDP lengths, and GTP-U lengths so a
// mutated Decoded (e.g. telemetry inserted, tunnel stripped) re-encodes
// consistently. It is a convenience wrapper over AppendTo and, unlike
// the historical implementation, does NOT mutate the receiver — a shared
// *Decoded may be serialized from multiple goroutines concurrently.
func (d *Decoded) Serialize() []byte { return d.AppendTo(nil) }

// WireLen returns the serialized packet length, computed arithmetically
// from the layer validity flags — no serialization happens.
//
// One legacy quirk is preserved deliberately: a GTP-U header with no
// inner IPv4 serializes without its payload (the tunnel carries the
// inner packet, and there is none), so Payload does not count there.
func (d *Decoded) WireLen() int {
	n := EthernetLen
	if d.HasHydra {
		n += hydraFixedLen + len(d.Hydra.Blob)
	}
	if d.HasVLAN {
		n += VLANLen
	}
	if d.HasSourceRoute {
		n += len(d.SourceRoute) * SourceRouteHopLen
	}
	if !d.HasIPv4 {
		return n + len(d.Payload)
	}
	n += IPv4Len
	switch {
	case d.HasGTPU:
		n += UDPLen + GTPULen + d.gtpuInnerLen()
	case d.HasUDP:
		n += UDPLen + len(d.Payload)
	case d.HasTCP:
		n += TCPLen + len(d.Payload)
	case d.HasICMP:
		n += ICMPEchoLen + len(d.Payload)
	default:
		n += len(d.Payload)
	}
	return n
}

// gtpuInnerLen is the byte length of everything inside the GTP-U header:
// inner IPv4 + inner L4 + payload, or 0 when there is no inner packet.
func (d *Decoded) gtpuInnerLen() int {
	if !d.HasInnerIPv4 {
		return 0
	}
	n := IPv4Len + len(d.Payload)
	switch {
	case d.HasInnerUDP:
		n += UDPLen
	case d.HasInnerTCP:
		n += TCPLen
	case d.HasInnerICMP:
		n += ICMPEchoLen
	}
	return n
}

// AppendTo serializes the packet onto buf in a single front-to-back pass
// and returns the extended slice. The total length comes from WireLen,
// so buf grows at most once; all length fix-ups (IPv4 TotalLen, UDP
// Length, GTP-U Length, the EtherType chain) are computed into stack
// copies of the headers — AppendTo never writes to d.
//
// AppendTo is safe for in-place rewrite: if buf is frame[:0] and
// d.Hydra.Blob / d.Payload alias frame at their already-serialized
// offsets (i.e. the wire shape is unchanged since ParseInto), the copies
// of those slices are identity memmoves and the result is a correct
// rewrite of the original frame.
func (d *Decoded) AppendTo(buf []byte) []byte {
	if need := d.WireLen(); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}

	// Resolve the EtherType chain outside-in before writing anything.
	// innermost is what the layer *after* VLAN announces.
	innermost := EtherTypeIPv4
	if d.HasSourceRoute {
		innermost = EtherTypeSourceRoute
	} else if !d.HasIPv4 {
		innermost = d.Eth.Type // opaque payload: preserve as parsed
		if d.HasHydra {
			innermost = d.Hydra.OrigType
		}
		if d.HasVLAN {
			innermost = d.VLAN.Type
		}
	}
	vlanType := innermost
	if d.HasVLAN {
		innermost = EtherTypeVLAN
	}
	hydraOrig := innermost
	if d.HasHydra {
		innermost = EtherTypeHydra
	}

	eth := d.Eth
	eth.Type = innermost
	buf = eth.Append(buf)
	if d.HasHydra {
		h := d.Hydra
		h.OrigType = hydraOrig
		buf = h.Append(buf)
	}
	if d.HasVLAN {
		v := d.VLAN
		v.Type = vlanType
		buf = v.Append(buf)
	}
	if d.HasSourceRoute {
		buf = AppendSourceRoute(buf, d.SourceRoute)
	}
	if !d.HasIPv4 {
		return append(buf, d.Payload...)
	}

	// Explicit length arithmetic replaces the old serialize-to-count.
	var l4Len int
	switch {
	case d.HasGTPU:
		l4Len = UDPLen + GTPULen + d.gtpuInnerLen()
	case d.HasUDP:
		l4Len = UDPLen + len(d.Payload)
	case d.HasTCP:
		l4Len = TCPLen + len(d.Payload)
	case d.HasICMP:
		l4Len = ICMPEchoLen + len(d.Payload)
	default:
		l4Len = len(d.Payload)
	}
	ip := d.IPv4
	ip.TotalLen = uint16(IPv4Len + l4Len)
	buf = ip.Append(buf)

	switch {
	case d.HasGTPU:
		innerLen := d.gtpuInnerLen()
		u := d.UDP
		u.Length = uint16(UDPLen + GTPULen + innerLen)
		buf = u.Append(buf)
		g := d.GTPU
		g.Length = uint16(innerLen)
		buf = g.Append(buf)
		if d.HasInnerIPv4 {
			iip := d.InnerIPv4
			iip.TotalLen = uint16(innerLen)
			buf = iip.Append(buf)
			switch {
			case d.HasInnerUDP:
				iu := d.InnerUDP
				iu.Length = uint16(UDPLen + len(d.Payload))
				buf = iu.Append(buf)
			case d.HasInnerTCP:
				buf = d.InnerTCP.Append(buf)
			case d.HasInnerICMP:
				buf = d.InnerICMP.Append(buf)
			}
			buf = append(buf, d.Payload...)
		}
	case d.HasUDP:
		u := d.UDP
		u.Length = uint16(UDPLen + len(d.Payload))
		buf = u.Append(buf)
		buf = append(buf, d.Payload...)
	case d.HasTCP:
		buf = d.TCP.Append(buf)
		buf = append(buf, d.Payload...)
	case d.HasICMP:
		buf = d.ICMP.Append(buf)
		buf = append(buf, d.Payload...)
	default:
		buf = append(buf, d.Payload...)
	}
	return buf
}

// Clone returns a deep copy of d that is safe to retain after the frame
// backing d is released, rewritten, or pooled: SourceRoute, the Hydra
// blob, and Payload get their own storage.
func (d *Decoded) Clone() *Decoded {
	c := *d
	if d.SourceRoute != nil {
		c.SourceRoute = append([]SourceRouteHop(nil), d.SourceRoute...)
	}
	if d.Hydra.Blob != nil {
		c.Hydra.Blob = append([]byte(nil), d.Hydra.Blob...)
	}
	if d.Payload != nil {
		c.Payload = append([]byte(nil), d.Payload...)
	}
	return &c
}

// InsertHydra adds an empty Hydra header (first-hop injection, §4.1).
// It is a no-op if the header is already present.
func (d *Decoded) InsertHydra(blob []byte) {
	if d.HasHydra {
		d.Hydra.Blob = blob
		return
	}
	d.HasHydra = true
	d.Hydra = HydraRaw{Blob: blob}
}

// StripHydra removes the Hydra header (last-hop strip, §4.1), restoring
// the original EtherType chain. Returns the blob that was carried.
func (d *Decoded) StripHydra() []byte {
	if !d.HasHydra {
		return nil
	}
	blob := d.Hydra.Blob
	d.HasHydra = false
	d.Hydra = HydraRaw{}
	return blob
}
