package netsim

import (
	"fmt"
	"strings"

	"repro/internal/dataplane"
)

// CaptureRecord is one captured frame: where and when it was seen plus
// a decoded summary (pcap-style, but structured).
type CaptureRecord struct {
	At   Time
	Node string
	Port int
	// Dir is "rx" or "tx" relative to the node.
	Dir string
	Len int
	// Summary is a one-line human-readable rendering.
	Summary string
	// HasHydra reports whether the frame carried a telemetry header.
	HasHydra bool
}

// Capture collects frames from the links it is attached to, like a
// network TAP (Figure 13's vantage points). Attach with Tap. Records
// are in execution order.
type Capture struct {
	// Max bounds the number of retained records (0 = unbounded): the
	// first Max are kept.
	Max     int
	Records []CaptureRecord
	// Dropped counts records discarded past Max.
	Dropped uint64

	// dec is reused across records. Taps borrow the frame for the
	// duration of the call (it may be a pooled buffer that is recycled
	// afterwards), so a record keeps only derived strings — never the
	// frame or slices into it.
	dec dataplane.Decoded
}

func (c *Capture) record(at Time, node string, port int, frame []byte) {
	if c.Max > 0 && len(c.Records) >= c.Max {
		c.Dropped++
		return
	}
	rec := CaptureRecord{At: at, Node: node, Port: port, Dir: "rx", Len: len(frame)}
	if err := dataplane.ParseInto(&c.dec, frame); err == nil {
		rec.Summary = Summarize(&c.dec)
		rec.HasHydra = c.dec.HasHydra
	} else {
		rec.Summary = fmt.Sprintf("undecodable (%v)", err)
	}
	c.Records = append(c.Records, rec)
}

// Summarize renders a packet as a one-line tcpdump-style summary.
func Summarize(pkt *dataplane.Decoded) string {
	var parts []string
	if pkt.HasHydra {
		parts = append(parts, fmt.Sprintf("HYDRA[%dB]", len(pkt.Hydra.Blob)))
	}
	if pkt.HasVLAN {
		parts = append(parts, fmt.Sprintf("VLAN %d", pkt.VLAN.VID))
	}
	if pkt.HasSourceRoute {
		hops := make([]string, len(pkt.SourceRoute))
		for i, h := range pkt.SourceRoute {
			hops[i] = fmt.Sprintf("%d", h.Port)
		}
		parts = append(parts, "SR["+strings.Join(hops, ",")+"]")
	}
	switch {
	case pkt.HasGTPU:
		parts = append(parts, fmt.Sprintf("GTP teid=%d", pkt.GTPU.TEID))
		if pkt.HasInnerIPv4 {
			parts = append(parts, fmt.Sprintf("| %s > %s", pkt.InnerIPv4.Src, pkt.InnerIPv4.Dst))
			switch {
			case pkt.HasInnerUDP:
				parts = append(parts, fmt.Sprintf("udp %d>%d", pkt.InnerUDP.SrcPort, pkt.InnerUDP.DstPort))
			case pkt.HasInnerTCP:
				parts = append(parts, fmt.Sprintf("tcp %d>%d", pkt.InnerTCP.SrcPort, pkt.InnerTCP.DstPort))
			}
		}
	case pkt.HasIPv4:
		parts = append(parts, fmt.Sprintf("%s > %s", pkt.IPv4.Src, pkt.IPv4.Dst))
		switch {
		case pkt.HasUDP:
			parts = append(parts, fmt.Sprintf("udp %d>%d", pkt.UDP.SrcPort, pkt.UDP.DstPort))
		case pkt.HasTCP:
			parts = append(parts, fmt.Sprintf("tcp %d>%d", pkt.TCP.SrcPort, pkt.TCP.DstPort))
		case pkt.HasICMP:
			kind := "echo-reply"
			if pkt.ICMP.Type == dataplane.ICMPEchoRequest {
				kind = "echo-request"
			}
			parts = append(parts, fmt.Sprintf("icmp %s seq=%d", kind, pkt.ICMP.Seq))
		}
	default:
		parts = append(parts, pkt.Eth.Type.String())
	}
	return strings.Join(parts, " ")
}

// String renders the capture like a terse tcpdump transcript.
func (c *Capture) String() string {
	var b strings.Builder
	for _, r := range c.Records {
		fmt.Fprintf(&b, "%12s %s:%d %s %4dB %s\n", r.At, r.Node, r.Port, r.Dir, r.Len, r.Summary)
	}
	return b.String()
}
