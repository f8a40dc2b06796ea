package trafficgen_test

import (
	"bytes"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/difftest"
	"repro/internal/symexec"
	"repro/internal/trafficgen"
)

func TestAdversarialPacketMapping(t *testing.T) {
	h := trafficgen.AdversarialHop{
		Headers: map[string]uint64{
			"hdr.ipv4.src_addr": 0x0a000001,
			"hdr.ipv4.dst_addr": 0x0a000002,
			"hdr.ipv4.protocol": uint64(dataplane.ProtoUDP),
			"hdr.udp.sport":     4242,
			"hdr.udp.dport":     53,
		},
		PktLen: 200,
	}
	p := trafficgen.AdversarialPacket(h)
	if p.Src != dataplane.IP4(0x0a000001) || p.Dst != dataplane.IP4(0x0a000002) {
		t.Errorf("addresses not mapped: %v -> %v", p.Src, p.Dst)
	}
	if p.Proto != dataplane.ProtoUDP || p.Sport != 4242 || p.Dport != 53 {
		t.Errorf("l4 fields not mapped: proto=%d %d->%d", p.Proto, p.Sport, p.Dport)
	}
	if p.Size != 200 {
		t.Errorf("size %d, want 200", p.Size)
	}
}

func TestAdversarialPacketFold(t *testing.T) {
	// Unmapped header paths must still distinguish packets on the wire:
	// two hops differing only in a metadata field get different flows.
	a := trafficgen.AdversarialPacket(trafficgen.AdversarialHop{
		Headers: map[string]uint64{"standard_metadata.egress_port": 1}, PktLen: 100,
	})
	b := trafficgen.AdversarialPacket(trafficgen.AdversarialHop{
		Headers: map[string]uint64{"standard_metadata.egress_port": 9}, PktLen: 100,
	})
	if a.FlowKey() == b.FlowKey() {
		t.Errorf("distinct metadata folded to the same flow: %v", a.FlowKey())
	}
	// And the fold is deterministic.
	a2 := trafficgen.AdversarialPacket(trafficgen.AdversarialHop{
		Headers: map[string]uint64{"standard_metadata.egress_port": 1}, PktLen: 100,
	})
	if a != a2 {
		t.Errorf("fold not deterministic: %+v vs %+v", a, a2)
	}
}

func TestAdversarialPacketMinSize(t *testing.T) {
	p := trafficgen.AdversarialPacket(trafficgen.AdversarialHop{PktLen: 1})
	if p.Size < dataplane.EthernetLen+dataplane.IPv4Len {
		t.Errorf("undersized frame: %d", p.Size)
	}
	if p.Decode().Serialize() == nil {
		t.Error("packet does not serialize")
	}
	// Width-max frontier probes must not materialize 4GB payloads.
	big := trafficgen.AdversarialPacket(trafficgen.AdversarialHop{PktLen: ^uint32(0)})
	if big.Size > 1500 {
		t.Errorf("frame size %d not clamped to MTU", big.Size)
	}
}

func TestAdversarialSourceCycles(t *testing.T) {
	hops := []trafficgen.AdversarialHop{
		{Headers: map[string]uint64{"hdr.ipv4.src_addr": 1}, PktLen: 100},
		{Headers: map[string]uint64{"hdr.ipv4.src_addr": 2}, PktLen: 200},
	}
	src := trafficgen.NewAdversarial(hops, 0)
	if src.Len() != 2 {
		t.Fatalf("len %d, want 2", src.Len())
	}
	p0, p1, p2 := src.Next(), src.Next(), src.Next()
	if p0.Gap == 0 || p0.Gap != p1.Gap {
		t.Errorf("inter-arrival gap not constant: %v vs %v", p0.Gap, p1.Gap)
	}
	p2.Gap = p0.Gap
	p0cmp := p0
	if p0cmp != p2 {
		t.Errorf("source does not cycle: %+v vs %+v", p0, p2)
	}
}

// TestAdversarialFromFrontier consumes the committed frontier corpus:
// every violating witness must render to a valid, serializable wire
// frame, and the whole corpus must fit an Adversarial replay source.
func TestAdversarialFromFrontier(t *testing.T) {
	files, err := difftest.LoadFrontierDir("../difftest/testdata/frontier")
	if err != nil {
		t.Fatalf("loading frontier corpus: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("empty frontier corpus")
	}
	var hops []trafficgen.AdversarialHop
	for _, f := range files {
		ex, err := symexec.ForChecker(f.Checker)
		if err != nil {
			t.Fatalf("%s: %v", f.Checker, err)
		}
		paths := map[string]string{}
		for _, hv := range ex.Headers() {
			paths[hv.Name] = hv.Path
		}
		for _, pair := range f.Pairs {
			for _, hop := range pair.Violate.Hops {
				ah := trafficgen.AdversarialHop{Headers: map[string]uint64{}, PktLen: hop.PktLen}
				for name, v := range hop.Headers {
					ah.Headers[paths[name]] = v
				}
				hops = append(hops, ah)
			}
		}
	}
	src := trafficgen.NewAdversarial(hops, 100_000)
	for i := 0; i < src.Len(); i++ {
		p := src.Next()
		wire := p.Decode().Serialize()
		if len(wire) == 0 {
			t.Fatalf("packet %d does not serialize", i)
		}
		again := p.Decode().Serialize()
		if !bytes.Equal(wire, again) {
			t.Fatalf("packet %d serialization unstable", i)
		}
	}
}
