package bytecode_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// bindPacketHeaders is the map reference of a pass's header environment:
// the packet-derived standard bindings, a missing key for an absent one.
func bindPacketHeaders(pkt *dataplane.Decoded) map[string]pipeline.Value {
	h := map[string]pipeline.Value{}
	if pkt.HasVLAN {
		h["hdr.vlan_tag.vlan_id"] = pipeline.B(16, uint64(pkt.VLAN.VID))
	}
	if pkt.HasIPv4 {
		h["hdr.ipv4.$valid$"] = pipeline.BoolV(true)
		h["hdr.ipv4.src_addr"] = pipeline.B(32, uint64(pkt.IPv4.Src))
		h["hdr.ipv4.dst_addr"] = pipeline.B(32, uint64(pkt.IPv4.Dst))
		h["hdr.ipv4.protocol"] = pipeline.B(8, uint64(pkt.IPv4.Protocol))
	} else {
		h["hdr.ipv4.$valid$"] = pipeline.BoolV(false)
	}
	h["hdr.tcp.$valid$"] = pipeline.BoolV(pkt.HasTCP)
	if pkt.HasTCP {
		h["hdr.tcp.sport"] = pipeline.B(16, uint64(pkt.TCP.SrcPort))
		h["hdr.tcp.dport"] = pipeline.B(16, uint64(pkt.TCP.DstPort))
	}
	h["hdr.udp.$valid$"] = pipeline.BoolV(pkt.HasUDP && !pkt.HasGTPU)
	if pkt.HasUDP {
		h["hdr.udp.sport"] = pipeline.B(16, uint64(pkt.UDP.SrcPort))
		h["hdr.udp.dport"] = pipeline.B(16, uint64(pkt.UDP.DstPort))
	}
	h["hdr.inner_ipv4.$valid$"] = pipeline.BoolV(pkt.HasInnerIPv4)
	if pkt.HasInnerIPv4 {
		h["hdr.inner_ipv4.src_addr"] = pipeline.B(32, uint64(pkt.InnerIPv4.Src))
		h["hdr.inner_ipv4.dst_addr"] = pipeline.B(32, uint64(pkt.InnerIPv4.Dst))
		h["hdr.inner_ipv4.protocol"] = pipeline.B(8, uint64(pkt.InnerIPv4.Protocol))
	}
	h["hdr.inner_tcp.$valid$"] = pipeline.BoolV(pkt.HasInnerTCP)
	if pkt.HasInnerTCP {
		h["hdr.inner_tcp.dport"] = pipeline.B(16, uint64(pkt.InnerTCP.DstPort))
	}
	h["hdr.inner_udp.$valid$"] = pipeline.BoolV(pkt.HasInnerUDP)
	if pkt.HasInnerUDP {
		h["hdr.inner_udp.dport"] = pipeline.B(16, uint64(pkt.InnerUDP.DstPort))
	}
	h["hdr.srcRoutes[0].$valid$"] = pipeline.BoolV(pkt.HasSourceRoute && len(pkt.SourceRoute) > 0)
	if pkt.HasSourceRoute && len(pkt.SourceRoute) > 0 {
		h["hdr.srcRoutes[0].switch_id"] = pipeline.B(32, uint64(pkt.SourceRoute[0].SwitchID))
	}
	return h
}

// stdWidths is the width every standard path is declared at in the
// corpus, by path index.
var stdWidths = [bytecode.NumStdHeaders]int{
	bytecode.HInPort: 8, bytecode.HEgPort: 8, bytecode.HSkipFwd: 1,
	bytecode.HVLANID: 16, bytecode.HIPv4Valid: 1, bytecode.HIPv4Src: 32, bytecode.HIPv4Dst: 32, bytecode.HIPv4Proto: 8,
	bytecode.HTCPValid: 1, bytecode.HTCPSport: 16, bytecode.HTCPDport: 16,
	bytecode.HUDPValid: 1, bytecode.HUDPSport: 16, bytecode.HUDPDport: 16,
	bytecode.HInnerIPv4Valid: 1, bytecode.HInnerIPv4Src: 32, bytecode.HInnerIPv4Dst: 32, bytecode.HInnerIPv4Proto: 8,
	bytecode.HInnerTCPValid: 1, bytecode.HInnerTCPDport: 16, bytecode.HInnerUDPValid: 1, bytecode.HInnerUDPDport: 16,
	bytecode.HSrcRoute0Valid: 1, bytecode.HSrcRoute0Switch: 32,
}

// stdStage links a program that binds every standard path and a
// program-specific one, reporting all of them, and poisons every slot the
// VM can write: a fill must write each bound slot itself.
func stdStage(t *testing.T, dirt uint64) *bytecode.Stage {
	t.Helper()
	prog := &pipeline.Program{Name: "std-headers", HeaderBindings: map[string]string{"custom": "hdr.custom"}}
	args := []pipeline.Expr{f("hdr.custom", 16)}
	for i, path := range bytecode.StdHeaderPaths {
		prog.HeaderBindings[fmt.Sprintf("h%d", i)] = path
		args = append(args, f(path, stdWidths[i]))
	}
	prog.Checker = []pipeline.Op{pipeline.ReportOp{Args: args}}
	p, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	st := bytecode.Link(bytecode.Member{Prog: p})
	for _, sl := range st.Set.DirtySlots() {
		st.Ctx.PHV[sl] = dirt
	}
	return st
}

// headerSlot is the slot a stage of one member binds path to.
func headerSlot(t *testing.T, st *bytecode.Stage, path string) int32 {
	t.Helper()
	sl, ok := st.Set.SlotOf(0, pipeline.FieldRef(path))
	if !ok {
		t.Fatalf("%s not bound", path)
	}
	return sl
}

// TestFlatFillMatchesMapReference holds the packet fill against the map
// reference on every standard path, present and absent: a packet carrying
// every layer, packets missing one each, a bare Ethernet frame — on a
// stage whose embedder stores forwarding metadata after the fill (a
// switch) and on one whose embedder does not (a NIC), where the fill
// leaves it absent. An absent path reads the template's zero in its slot,
// whatever the context held before, and so does a program-specific path.
func TestFlatFillMatchesMapReference(t *testing.T) {
	full := func() *dataplane.Decoded {
		return &dataplane.Decoded{
			HasVLAN: true, VLAN: dataplane.VLAN{VID: 300},
			HasSourceRoute: true, SourceRoute: []dataplane.SourceRouteHop{{SwitchID: 9, Port: 1}},
			HasIPv4: true, IPv4: dataplane.IPv4{Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.0.0.1"), Dst: dataplane.MustIP4("10.0.0.2")},
			HasUDP: true, UDP: dataplane.UDP{SrcPort: 2152, DstPort: 2152},
			HasTCP: true, TCP: dataplane.TCP{SrcPort: 999, DstPort: 443},
			HasGTPU:      true,
			HasInnerIPv4: true, InnerIPv4: dataplane.IPv4{Protocol: dataplane.ProtoTCP, Src: dataplane.MustIP4("172.16.0.1"), Dst: dataplane.MustIP4("172.16.0.2")},
			HasInnerTCP: true, InnerTCP: dataplane.TCP{DstPort: 8080},
			HasInnerUDP: true, InnerUDP: dataplane.UDP{DstPort: 53},
		}
	}
	cases := map[string]func(*dataplane.Decoded){
		"every layer":     func(*dataplane.Decoded) {},
		"no vlan":         func(p *dataplane.Decoded) { p.HasVLAN = false },
		"no ipv4":         func(p *dataplane.Decoded) { p.HasIPv4 = false },
		"no tcp":          func(p *dataplane.Decoded) { p.HasTCP = false },
		"no udp":          func(p *dataplane.Decoded) { p.HasUDP = false },
		"udp, no tunnel":  func(p *dataplane.Decoded) { p.HasGTPU = false },
		"no inner ipv4":   func(p *dataplane.Decoded) { p.HasInnerIPv4 = false },
		"no inner tcp":    func(p *dataplane.Decoded) { p.HasInnerTCP = false },
		"no inner udp":    func(p *dataplane.Decoded) { p.HasInnerUDP = false },
		"no source route": func(p *dataplane.Decoded) { p.HasSourceRoute = false },
		"empty route":     func(p *dataplane.Decoded) { p.SourceRoute = nil },
		"bare ethernet":   func(p *dataplane.Decoded) { *p = dataplane.Decoded{} },
	}
	for name, strip := range cases {
		pkt := full()
		strip(pkt)
		for _, nic := range []bool{false, true} {
			st := stdStage(t, ^uint64(0))
			want := bindPacketHeaders(pkt)
			st.FillPacket(pkt)
			if !nic {
				st.SetHeader(bytecode.HInPort, 3)
				st.SetHeader(bytecode.HEgPort, 0)
				st.SetHeader(bytecode.HSkipFwd, 1)
				want["standard_metadata.ingress_port"] = pipeline.B(8, 3)
				want["standard_metadata.egress_port"] = pipeline.B(8, 0)
				want["fabric_metadata.skip_forwarding"] = pipeline.BoolV(true)
			}
			for _, path := range append(bytecode.StdHeaderPaths[:], "hdr.custom") {
				if got, ref := st.Ctx.PHV[headerSlot(t, st, path)], want[path].V; got != ref {
					t.Errorf("%s (nic=%v): %s = %#x, map reference %+v", name, nic, path, got, want[path])
				}
				delete(want, path)
			}
			if len(want) != 0 {
				t.Errorf("%s (nic=%v): map reference binds paths the flat fill has no slot for: %v", name, nic, want)
			}
		}
	}
}

// TestHeaderWriteRefused: a bound header is packet input the fill writes
// once, so a program that assigns one — Indus cannot, hand-built IR can —
// is refused at compile time rather than left to see its own write at the
// next hop.
func TestHeaderWriteRefused(t *testing.T) {
	prog := &pipeline.Program{
		Name: "header-write", HeaderBindings: map[string]string{"x": "hdr.x"},
		Telemetry: []pipeline.Op{pipeline.AssignOp{Dst: "hdr.x", DstWidth: 8, Src: c(8, 1)}},
	}
	if _, err := bytecode.Compile(prog); err == nil || !strings.Contains(err.Error(), "hdr.x") {
		t.Fatalf("Compile = %v, want a refusal naming hdr.x", err)
	}
}

// flowFrame is the plain frame a 5-tuple describes: Ethernet, IPv4 and the
// transport header the protocol names, no payload; the zero key is a
// frame that is not IPv4.
func flowFrame(k dataplane.FlowKey) []byte {
	if k == (dataplane.FlowKey{}) {
		return (&dataplane.Decoded{Eth: dataplane.Ethernet{Type: 0x0806}}).Serialize()
	}
	p := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 8, Protocol: k.Proto, Src: k.Src, Dst: k.Dst},
	}
	switch k.Proto {
	case dataplane.ProtoTCP:
		p.HasTCP, p.TCP = true, dataplane.TCP{SrcPort: k.Sport, DstPort: k.Dport}
	case dataplane.ProtoUDP:
		p.HasUDP, p.UDP = true, dataplane.UDP{SrcPort: k.Sport, DstPort: k.Dport}
	case dataplane.ProtoICMP:
		p.HasICMP = true
	}
	return p.Serialize()
}

// TestFlowFillIsPacketFill is the engine's promise that what it exposes
// of a 5-tuple record is what a switch exposes of the plain frame that
// record describes: over seeded TCP, UDP, ICMP and other-protocol keys —
// the GTP-U port, zero addresses and zero ports among them — and the zero
// key, the frame is serialized and parsed back, and FillFlow of its flow
// key must leave every bound header slot as FillPacket of the parse does,
// on two contexts that carry different dirt.
func TestFlowFillIsPacketFill(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	protos := []uint8{dataplane.ProtoTCP, dataplane.ProtoUDP, dataplane.ProtoICMP, 47}
	ports := []uint16{0, 53, dataplane.GTPUPort}
	keys := []dataplane.FlowKey{{}}
	for len(keys) < 1200 {
		k := dataplane.FlowKey{Src: dataplane.IP4(rng.Uint32()), Dst: dataplane.IP4(rng.Uint32()), Proto: protos[rng.Intn(len(protos))]}
		k.Sport, k.Dport = uint16(rng.Uint32()), uint16(rng.Uint32())
		switch rng.Intn(8) {
		case 0:
			k.Src, k.Dst = 0, 0
		case 1:
			k.Sport, k.Dport = ports[rng.Intn(len(ports))], ports[rng.Intn(len(ports))]
		}
		keys = append(keys, k)
	}
	flow, packet := stdStage(t, ^uint64(0)), stdStage(t, 0x5a5a)
	var pkt dataplane.Decoded
	for _, k := range keys {
		if err := dataplane.ParseInto(&pkt, flowFrame(k)); err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		// Dirt from the key before must not survive either fill.
		flow.FillFlow(dataplane.FlowKeyOf(&pkt))
		packet.FillPacket(&pkt)
		for _, path := range append(bytecode.StdHeaderPaths[:], "hdr.custom") {
			sl := headerSlot(t, flow, path)
			if got, ref := flow.Ctx.PHV[sl], packet.Ctx.PHV[sl]; got != ref {
				t.Errorf("%+v: %s: flow fill %#x, packet fill %#x", k, path, got, ref)
			}
		}
	}
}
