package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/difftest"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

// headerProbeSrc reports, at the last hop, every optional header it can
// bind beside what the init block saw of them: a value left behind in a
// resident context by an earlier packet shows up as a report argument.
const headerProbeSrc = `
tele bit<16> first_tcp;
tele bit<16> first_vlan;
header bit<16> tcp_dport @ "hdr.tcp.dport";
header bit<16> udp_dport @ "hdr.udp.dport";
header bit<16> vlan_id @ "hdr.vlan_tag.vlan_id";

{ first_tcp = tcp_dport; first_vlan = vlan_id; }
{ }
{ report((tcp_dport, udp_dport, vlan_id, first_tcp, first_vlan)); }
`

func compileSource(t *testing.T, name, src string) *pipeline.Program {
	t.Helper()
	ast, err := parser.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(info, compiler.Options{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// broadcastProgram floods packets addressed to x.x.x.255 to ports 2 and
// 3 and sends everything else out of port 2.
type broadcastProgram struct{}

func (broadcastProgram) Process(_ *Switch, pkt *dataplane.Decoded, meta *PacketMeta) []Egress {
	if pkt.HasIPv4 && uint32(pkt.IPv4.Dst)&0xFF == 0xFF {
		return []Egress{{Port: 2}, {Port: 3}}
	}
	return meta.OneEgress(2)
}

// probeReports pushes pkts one at a time through a single switch whose
// three ports all face hosts (every packet is at its first and last hop
// there) with rt attached, and returns the report stream.
func probeReports(t *testing.T, rt *compiler.Runtime, pkts []*dataplane.Decoded) [][]uint64 {
	t.Helper()
	sim := NewSimulator()
	sw := edgeSwitch(sim)
	sw.Forwarding = broadcastProgram{}
	var got [][]uint64
	sw.AttachChecker(rt, reportArgs(&got))
	for _, pkt := range pkts {
		sw.Receive(pkt.Serialize(), 1)
		sim.RunAll()
	}
	if sw.ParseErrors != 0 {
		t.Fatalf("%d parse errors", sw.ParseErrors)
	}
	return got
}

// TestResidentHopHeaderAbsence sends packets through one attachment
// where each lacks a header its predecessor had — TCP then UDP, VLAN
// then none, a multicast whose clones run back to back on one hop — and
// requires that no packet observes a predecessor's bound values: the
// resident context's report stream must equal the map reference's and
// the VM's whole-trace mode's, each on a fresh context per packet.
func TestResidentHopHeaderAbsence(t *testing.T) {
	prog := compileSource(t, "header-probe", headerProbeSrc)
	ip := dataplane.IPv4{TTL: 8, Src: dataplane.MustIP4("10.0.0.1"), Dst: dataplane.MustIP4("10.0.0.2")}
	tcp := func(vlan uint16, dport uint16) *dataplane.Decoded {
		p := &dataplane.Decoded{Eth: dataplane.Ethernet{Type: dataplane.EtherTypeIPv4}, HasIPv4: true, IPv4: ip,
			HasTCP: true, TCP: dataplane.TCP{SrcPort: 999, DstPort: dport}}
		p.IPv4.Protocol = dataplane.ProtoTCP
		p.HasVLAN, p.VLAN.VID = vlan != 0, vlan
		return p
	}
	udp := func(vlan uint16, dport uint16, bcast bool) *dataplane.Decoded {
		p := &dataplane.Decoded{Eth: dataplane.Ethernet{Type: dataplane.EtherTypeIPv4}, HasIPv4: true, IPv4: ip,
			HasUDP: true, UDP: dataplane.UDP{SrcPort: 999, DstPort: dport}}
		p.IPv4.Protocol = dataplane.ProtoUDP
		p.HasVLAN, p.VLAN.VID = vlan != 0, vlan
		if bcast {
			p.IPv4.Dst = dataplane.MustIP4("10.0.0.255")
		}
		return p
	}
	pkts := []*dataplane.Decoded{
		tcp(100, 443),
		udp(0, 53, false), // neither TCP nor VLAN: both must read absent
		udp(7, 67, true),  // two clones on one hop
		tcp(0, 22),        // after the clones: no VLAN, no UDP
		udp(0, 123, true), // clones again, now without the VLAN
		tcp(4000, 8080),
	}

	got := probeReports(t, &compiler.Runtime{Prog: prog}, pkts)
	want := [][]uint64{
		{443, 0, 100, 443, 100},
		{0, 53, 0, 0, 0},
		{0, 67, 7, 0, 7}, {0, 67, 7, 0, 7},
		{22, 0, 0, 22, 0},
		{0, 123, 0, 0, 0}, {0, 123, 0, 0, 0},
		{8080, 0, 4000, 8080, 4000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resident context reports\n got %v\nwant %v", got, want)
	}

	// The two references take one fresh one-hop trace per packet copy
	// over the map header environment.
	traces := func(name string, run func([]difftest.HopEnv) (difftest.TraceResult, error)) {
		t.Helper()
		var got [][]uint64
		for _, pkt := range pkts {
			copies := 1
			if uint32(pkt.IPv4.Dst)&0xFF == 0xFF {
				copies = 2
			}
			for ; copies > 0; copies-- {
				res, err := run([]difftest.HopEnv{{
					State: prog.NewState(), SwitchID: 7, Headers: packetHeaders(pkt), PacketLen: uint32(pkt.WireLen()),
				}})
				if err != nil {
					t.Fatal(err)
				}
				for _, rep := range res.Reports {
					args := make([]uint64, len(rep.Args))
					for i, a := range rep.Args {
						args[i] = a.V
					}
					got = append(got, args)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s reports\n got %v\nwant %v", name, got, want)
		}
	}
	traces("map reference", difftest.Reference{Prog: prog}.RunTrace)
	traces("resident set of one", func(envs []difftest.HopEnv) (difftest.TraceResult, error) {
		vm, err := difftest.Link(&compiler.Runtime{Prog: prog})
		if err != nil {
			return difftest.TraceResult{}, err
		}
		res, err := vm.RunTrace([][]difftest.HopEnv{envs}, difftest.Resident)
		if err != nil {
			return difftest.TraceResult{}, err
		}
		return res[0], nil
	})
}

// TestMalformedBlobAtLastHop hands a switch's last hop and a NIC a
// telemetry blob one byte short of the image and one byte long. Both run
// one rule: a short blob decodes as empty and a long one loses its tail,
// so each zeroed blob is checked as the empty image, no host counts a
// parse error, and the host stack gets the packet stripped.
func TestMalformedBlobAtLastHop(t *testing.T) {
	rt := mustCompileChecker(t, "loop-freedom")
	n := bytecode.Link(rt.Member()).Set.TeleWireBytes()
	lastHops := []struct {
		name  string
		build func(*Simulator, *Host) (*HydraAttachment, func([]byte))
	}{
		{"switch", func(sim *Simulator, h *Host) (*HydraAttachment, func([]byte)) {
			sw := NewSwitch(sim, 7, "leaf")
			sw.Forwarding = onePortProgram{port: 2}
			Connect(sim, sw, 1, &nullNode{sim: sim}, 0, 0, 0)
			Connect(sim, sw, 2, h, 0, 0, 0)
			return sw.AttachChecker(rt, nil), func(frame []byte) { sw.Receive(frame, 1) }
		}},
		{"nic", func(_ *Simulator, h *Host) (*HydraAttachment, func([]byte)) {
			return h.AttachNIC(rt, nil), func(frame []byte) { h.Receive(frame, 0) }
		}},
	}
	for _, hop := range lastHops {
		for _, blob := range []struct {
			name string
			size int
		}{{"short", n - 1}, {"long", n + 1}} {
			t.Run(hop.name+"/"+blob.name, func(t *testing.T) {
				sim := NewSimulator()
				h := NewHost(sim, "h", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
				h.RecordAll = true
				at, receive := hop.build(sim, h)
				pkt := udpPacket()
				pkt.InsertHydra(make([]byte, blob.size))
				receive(pkt.Serialize())
				sim.RunAll()
				if at.Checked != 1 || at.Rejected != 0 || h.ParseErrs != 0 {
					t.Fatalf("Checked=%d Rejected=%d ParseErrs=%d, want 1 0 0", at.Checked, at.Rejected, h.ParseErrs)
				}
				if len(h.Received) != 1 || h.Received[0].Pkt.HasHydra {
					t.Fatalf("packet not delivered stripped: %d received", len(h.Received))
				}
			})
		}
	}
}

// packetHeaders is the map environment the references take for the
// VLAN, IPv4, TCP and UDP layers these tests send: a missing key for an
// absent header. The stage's fill is held to the whole standard table in
// internal/bytecode.
func packetHeaders(pkt *dataplane.Decoded) map[string]pipeline.Value {
	h := map[string]pipeline.Value{
		"hdr.ipv4.$valid$": pipeline.BoolV(pkt.HasIPv4),
		"hdr.tcp.$valid$":  pipeline.BoolV(pkt.HasTCP),
		"hdr.udp.$valid$":  pipeline.BoolV(pkt.HasUDP),
	}
	if pkt.HasVLAN {
		h["hdr.vlan_tag.vlan_id"] = pipeline.B(16, uint64(pkt.VLAN.VID))
	}
	if pkt.HasIPv4 {
		h["hdr.ipv4.src_addr"] = pipeline.B(32, uint64(pkt.IPv4.Src))
		h["hdr.ipv4.dst_addr"] = pipeline.B(32, uint64(pkt.IPv4.Dst))
		h["hdr.ipv4.protocol"] = pipeline.B(8, uint64(pkt.IPv4.Protocol))
	}
	if pkt.HasTCP {
		h["hdr.tcp.sport"] = pipeline.B(16, uint64(pkt.TCP.SrcPort))
		h["hdr.tcp.dport"] = pipeline.B(16, uint64(pkt.TCP.DstPort))
	}
	if pkt.HasUDP {
		h["hdr.udp.sport"] = pipeline.B(16, uint64(pkt.UDP.SrcPort))
		h["hdr.udp.dport"] = pipeline.B(16, uint64(pkt.UDP.DstPort))
	}
	return h
}

// stateProbeSrc reports a control value and a sensor it counts packets in:
// which tables and which registers a hop ran against.
const stateProbeSrc = `
sensor bit<32> seen = 0;
control bit<32> mark;

{ }
{ seen += 1; }
{ report((mark, seen)); }
`

// edgeSwitch is a switch whose three ports all face hosts — every packet
// is at its first and last hop there — forwarding to port 2.
func edgeSwitch(sim *Simulator) *Switch {
	sw := NewSwitch(sim, 7, "edge")
	sw.Forwarding = onePortProgram{port: 2}
	for port := 1; port <= 3; port++ {
		h := NewHost(sim, fmt.Sprintf("h%d", port), dataplane.MACFromUint64(uint64(port)), dataplane.MustIP4(fmt.Sprintf("10.0.0.%d", port)))
		Connect(sim, sw, port, h, 0, 0, 0)
	}
	return sw
}

func udpPacket() *dataplane.Decoded {
	return &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 8, Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.0.0.1"), Dst: dataplane.MustIP4("10.0.0.2")},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 1234, DstPort: 80},
	}
}

// reportArgs collects an attachment's reports as their argument values.
func reportArgs(got *[][]uint64) func(pipeline.Report) {
	return func(rep pipeline.Report) {
		args := make([]uint64, len(rep.Args))
		for i, a := range rep.Args {
			args[i] = a.V
		}
		*got = append(*got, args)
	}
}

func setMark(t *testing.T, st *pipeline.State, mark uint64) {
	t.Helper()
	if err := st.Tables["mark"].Insert(pipeline.Entry{Action: []pipeline.Value{pipeline.B(32, mark)}}); err != nil {
		t.Fatal(err)
	}
}

// TestStateReadPerHop pins what the linked image resolves when: the
// control plane and the node-fault injector wipe a switch by resetting
// HydraAttachment.State in place, so the next packet must run against the
// emptied tables and zeroed registers, not what they held before; and a
// checker attached after traffic has flowed joins the image.
func TestStateReadPerHop(t *testing.T) {
	rt := &compiler.Runtime{Prog: compileSource(t, "state-probe", stateProbeSrc)}
	sim := NewSimulator()
	sw := edgeSwitch(sim)
	var first, second [][]uint64
	at := sw.AttachChecker(rt, reportArgs(&first))
	setMark(t, at.State, 11)
	send := func() {
		sw.Receive(udpPacket().Serialize(), 1)
		sim.RunAll()
	}
	send()
	send()

	at.State.Reset()
	setMark(t, at.State, 22)
	send()

	late := sw.AttachChecker(rt, reportArgs(&second))
	setMark(t, late.State, 33)
	send()

	if want := [][]uint64{{11, 1}, {11, 2}, {22, 1}, {22, 2}}; !reflect.DeepEqual(first, want) {
		t.Errorf("first attachment reported %v, want %v", first, want)
	}
	if want := [][]uint64{{33, 1}}; !reflect.DeepEqual(second, want) {
		t.Errorf("late attachment reported %v, want %v", second, want)
	}
	if sw.ParseErrors != 0 || at.Checked != 4 || late.Checked != 1 {
		t.Errorf("ParseErrors=%d Checked=%d and %d, want 0, 4 and 1", sw.ParseErrors, at.Checked, late.Checked)
	}
}

// TestRelinkOnReplacedAttachment pins when a switch relinks: a checker
// attached after traffic has flowed joins the image at the next packet,
// and the one attached before runs on against the state it had.
func TestRelinkOnReplacedAttachment(t *testing.T) {
	rt := &compiler.Runtime{Prog: compileSource(t, "state-probe", stateProbeSrc)}
	sim := NewSimulator()
	sw := edgeSwitch(sim)
	var got, late [][]uint64
	setMark(t, sw.AttachChecker(rt, reportArgs(&got)).State, 11)
	send := func() {
		sw.Receive(udpPacket().Serialize(), 1)
		sim.RunAll()
	}
	send()

	setMark(t, sw.AttachChecker(rt, reportArgs(&late)).State, 33)
	send()

	if want := [][]uint64{{11, 1}, {11, 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("first attachment reported %v, want %v", got, want)
	}
	if want := [][]uint64{{33, 1}}; !reflect.DeepEqual(late, want) {
		t.Errorf("late attachment reported %v, want %v", late, want)
	}
	if sw.ParseErrors != 0 {
		t.Errorf("%d parse errors", sw.ParseErrors)
	}
}

// routeProbeSrc binds the source-route head, a program-specific path and a
// standard one.
const routeProbeSrc = `
header bool route_ok @ "hdr.srcRoutes[0].$valid$";
header bit<32> route_sw @ "hdr.srcRoutes[0].switch_id";
header bit<16> custom @ "fabric_metadata.custom";
header bit<16> dport @ "hdr.udp.dport";

{ }
{ }
{ report((route_ok, route_sw, custom, dport)); }
`

// popProgram forwards to port 2, having consumed popped when it is set.
type popProgram struct{ popped *dataplane.SourceRouteHop }

func (p popProgram) Process(_ *Switch, _ *dataplane.Decoded, meta *PacketMeta) []Egress {
	if p.popped != nil {
		meta.Popped, meta.HasPopped = *p.popped, true
	}
	return meta.OneEgress(2)
}

// TestExtraBindingReachesEveryMember attaches two checkers that bind the
// same paths: the source-route entry forwarding popped must reach both
// members as hdr.srcRoutes[0] — over the packet's own head, or with none
// left (the source-routing fabric pops the last entry at the last hop) —
// leave the other standard bindings alone, and be gone at the next
// packet; a program-specific path is absent, since nothing on the wire
// stores it.
func TestExtraBindingReachesEveryMember(t *testing.T) {
	prog := compileSource(t, "route-probe", routeProbeSrc)
	sim := NewSimulator()
	sw := edgeSwitch(sim)
	var got [2][][]uint64
	sw.AttachChecker(&compiler.Runtime{Prog: prog}, reportArgs(&got[0]))
	sw.AttachChecker(&compiler.Runtime{Prog: prog}, reportArgs(&got[1]))

	send := func(route []dataplane.SourceRouteHop, popped *dataplane.SourceRouteHop) {
		pkt := udpPacket()
		pkt.HasSourceRoute, pkt.SourceRoute = len(route) > 0, route
		sw.Forwarding = popProgram{popped: popped}
		sw.Receive(pkt.Serialize(), 1)
		sim.RunAll()
	}
	route := []dataplane.SourceRouteHop{{SwitchID: 9, Port: 1}, {SwitchID: 10, Port: 2, BOS: true}}
	send(route, &dataplane.SourceRouteHop{SwitchID: 77, Port: 2})
	send(route, nil)
	send(nil, &dataplane.SourceRouteHop{SwitchID: 5, Port: 2, BOS: true})
	send(nil, nil)

	want := [][]uint64{{1, 77, 0, 80}, {1, 9, 0, 80}, {1, 5, 0, 80}, {0, 0, 0, 80}}
	for k := range got {
		if !reflect.DeepEqual(got[k], want) {
			t.Errorf("checker %d reported %v, want %v", k, got[k], want)
		}
	}
	if sw.ParseErrors != 0 {
		t.Errorf("%d parse errors", sw.ParseErrors)
	}
}
