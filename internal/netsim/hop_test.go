package netsim

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dataplane"
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
	sw := NewSwitch(sim, 7, "edge")
	sw.Forwarding = broadcastProgram{}
	sink := &nullNode{sim: sim}
	for port := 1; port <= 3; port++ {
		sw.EdgePorts[port] = true
		sw.AttachLink(port, Connect(sim, sw, port, sink, port, 0, 0))
	}
	var got [][]uint64
	sw.AttachChecker(rt, func(_ *Switch, rep pipeline.Report) {
		args := make([]uint64, len(rep.Args))
		for i, a := range rep.Args {
			args[i] = a.V
		}
		got = append(got, args)
	})
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
// resident context's report stream must equal the map reference's on
// the same switch and the VM's whole-trace mode on a fresh context per
// packet.
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
	if ref := probeReports(t, &compiler.Runtime{Prog: prog, NoLink: true}, pkts); !reflect.DeepEqual(ref, want) {
		t.Fatalf("map reference reports\n got %v\nwant %v", ref, want)
	}

	var whole [][]uint64
	rt := &compiler.Runtime{Prog: prog}
	for _, pkt := range pkts {
		copies := 1
		if uint32(pkt.IPv4.Dst)&0xFF == 0xFF {
			copies = 2
		}
		for ; copies > 0; copies-- {
			res, err := rt.RunTraceVM([]compiler.HopEnv{{
				State: prog.NewState(), SwitchID: 7, Headers: BindPacketHeaders(pkt, nil), PacketLen: uint32(pkt.WireLen()),
			}})
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range res.Reports {
				args := make([]uint64, len(rep.Args))
				for i, a := range rep.Args {
					args[i] = a.V
				}
				whole = append(whole, args)
			}
		}
	}
	if !reflect.DeepEqual(whole, want) {
		t.Fatalf("RunTraceVM reports\n got %v\nwant %v", whole, want)
	}
}

// TestCheckerErrorForwardsUnchecked pins what a failing checker
// execution does at a switch: it is counted in ParseErrors, only that
// checker's telemetry slot is zero-filled, its neighbours run normally,
// and the packet is forwarded. The failing program applies an
// undeclared table, which the VM refuses to compile — so this is also
// the one place the map-reference fallback of a resident attachment
// runs.
func TestCheckerErrorForwardsUnchecked(t *testing.T) {
	bad := &pipeline.Program{
		Name:      "bad",
		Tele:      []pipeline.TeleField{{Name: "hydra_header.junk", Width: 24}},
		Telemetry: []pipeline.Op{pipeline.ApplyOp{Table: "nope"}},
	}
	badRT := &compiler.Runtime{Prog: bad}
	if badRT.VM() != nil {
		t.Fatal("the VM compiled a program that applies an undeclared table")
	}

	sim := NewSimulator()
	sw := NewSwitch(sim, 7, "mid") // no edge ports: a telemetry-only hop
	sw.Forwarding = onePortProgram{port: 1}
	sink := &keepNode{}
	sw.AttachLink(1, Connect(sim, sw, 1, sink, 0, 0, 0))
	before := sw.AttachChecker(mustCompileChecker(t, "loop-freedom"), nil)
	badAt := sw.AttachChecker(badRT, nil)
	sw.AttachChecker(mustCompileChecker(t, "waypointing"), nil)

	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 8, Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.0.0.1"), Dst: dataplane.MustIP4("10.0.0.2")},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 1234, DstPort: 80},
	}
	blob := make([]byte, sw.blobSize)
	lo, hi := before.hop.size, before.hop.size+badAt.hop.size
	for i := lo; i < hi; i++ {
		blob[i] = 0xA5 // garbage in the failing checker's slot
	}
	pkt.InsertHydra(blob)
	sw.Receive(pkt.Serialize(), 2)
	sim.RunAll()

	if sw.ParseErrors != 1 {
		t.Fatalf("ParseErrors = %d, want 1", sw.ParseErrors)
	}
	if sink.last == nil || sw.TxFrames != 1 || sw.FastTxFrames != 1 {
		t.Fatalf("packet not forwarded in place: tx=%d fast=%d", sw.TxFrames, sw.FastTxFrames)
	}
	fwd, err := dataplane.Parse(sink.last)
	if err != nil {
		t.Fatal(err)
	}
	got := fwd.Hydra.Blob
	if len(got) != sw.blobSize {
		t.Fatalf("forwarded blob is %d bytes, want %d", len(got), sw.blobSize)
	}
	for i := lo; i < hi; i++ {
		if got[i] != 0 {
			t.Fatalf("failing checker's slot not zero-filled: %x", got[lo:hi])
		}
	}
	// Both neighbours counted this hop (slot byte 0 is the hop counter).
	if got[0] != 1 || got[hi] != 1 {
		t.Fatalf("neighbouring checkers did not run: hop counters %d and %d, want 1 and 1", got[0], got[hi])
	}
}

// keepNode is a link endpoint that keeps a copy of the last frame.
type keepNode struct{ last []byte }

func (*keepNode) NodeName() string { return "keep" }
func (n *keepNode) Receive(frame []byte, port int) {
	n.last = append([]byte(nil), frame...)
}

// TestNICShortBlobForwardsUnchecked pins the VM's decode-error path at
// its one reachable site, a NIC handed a telemetry blob shorter than
// its program's record: counted, stripped, and delivered unchecked.
func TestNICShortBlobForwardsUnchecked(t *testing.T) {
	sim := NewSimulator()
	h := NewHost(sim, "h", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
	h.RecordAll = true
	nic := h.AttachNIC(mustCompileChecker(t, "loop-freedom"), nil)

	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: h.MAC, Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 8, Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.0.0.1"), Dst: h.IP},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 1234, DstPort: 80},
	}
	pkt.InsertHydra(make([]byte, nic.hop.size-1))
	h.Receive(pkt.Serialize(), 0)
	sim.RunAll()

	if h.ParseErrs != 1 || nic.Checked != 0 || nic.Rejected != 0 {
		t.Fatalf("ParseErrs=%d Checked=%d Rejected=%d, want 1 0 0", h.ParseErrs, nic.Checked, nic.Rejected)
	}
	if len(h.Received) != 1 || h.Received[0].Pkt.HasHydra {
		t.Fatalf("short-blob packet not delivered stripped: %d received", len(h.Received))
	}
}
