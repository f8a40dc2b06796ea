package netsim

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// buildNICFabric builds a leaf-spine where the hosts' NICs own the
// first/last-hop duties and the switches only run telemetry.
func buildNICFabric(t *testing.T, key string) (*Simulator, *LeafSpine, *compiler.Runtime) {
	t.Helper()
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	info := checkers.MustParse(key)
	prog, err := compiler.Compile(info, compiler.Options{Name: key})
	if err != nil {
		t.Fatal(err)
	}
	rt := &compiler.Runtime{Prog: prog}
	for _, sw := range ls.AllSwitches() {
		sw.NICOffload = true
		sw.AttachChecker(rt, nil)
	}
	for _, hosts := range ls.Hosts {
		for _, h := range hosts {
			h.AttachNIC(rt, nil)
		}
	}
	return sim, ls, rt
}

func TestNICOffloadLoopChecker(t *testing.T) {
	sim, ls, _ := buildNICFabric(t, "loop-freedom")
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	h2.RecordAll = true

	// Tap the last link: with NIC offload the telemetry header must
	// still be on the wire right up to the host.
	cap := &Capture{}
	cap.Tap(ls.Down[1][0])

	h1.SendUDP(h2.IP, 777, 80, 64)
	sim.RunAll()

	if h2.RxUDP != 1 {
		t.Fatalf("delivery failed: rx=%d", h2.RxUDP)
	}
	// The sending NIC injected, the receiving NIC checked and stripped.
	if h1.NIC().Injected != 1 {
		t.Fatalf("sender NIC injected = %d", h1.NIC().Injected)
	}
	if h2.NIC().Checked != 1 || h2.NIC().Rejected != 0 {
		t.Fatalf("receiver NIC checked=%d rejected=%d", h2.NIC().Checked, h2.NIC().Rejected)
	}
	// Switches ran telemetry only: no switch checked or stripped.
	for _, sw := range ls.AllSwitches() {
		if sw.Checker().Checked != 0 {
			t.Fatalf("%s ran the checker despite NIC offload", sw.Name)
		}
	}
	// The wire to the host still carried telemetry; the host stack saw none.
	foundHydraOnWire := false
	for _, r := range cap.Records {
		if r.HasHydra {
			foundHydraOnWire = true
		}
	}
	if !foundHydraOnWire {
		t.Fatal("telemetry should remain on the wire up to the NIC")
	}
	for _, r := range h2.Received {
		if r.Pkt.HasHydra {
			t.Fatal("NIC failed to strip telemetry before the host stack")
		}
	}
}

func TestNICOffloadEnforcesWaypointing(t *testing.T) {
	sim, ls, rt := buildNICFabric(t, "waypointing")
	// Configure the waypoint on every switch attachment AND both NICs
	// (the checker's control state lives wherever a block runs).
	install := func(st *pipeline.State) {
		if err := st.Tables["waypoint_id"].Insert(pipeline.Entry{
			Action: []pipeline.Value{pipeline.B(32, 101)}, // spine1
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sw := range ls.AllSwitches() {
		install(sw.Checker().State)
	}
	for _, hosts := range ls.Hosts {
		for _, h := range hosts {
			install(h.NIC().State)
		}
	}
	_ = rt

	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	// One flow per spine (as in the switch-based waypointing test).
	var viaSpine1, viaSpine2 uint16
	for p := uint16(1); viaSpine1 == 0 || viaSpine2 == 0; p++ {
		probe := &dataplane.Decoded{
			HasIPv4: true,
			IPv4:    dataplane.IPv4{Src: h1.IP, Dst: h2.IP, Protocol: dataplane.ProtoUDP},
			HasUDP:  true,
			UDP:     dataplane.UDP{SrcPort: 10000 + p, DstPort: 80},
		}
		if FlowHash(probe)%2 == 0 {
			viaSpine1 = 10000 + p
		} else {
			viaSpine2 = 10000 + p
		}
	}
	h1.SendUDP(h2.IP, viaSpine1, 80, 64)
	h1.SendUDP(h2.IP, viaSpine2, 80, 64)
	sim.RunAll()

	if h2.RxUDP != 1 {
		t.Fatalf("exactly the waypointed flow must be delivered, rx=%d", h2.RxUDP)
	}
	if h2.NIC().Rejected != 1 {
		t.Fatalf("receiver NIC rejected = %d, want 1", h2.NIC().Rejected)
	}
	// No switch dropped it — enforcement moved to the edge of the edge.
	for _, sw := range ls.AllSwitches() {
		if sw.Checker().Rejected != 0 {
			t.Fatalf("%s rejected despite NIC offload", sw.Name)
		}
	}
}
