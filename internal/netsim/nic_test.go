package netsim

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

// buildNICFabric builds a leaf-spine where the hosts' NICs own the
// first/last-hop duties and the switches only run telemetry, and returns
// each host's NIC attachment.
func buildNICFabric(t *testing.T, key string) (*Simulator, *LeafSpine, map[*Host]*HydraAttachment) {
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
		sw.AttachChecker(rt, nil)
	}
	nics := map[*Host]*HydraAttachment{}
	for _, hosts := range ls.Hosts {
		for _, h := range hosts {
			nics[h] = h.AttachNIC(rt, nil)
		}
	}
	return sim, ls, nics
}

// injected counts the frames the host on a leaf's port sent with a Hydra
// header, as a capture on its link recorded them.
func injected(cap *Capture, leaf *Switch) int {
	n := 0
	for _, r := range cap.Records {
		if r.Node == leaf.Name && r.HasHydra {
			n++
		}
	}
	return n
}

func TestNICOffloadLoopChecker(t *testing.T) {
	sim, ls, nics := buildNICFabric(t, "loop-freedom")
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	h2.RecordAll = true

	// Tap the first and the last link: with NIC offload the telemetry
	// header must be on the wire from the sending host right up to the
	// receiving one.
	first, cap := &Capture{}, &Capture{}
	tap(first, ls.Leaves[0].Link(3))
	tap(cap, ls.Leaves[1].Link(3))

	h1.SendUDP(h2.IP, 777, 80, 64)
	sim.RunAll()

	if h2.RxUDP != 1 {
		t.Fatalf("delivery failed: rx=%d", h2.RxUDP)
	}
	// The sending NIC injected, the receiving NIC checked and stripped.
	if n := injected(first, ls.Leaves[0]); n != 1 {
		t.Fatalf("sender NIC injected = %d", n)
	}
	if nic := nics[h2]; nic.Checked != 1 || nic.Rejected != 0 {
		t.Fatalf("receiver NIC checked=%d rejected=%d", nic.Checked, nic.Rejected)
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
	sim, ls, nics := buildNICFabric(t, "waypointing")
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
	for _, nic := range nics {
		install(nic.State)
	}

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
	if nics[h2].Rejected != 1 {
		t.Fatalf("receiver NIC rejected = %d, want 1", nics[h2].Rejected)
	}
	// No switch dropped it — enforcement moved to the edge of the edge.
	for _, sw := range ls.AllSwitches() {
		if sw.Checker().Rejected != 0 {
			t.Fatalf("%s rejected despite NIC offload", sw.Name)
		}
	}
}

// TestNICPlacementPerPort mixes placements on one leaf: leaf 2's host A
// has a Hydra NIC and host B does not. Each switch port takes the
// first- and last-hop duties unless the host behind it has a NIC, so
// every delivered packet is checked exactly once — A's inbound traffic
// at A's NIC, B's at the leaf — and no host stack sees a Hydra header.
func TestNICPlacementPerPort(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 2, WithRouting: true})
	info := checkers.MustParse("loop-freedom")
	prog, err := compiler.Compile(info, compiler.Options{Name: "loop-freedom"})
	if err != nil {
		t.Fatal(err)
	}
	rt := &compiler.Runtime{Prog: prog}
	for _, sw := range ls.AllSwitches() {
		sw.AttachChecker(rt, nil)
	}
	c, a, b := ls.Host(0, 0), ls.Host(1, 0), ls.Host(1, 1)
	nicA := a.AttachNIC(rt, nil)
	a.RecordAll, b.RecordAll = true, true
	fromA := &Capture{}
	tap(fromA, ls.Leaves[1].Link(3))

	a.SendUDP(b.IP, 1001, 80, 64)
	b.SendUDP(a.IP, 1002, 80, 64)
	c.SendUDP(a.IP, 1003, 80, 64)
	c.SendUDP(b.IP, 1004, 80, 64)
	sim.RunAll()

	if a.RxUDP != 2 || b.RxUDP != 2 {
		t.Fatalf("delivered A=%d B=%d, want 2 each", a.RxUDP, b.RxUDP)
	}
	checked := nicA.Checked
	for _, sw := range ls.AllSwitches() {
		checked += sw.Checker().Checked
	}
	if delivered := a.RxUDP + b.RxUDP; checked != delivered {
		t.Fatalf("checked %d times for %d delivered packets", checked, delivered)
	}
	if nicA.Checked != a.RxUDP {
		t.Fatalf("A's NIC checked %d of A's %d inbound packets", nicA.Checked, a.RxUDP)
	}
	if leaf2 := ls.Leaves[1].Checker().Checked; leaf2 != b.RxUDP {
		t.Fatalf("leaf 2 checked %d packets, want B's %d", leaf2, b.RxUDP)
	}
	if n := injected(fromA, ls.Leaves[1]); n != 1 {
		t.Fatalf("A's NIC injected %d, want its one packet", n)
	}
	for _, h := range []*Host{a, b} {
		for _, r := range h.Received {
			if r.Pkt.HasHydra {
				t.Fatalf("%s's stack received a Hydra header", h.Name)
			}
		}
	}
}
