package faults

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// nullNode terminates a link and immediately recycles every frame.
type nullNode struct {
	sim *netsim.Simulator
	rx  uint64
}

func (n *nullNode) Receive(frame []byte, port int) {
	n.rx++
	n.sim.ReleaseFrame(frame)
}

// onePortProgram forwards everything to a fixed port.
type onePortProgram struct{ port int }

func (p onePortProgram) Process(_ *netsim.Switch, _ *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	return meta.OneEgress(p.port)
}

// TestFaultHookAllocs is the disabled-cost acceptance check: a real
// LinkFaults injector with every rate at zero attached to the wire must
// keep the telemetry-only hop inside the same one-allocation budget as
// netsim's TestWireAllocs — the hook may not perturb the zero-alloc
// fast path, draw from its RNG, or count anything.
func TestFaultHookAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	sim := netsim.NewSimulator()
	sw := netsim.NewSwitch(sim, 7, "mid")
	sw.Forwarding = onePortProgram{port: 1}
	sink := &nullNode{sim: sim}
	lk := netsim.Connect(sim, sw, 1, sink, 0, 0, 0)

	rt := mustCompileChecker(t, "loop-freedom")
	sw.AttachChecker(rt, nil)

	// The injector is attached but fully disabled: zero rates, no flap.
	lf := NewLinkFaults(SubSeed(1, "zero"), LinkFaultConfig{})
	lk.Fault = lf

	// Template frame with the Hydra blob a first-hop switch would have
	// injected (one checker attached, so the blob is its slot alone).
	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: dataplane.MACFromUint64(2), Src: dataplane.MACFromUint64(1), Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 8, Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.0.0.1"), Dst: dataplane.MustIP4("10.0.0.2")},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 1234, DstPort: 80},
		Payload: make([]byte, 64),
	}
	pkt.InsertHydra(make([]byte, (rt.Prog.TeleWireBits()+7)/8))
	template := pkt.Serialize()

	hop := func() {
		frame := sim.AcquireFrame(len(template))
		copy(frame, template)
		sw.Receive(frame, 2)
		sim.RunAll()
	}
	for i := 0; i < 32; i++ {
		hop()
	}

	const rounds = 200
	allocs := testing.AllocsPerRun(rounds, hop)
	if allocs > 1 {
		t.Fatalf("telemetry-only hop with a disabled fault hook costs %.1f allocs, budget 1", allocs)
	}
	if sink.rx == 0 {
		t.Fatal("sink saw no frames")
	}
	if n := lf.Dropped + lf.Corrupted + lf.Duplicated + lf.Reordered + lf.FlapDropped; n != 0 {
		t.Fatalf("disabled injector counted %d events", n)
	}
	if lk.FaultDropsAB+lk.FaultDropsBA != 0 {
		t.Fatalf("disabled injector dropped frames: %d/%d", lk.FaultDropsAB, lk.FaultDropsBA)
	}
}
