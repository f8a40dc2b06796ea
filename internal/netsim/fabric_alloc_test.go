package netsim_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/trafficgen"
)

// TestFabricAllocs sends campus packets host → leaf → spine → leaf → host
// through a 2×2 leaf-spine with the whole corpus attached, the way the
// wire replay does: SendPacket(p.Decode()), then per hop parse, bind,
// telemetry, checker, serialise and deliver. At steady state none of it
// allocates, and the frame free list never holds a buffer twice — a frame
// handed to a link is released once, by its last owner. (An external test:
// trafficgen imports netsim.)
func TestFabricAllocs(t *testing.T) {
	if netsim.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1})
	for l, leaf := range ls.Leaves {
		p := &netsim.L3Program{}
		if l == 0 {
			p.AddRoute(0, 0, 1, 2) // ECMP to the spines
		} else {
			p.AddRoute(0, 0, 3) // to the sink
		}
		leaf.Forwarding = p
	}
	for _, spine := range ls.Spines {
		p := &netsim.L3Program{}
		p.AddRoute(0, 0, 2) // toward leaf 2
		spine.Forwarding = p
	}
	atts, err := experiments.AttachAllCheckers(ls)
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: 38})
	pkts := make([]trafficgen.Packet, 512)
	var pairs [][2]uint32
	for i := range pkts {
		pkts[i] = gen.Next()
		pairs = append(pairs, [2]uint32{uint32(pkts[i].Src), uint32(pkts[i].Dst)})
	}
	if err := experiments.AllowFlows(atts, pairs); err != nil {
		t.Fatal(err)
	}

	src, sink := ls.Host(0, 0), ls.Host(1, 0)
	replay := func() {
		for _, p := range pkts {
			src.SendPacket(p.Decode())
			sim.RunAll()
		}
	}
	replay() // warm the frame pool, the event queue and the checker state
	replays := 1
	// ReadMemStats stops the world, and restarting it may start an OS
	// thread whose runtime allocations land in the count now and then. A
	// per-packet allocation shows in every replay: the best of three must
	// be 0.
	best := ^uint64(0)
	for try := 0; try < 3 && best != 0; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		replay()
		runtime.ReadMemStats(&after)
		replays++
		best = min(best, after.Mallocs-before.Mallocs)
	}

	sent := uint64(replays * len(pkts))
	if got := sink.RxUDP + sink.RxTCP; got != sent {
		t.Fatalf("sink received %d of %d packets", got, sent)
	}
	var fast uint64
	for _, sw := range ls.AllSwitches() {
		if sw.ParseErrors != 0 {
			t.Fatalf("%s counted %d parse errors", sw.Name, sw.ParseErrors)
		}
		fast += sw.FastTxFrames
	}
	if fast != sent {
		t.Fatalf("%d fast-path frames, want one per packet (the spine's)", fast)
	}
	if best != 0 {
		t.Fatalf("%d heap allocations over %d packets, want 0", best, len(pkts))
	}
	if sim.FreeFrameTwice() {
		t.Fatal("the frame free list holds a buffer twice")
	}
}
