package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/checkers"
	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/reportbus"
	"repro/internal/trafficgen"
)

// hopRecorder wraps a switch's forwarding program and appends every
// traversal to the path of the packet that made it. The trace carries
// no packet identifier, so a packet is (flow, ordinal of the flow's
// packets at this switch): ECMP pins a flow to one path and the fabric
// never reorders within one, so the n-th packet of a flow is the same
// packet at every switch on its path.
type hopRecorder struct {
	next  netsim.ForwardingProgram
	seen  map[dataplane.FlowKey]int
	paths map[pktID][]engine.Hop
}

type pktID struct {
	key dataplane.FlowKey
	n   int
}

func (r *hopRecorder) Process(sw *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	out := r.next.Process(sw, pkt, meta)
	id := pktID{key: dataplane.FlowKeyOf(pkt)}
	id.n = r.seen[id.key]
	r.seen[id.key]++
	if len(out) == 1 {
		r.paths[id] = append(r.paths[id], engine.Hop{SwitchID: sw.ID, InPort: uint16(meta.InPort), OutPort: uint16(out[0].Port)})
	}
	return out
}

// TestReplayModelMatchesFabric holds engine.go's hard-coded replay model
// against the fabric it says it mirrors. The model numbers its switches
// 1–4 and netsim numbers its spines from 101, so the two are matched by
// position in AllSwitches order — leaves, then spines — and must agree on
// which are leaves; under that renaming the campus trace driven through
// the netsim fixture must take, from source to sink, exactly the
// (switch, ingress port, egress port) sequences of replayPaths.
func TestReplayModelMatchesFabric(t *testing.T) {
	const packets = 4000
	f := newCampusFabric(packets, 5)
	fabric, model := fabricSwitchInfos(f.ls), ReplaySwitchInfos()
	if len(fabric) != len(model) {
		t.Fatalf("fabric has %d switches, replay model %d", len(fabric), len(model))
	}
	modelID := map[uint32]uint32{}
	for i, sw := range fabric {
		if sw.IsLeaf != model[i].IsLeaf {
			t.Errorf("switch %d of the fabric: leaf=%v, of the replay model: leaf=%v", i, sw.IsLeaf, model[i].IsLeaf)
		}
		modelID[sw.ID] = model[i].ID
	}

	paths := map[pktID][]engine.Hop{}
	for _, sw := range f.ls.AllSwitches() {
		sw.Forwarding = &hopRecorder{next: sw.Forwarding, seen: map[dataplane.FlowKey]int{}, paths: paths}
	}
	f.schedule()
	f.sim.RunAll()
	if f.delivered() != packets || len(paths) != packets {
		t.Fatalf("%d of %d packets delivered over %d recorded paths", f.delivered(), packets, len(paths))
	}

	taken := map[string]int{}
	for _, p := range paths {
		for i := range p {
			p[i].SwitchID = modelID[p[i].SwitchID]
		}
		taken[fmt.Sprint(p)]++
	}
	want := map[string]bool{}
	for _, p := range replayPaths {
		want[fmt.Sprint(p)] = true
		if taken[fmt.Sprint(p)] == 0 {
			t.Errorf("no packet took the model's path %v", p)
		}
	}
	for p, n := range taken {
		if !want[p] {
			t.Errorf("%d packets took %s, which the replay model does not have", n, p)
		}
	}
}

// scheduleUpFront is the replay as it was before schedule pulled its
// trace: the whole trace generated first, then one send queued per
// packet at its arrival time.
func scheduleUpFront(f *campusFabric) {
	pkts := make([]trafficgen.Packet, 0, f.packets)
	campusTrace(f.packets, f.seed, func(_ int, p trafficgen.Packet) { pkts = append(pkts, p) })
	var at netsim.Time
	for i := range pkts {
		p := pkts[i]
		at += p.Gap
		f.sim.At(at, func() { f.src.SendPacket(p.Decode()) })
	}
}

// armedReplay is one campus replay with the corpus and the armed storm
// probe deployed, the trace started by start: what the bus's tap saw, in
// order, and where the run ended.
type armedReplay struct {
	tap       []reportbus.Digest
	delivered uint64
	end       netsim.Time
	events    uint64
}

func runArmedReplay(t *testing.T, packets int, seed int64, start func(*campusFabric)) armedReplay {
	t.Helper()
	f := newCampusFabric(packets, seed)
	var r armedReplay
	ctl, bus := f.controller(reportbus.Config{})
	bus.Tap(func(d reportbus.Digest) { r.tap = append(r.tap, d) })
	storm := checkers.Property{Key: "storm-probe", Source: StormCheckerSrc}
	if err := f.deployCorpus(ctl, true, storm); err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetScalar(storm.Key, 0, "armed", 1); err != nil {
		t.Fatal(err)
	}
	start(f)
	f.sim.RunAll()
	bus.Close()
	if m := bus.Metrics(); uint64(len(r.tap)) != m.Published {
		t.Fatalf("the tap saw %d of %d digests", len(r.tap), m.Published)
	}
	r.delivered, r.end, r.events = f.delivered(), f.sim.Now(), f.sim.Stats().EventsRun
	return r
}

// TestPulledMatchesScheduled is the pulled-vs-scheduled row of the
// invariance suite: the replay's one self-rescheduling send against the
// whole trace queued up front. With the storm probe armed, every digest
// the tap sees — checker, switch, At and argument words, in order — and
// the packets delivered, the final clock and the events run must be the
// same.
func TestPulledMatchesScheduled(t *testing.T) {
	const packets = 20000
	for _, seed := range []int64{1, 5, 11} {
		pulled := runArmedReplay(t, packets, seed, (*campusFabric).schedule)
		upFront := runArmedReplay(t, packets, seed, scheduleUpFront)
		if len(pulled.tap) < 3*packets {
			t.Fatalf("seed %d: the tap saw %d digests, want at least the probe's %d", seed, len(pulled.tap), 3*packets)
		}
		if !slices.Equal(pulled.tap, upFront.tap) {
			i := 0
			for i < min(len(pulled.tap), len(upFront.tap)) && pulled.tap[i] == upFront.tap[i] {
				i++
			}
			t.Errorf("seed %d: the tap streams differ at digest %d of %d (pulled) and %d (up front)", seed, i, len(pulled.tap), len(upFront.tap))
		}
		if pulled.end != upFront.end || pulled.delivered != upFront.delivered || pulled.events != upFront.events {
			t.Errorf("seed %d: pulled replay ended at %v with %d delivered and %d events run, up front at %v with %d and %d",
				seed, pulled.end, pulled.delivered, pulled.events, upFront.end, upFront.delivered, upFront.events)
		}
	}
}

// TestCampusScheduleAllocs pins the pulled replay's start: one pending
// send whatever the trace's length, so starting a replay of 20 000
// packets allocates no more than starting one of 1 000 (queuing the
// trace up front allocates a closure per packet).
func TestCampusScheduleAllocs(t *testing.T) {
	start := func(packets int) float64 {
		return testing.AllocsPerRun(5, newCampusFabric(packets, 5).schedule)
	}
	if small, large := start(1000), start(20000); large > small {
		t.Fatalf("starting a replay allocates %.0f times for 20 000 packets, %.0f for 1 000", large, small)
	}
}

// TestCampusReplayRefusesNoPackets: a replay of fewer than one packet is
// an error in every harness on the fabric, not a run that sends the
// first packet anyway and reports a negative rate.
func TestCampusReplayRefusesNoPackets(t *testing.T) {
	if _, err := replayCampus(WireReplayConfig{Packets: -1}, false); err == nil {
		t.Error("replayCampus with -1 packets returned no error")
	}
	if _, err := RunStorm(StormConfig{Packets: -1}); err == nil {
		t.Error("RunStorm with -1 packets returned no error")
	}
	if _, err := RunChaos(ChaosConfig{Packets: -1}); err == nil {
		t.Error("RunChaos with -1 packets returned no error")
	}
}
