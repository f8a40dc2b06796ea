package experiments

import (
	"fmt"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/netsim"
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
	f := newCampusFabric(packets, trafficgen.CampusConfig{Seed: 5})
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
	f.schedule(false)
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
