package experiments

import (
	"slices"

	"repro/internal/checkers"
	"repro/internal/controlplane"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/trafficgen"
)

// campusFabric is the §6.2 replay bench the wire, throughput, storm and
// chaos experiments share (and engine.go's replayPaths model): a 2×2
// leaf-spine whose default routes carry everything entering leaf 1
// across either spine (ECMP) to a sink host on leaf 2, with link
// headroom so a replay is CPU-shaped, not line-blocked, and the campus
// trace generated up front so the firewall can be seeded with exactly
// the flows that will appear.
type campusFabric struct {
	sim       *netsim.Simulator
	ls        *netsim.LeafSpine
	src, sink *netsim.Host
	pkts      []trafficgen.Packet
	// pairs are the trace's (src, dst) addresses in order of first
	// occurrence; span is the offered duration, the sum of the gaps.
	pairs [][2]uint32
	span  netsim.Time
}

func newCampusFabric(packets int, traffic trafficgen.CampusConfig) *campusFabric {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		LinkBps: 100_000_000_000,
	})
	for l, leaf := range ls.Leaves {
		p := &netsim.L3Program{}
		if l == 0 {
			p.AddRoute(0, 0, 1, 2) // ECMP to spines
		} else {
			p.AddRoute(0, 0, 3) // to the sink
		}
		leaf.Forwarding = p
	}
	for _, spine := range ls.Spines {
		p := &netsim.L3Program{}
		p.AddRoute(0, 0, 2) // toward leaf2
		spine.Forwarding = p
	}
	f := &campusFabric{sim: sim, ls: ls, src: ls.Host(0, 0), sink: ls.Host(1, 0), pkts: make([]trafficgen.Packet, packets)}
	gen := trafficgen.NewCampus(traffic)
	seen := map[[2]uint32]bool{}
	for i := range f.pkts {
		f.pkts[i] = gen.Next()
		f.span += f.pkts[i].Gap
		key := [2]uint32{uint32(f.pkts[i].Src), uint32(f.pkts[i].Dst)}
		if !seen[key] {
			seen[key] = true
			f.pairs = append(f.pairs, key)
		}
	}
	return f
}

// schedule queues every send of the trace: on the source host's own
// event queue when the simulator is (or may be) partitioned, else on the
// global one. Which one a caller uses fixes its event order, which the
// determinism goldens pin.
func (f *campusFabric) schedule(perNode bool) {
	var at netsim.Time
	for i := range f.pkts {
		p := f.pkts[i]
		at += p.Gap
		send := func() { f.src.SendPacket(p.Decode()) }
		if perNode {
			f.sim.AtNode(f.src, at, send)
		} else {
			f.sim.At(at, send)
		}
	}
}

// delivered counts the packets the sink received.
func (f *campusFabric) delivered() uint64 { return f.sink.RxUDP + f.sink.RxTCP }

// fabricSwitchInfos lists ls.AllSwitches() for ConfigureBenign: leaves
// first.
func fabricSwitchInfos(ls *netsim.LeafSpine) []SwitchInfo {
	all := ls.AllSwitches()
	sws := make([]SwitchInfo, len(all))
	for i, sw := range all {
		sws[i] = SwitchInfo{ID: sw.ID, IsLeaf: i < len(ls.Leaves)}
	}
	return sws
}

// deployCorpus deploys every corpus checker, then extra, on every switch
// of the fabric through the controller, and installs ConfigureBenign's
// state into the attachments it made.
func deployCorpus(ctl *controlplane.Controller, ls *netsim.LeafSpine, extra ...checkers.Property) error {
	all := ls.AllSwitches()
	for _, p := range slices.Concat(checkers.All, extra) {
		info, err := p.Parse()
		if err != nil {
			return err
		}
		if err := ctl.Deploy(p.Key, info, all...); err != nil {
			return err
		}
	}
	sws := fabricSwitchInfos(ls)
	return ConfigureBenign(sws, func(checker string, swIdx int, fn func(*pipeline.State) error) error {
		att, err := ctl.Attachment(checker, sws[swIdx].ID)
		if err != nil {
			return err
		}
		return fn(att.State)
	})
}
