package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/checkers"
	"repro/internal/controlplane"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
	"repro/internal/trafficgen"
)

// busWindow is the aggregation window of the storm and chaos replays'
// report buses, in virtual time.
const busWindow = time.Duration(netsim.Millisecond)

// campusFabric is the §6.2 replay bench the wire (with or without
// checkers: the throughput comparison), storm and chaos experiments
// share (and engine.go's replayPaths model): a 2×2
// leaf-spine whose default routes carry everything entering leaf 1
// across either spine (ECMP) to a sink host on leaf 2, with link
// headroom so a replay is CPU-shaped, not line-blocked, and a first
// pass of the campus trace made up front so the firewall can be seeded
// with exactly the flows that will appear.
type campusFabric struct {
	sim       *netsim.Simulator
	ls        *netsim.LeafSpine
	src, sink *netsim.Host
	packets   int // with seed, the trace, which schedule draws again
	seed      int64
	// pairs are the trace's (src, dst) addresses in order of first
	// occurrence; span is the offered duration, the sum of the gaps.
	pairs [][2]uint32
	span  netsim.Time
}

func newCampusFabric(packets int, seed int64) *campusFabric {
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
	f := &campusFabric{sim: sim, ls: ls, src: ls.Host(0, 0), sink: ls.Host(1, 0), packets: packets, seed: seed}
	f.pairs = campusTrace(packets, seed, func(_ int, p trafficgen.Packet) { f.span += p.Gap })
	return f
}

// campusTrace generates n packets of the campus trace (trafficgen's
// default ~350 Kpps load), hands each to emit in order, and returns the
// trace's (src, dst) address pairs in order of first occurrence: the
// flows the stateful firewall is seeded with.
func campusTrace(n int, seed int64, emit func(i int, p trafficgen.Packet)) [][2]uint32 {
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: seed})
	seen := map[[2]uint32]bool{}
	var pairs [][2]uint32
	for i := 0; i < n; i++ {
		p := gen.Next()
		emit(i, p)
		key := [2]uint32{uint32(p.Src), uint32(p.Dst)}
		if !seen[key] {
			seen[key] = true
			pairs = append(pairs, key)
		}
	}
	return pairs
}

// schedule queues the first send; each send draws and queues the next.
func (f *campusFabric) schedule() {
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: f.seed})
	p, left := gen.Next(), f.packets
	var send func()
	send = func() {
		f.src.SendPacket(p.Decode())
		if left--; left > 0 {
			p = gen.Next()
			f.sim.After(p.Gap, send)
		}
	}
	f.sim.At(p.Gap, send)
}

// run schedules the trace, runs the simulator to completion and returns
// the replay's wall-clock rate in packets per second. A replay of fewer
// than one packet is an error: schedule always queues a first send.
func (f *campusFabric) run() (float64, error) {
	if f.packets < 1 {
		return 0, fmt.Errorf("experiments: campus replay of %d packets", f.packets)
	}
	f.schedule()
	start := time.Now()
	f.sim.RunAll()
	wall := time.Since(start)
	if wall <= 0 || f.sim.Now() == 0 {
		return 0, fmt.Errorf("experiments: empty campus replay")
	}
	return float64(f.packets) / wall.Seconds(), nil
}

// bus returns a report bus on the fabric's virtual clock with busWindow
// windows: windows close and token buckets refill as the simulation
// advances, so a replay's bus is deterministic for a given seed.
func (f *campusFabric) bus(cfg reportbus.Config) *reportbus.Bus {
	cfg.Window = busWindow
	cfg.Clock = func() int64 { return int64(f.sim.Now()) }
	return reportbus.New(cfg)
}

// controller returns a controller over a new virtual-time bus (see bus).
func (f *campusFabric) controller(cfg reportbus.Config) (*controlplane.Controller, *reportbus.Bus) {
	bus := f.bus(cfg)
	return controlplane.NewController(bus), bus
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
// of the fabric through ctl, and installs ConfigureBenign's state into
// the attachments it made. With seed set it also seeds the stateful
// firewall with the trace's pairs, for callers whose seeding is not a
// fault site of its own.
func (f *campusFabric) deployCorpus(ctl *controlplane.Controller, seed bool, extra ...checkers.Property) error {
	all := f.ls.AllSwitches()
	for _, p := range slices.Concat(checkers.All, extra) {
		info, err := p.Parse()
		if err != nil {
			return err
		}
		if err := ctl.Deploy(p.Key, info, all...); err != nil {
			return err
		}
	}
	sws := fabricSwitchInfos(f.ls)
	err := ConfigureBenign(sws, func(checker string, swIdx int, fn func(*pipeline.State) error) error {
		att, err := ctl.Attachment(checker, sws[swIdx].ID)
		if err != nil {
			return err
		}
		return fn(att.State)
	})
	if err != nil || !seed {
		return err
	}
	install := FirewallSeed(f.pairs)
	for _, sw := range all {
		att, err := ctl.Attachment("stateful-firewall", sw.ID)
		if err != nil {
			return err
		}
		if err := install(att.State); err != nil {
			return err
		}
	}
	return nil
}
