package experiments

import (
	"fmt"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/trafficgen"
)

// CorpusCheckers compiles every corpus checker into an engine checker
// list (the §6.2 "All Checkers" configuration). A checker the bytecode
// VM cannot compile is an error here, not an engine that silently
// counts Errors.
func CorpusCheckers() ([]engine.Checker, error) {
	var out []engine.Checker
	for _, p := range checkers.All {
		info, err := p.Parse()
		if err != nil {
			return nil, err
		}
		prog, err := compiler.Compile(info, compiler.Options{Name: p.Key})
		if err != nil {
			return nil, err
		}
		rt := &compiler.Runtime{Prog: prog}
		if err := rt.VMErr(); err != nil {
			return nil, fmt.Errorf("experiments: checker %s has no VM form: %w", p.Key, err)
		}
		out = append(out, engine.Checker{Name: p.Key, RT: rt})
	}
	return out, nil
}

// The replay fabric mirrors newCampusFabric's 2x2 leaf-spine switch for
// switch and port for port (TestReplayModelMatchesFabric): leaves 1-2
// and spines 3-4, where netsim numbers its spines 101-102 — each side
// configures the switches it names. Hosts hang off port 3 of each leaf;
// ports 1 and 2 are the leaf uplinks.
var replaySwitches = []SwitchInfo{
	{ID: 1, IsLeaf: true},
	{ID: 2, IsLeaf: true},
	{ID: 3, IsLeaf: false},
	{ID: 4, IsLeaf: false},
}

// replayPaths are the two ECMP paths from the replay host (leaf1 port
// 3) to the sink (leaf2 port 3), via spine 3 or spine 4. Hop slices are
// shared across packets; the engine never mutates them.
var replayPaths = [2][]engine.Hop{
	{{SwitchID: 1, InPort: 3, OutPort: 1}, {SwitchID: 3, InPort: 1, OutPort: 2}, {SwitchID: 2, InPort: 1, OutPort: 3}},
	{{SwitchID: 1, InPort: 3, OutPort: 2}, {SwitchID: 4, InPort: 1, OutPort: 2}, {SwitchID: 2, InPort: 2, OutPort: 3}},
}

// ReplayPathFor is the replay fabric's ECMP model: the flow's RSS hash
// pins it to one of the two spine paths. Exported so the fleet's
// ingest daemon routes packets exactly like CampusEnginePackets does.
func ReplayPathFor(key dataplane.FlowKey) []engine.Hop {
	return replayPaths[key.RSSHash()>>16&1]
}

// ReplaySwitchInfos returns the replay fabric's switch inventory.
func ReplaySwitchInfos() []SwitchInfo {
	return append([]SwitchInfo(nil), replaySwitches...)
}

// CampusEnginePackets pre-generates n campus-trace packets as engine
// work units (ECMP-pinned per flow, like a real fabric hashing the
// 5-tuple) together with the unique (src, dst) address pairs the
// stateful firewall must be seeded with.
func CampusEnginePackets(n int, seed int64) ([]engine.Packet, [][2]uint32) {
	pkts := make([]engine.Packet, n)
	pairs := campusTrace(n, seed, func(i int, tp trafficgen.Packet) {
		key := tp.FlowKey()
		// Pin the flow to one spine by hash — decorrelated from the
		// engine's shard choice (hash % shards uses the low bits).
		pkts[i] = engine.Packet{
			Key:   key,
			Len:   uint32(tp.Size),
			Hops:  replayPaths[key.RSSHash()>>16&1],
			Index: int32(i),
		}
	})
	return pkts, pairs
}

// ConfigureReplayEngine installs the benign control state plus the
// firewall seed through an engine Install function (either
// engine.Engine.Install or engine.Sequential.Install).
func ConfigureReplayEngine(install func(checker string, switchID uint32, fn func(*pipeline.State) error) error, pairs [][2]uint32) error {
	err := ConfigureBenign(replaySwitches, func(checker string, swIdx int, fn func(*pipeline.State) error) error {
		return install(checker, replaySwitches[swIdx].ID, fn)
	})
	if err != nil {
		return err
	}
	seed := FirewallSeed(pairs)
	for _, sw := range replaySwitches {
		if err := install("stateful-firewall", sw.ID, seed); err != nil {
			return err
		}
	}
	return nil
}
