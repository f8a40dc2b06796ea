package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/trafficgen"
)

// EngineReplayConfig parameterizes the engine campus replay: the same
// synthetic trace as RunThroughput, executed by internal/engine instead
// of the event-driven simulator, to measure how fast the software
// substrate can check packets.
type EngineReplayConfig struct {
	// Packets to replay (default 50,000).
	Packets int
	// Shards is the engine worker count; <= 0 means GOMAXPROCS.
	// RunSequentialReplay ignores it.
	Shards int
	// BatchSize is the packets per dispatch batch (RunEngineReplay,
	// engine default 64) or per ProcessBatch call (RunSequentialReplay,
	// default 1).
	BatchSize int
	Seed      int64
	// KeepVerdicts records every packet's individual verdict (used by
	// the differential tests; costs one slice slot per packet).
	KeepVerdicts bool
}

// EngineReplayResult is the outcome of one engine replay.
type EngineReplayResult struct {
	Counts engine.Counts
	// Verdicts is per-packet, in submission order (nil unless
	// KeepVerdicts).
	Verdicts []engine.Verdict
	// WallPktsPerSec is packets checked per wall-clock second across all
	// shards — the engine's headline throughput number.
	WallPktsPerSec float64
	Shards         int
}

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
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: seed})
	pkts := make([]engine.Packet, n)
	seen := map[[2]uint32]bool{}
	var pairs [][2]uint32
	for i := range pkts {
		tp := gen.Next()
		key := tp.FlowKey()
		// Pin the flow to one spine by hash — decorrelated from the
		// engine's shard choice (hash % shards uses the low bits).
		pkts[i] = engine.Packet{
			Key:   key,
			Len:   uint32(tp.Size),
			Hops:  replayPaths[key.RSSHash()>>16&1],
			Index: int32(i),
		}
		pair := [2]uint32{uint32(tp.Src), uint32(tp.Dst)}
		if !seen[pair] {
			seen[pair] = true
			pairs = append(pairs, pair)
		}
	}
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

// replayFixture is what both replay drivers share: the compiled corpus,
// the campus packets with their firewall seed, and the verdict slice.
type replayFixture struct {
	chks     []engine.Checker
	pkts     []engine.Packet
	pairs    [][2]uint32
	verdicts []engine.Verdict
}

func newReplayFixture(cfg EngineReplayConfig) (replayFixture, error) {
	if cfg.Packets == 0 {
		cfg.Packets = 50_000
	}
	chks, err := CorpusCheckers()
	if err != nil {
		return replayFixture{}, err
	}
	f := replayFixture{chks: chks}
	f.pkts, f.pairs = CampusEnginePackets(cfg.Packets, cfg.Seed)
	if cfg.KeepVerdicts {
		f.verdicts = make([]engine.Verdict, len(f.pkts))
	}
	return f, nil
}

// timed runs replay after collecting the install-phase garbage (so the
// replay's first GC cycle doesn't land mid-measurement; steady state is
// alloc-free) and fills in the result.
func (f replayFixture) timed(shards int, replay func() engine.Counts) (EngineReplayResult, error) {
	runtime.GC()
	start := time.Now()
	counts := replay()
	wall := time.Since(start)
	if wall <= 0 {
		return EngineReplayResult{}, fmt.Errorf("experiments: empty engine replay")
	}
	return EngineReplayResult{
		Counts:         counts,
		Verdicts:       f.verdicts,
		WallPktsPerSec: float64(len(f.pkts)) / wall.Seconds(),
		Shards:         shards,
	}, nil
}

// RunEngineReplay replays the campus trace through the sharded engine
// with all corpus checkers attached and benignly configured.
func RunEngineReplay(cfg EngineReplayConfig) (EngineReplayResult, error) {
	f, err := newReplayFixture(cfg)
	if err != nil {
		return EngineReplayResult{}, err
	}
	eng := engine.New(engine.Config{
		Shards:    cfg.Shards,
		BatchSize: cfg.BatchSize,
		Checkers:  f.chks,
		Verdicts:  f.verdicts,
	})
	if err := ConfigureReplayEngine(eng.Install, f.pairs); err != nil {
		return EngineReplayResult{}, err
	}
	eng.Warm()
	return f.timed(eng.Shards(), func() engine.Counts {
		for i := range f.pkts {
			eng.Submit(f.pkts[i])
		}
		return eng.Drain()
	})
}

// RunSequentialReplay runs the identical workload inline through
// engine.Sequential in BatchSize slices (default 1): the per-packet
// cost of the engine's execution loop itself, without the sharded
// engine's dispatch queues around it. At BatchSize 64 it is the number
// the BenchmarkEngineBatch* benchmarks track.
func RunSequentialReplay(cfg EngineReplayConfig) (EngineReplayResult, error) {
	f, err := newReplayFixture(cfg)
	if err != nil {
		return EngineReplayResult{}, err
	}
	batch := max(cfg.BatchSize, 1)
	seq := engine.NewSequential(engine.Config{Checkers: f.chks, Verdicts: f.verdicts})
	if err := ConfigureReplayEngine(seq.Install, f.pairs); err != nil {
		return EngineReplayResult{}, err
	}
	seq.Warm()
	return f.timed(1, func() engine.Counts {
		for lo := 0; lo < len(f.pkts); lo += batch {
			seq.ProcessBatch(f.pkts[lo:min(lo+batch, len(f.pkts))])
		}
		return seq.Counts()
	})
}

// FormatEngineReplay renders one or more engine-replay results.
func FormatEngineReplay(results []EngineReplayResult) string {
	var b strings.Builder
	b.WriteString("Engine: sharded campus-trace replay, all checkers benign\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %10s %10s %10s %8s\n",
		"shards", "pkts_per_s", "packets", "forwarded", "rejected", "reports", "errors")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8d %12.0f %12d %10d %10d %10d %8d\n",
			r.Shards, r.WallPktsPerSec, r.Counts.Packets, r.Counts.Forwarded,
			r.Counts.Rejected, r.Counts.Reports, r.Counts.Errors)
	}
	return b.String()
}
