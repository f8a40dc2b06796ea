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

// EngineReplayConfig parameterizes the sharded-engine campus replay:
// the same synthetic trace as RunThroughput, executed by the
// internal/engine worker pool instead of the event-driven simulator, to
// measure how fast the software substrate can check packets.
type EngineReplayConfig struct {
	// Packets to replay (default 50,000).
	Packets int
	// Shards is the engine worker count; <= 0 means GOMAXPROCS.
	Shards int
	// BatchSize overrides the engine's dispatch batch size when > 0.
	BatchSize int
	Seed      int64
	// KeepVerdicts records every packet's individual verdict (used by
	// the differential tests; costs one slice slot per packet).
	KeepVerdicts bool
	// NoLink pins every checker runtime to the map-based reference
	// interpreter instead of the bytecode VM (used by the engine
	// conformance tests as the ground truth).
	NoLink bool
	// NoBatch disables the batched (checker-major, resident-PHV) path,
	// measuring hop-major per-packet execution through RunHop instead
	// (the pre-batching shape).
	NoBatch bool
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
// list (the §6.2 "All Checkers" configuration).
func CorpusCheckers() ([]engine.Checker, error) {
	return CorpusCheckersOpt(false)
}

// CorpusCheckersOpt is CorpusCheckers with an executor choice: noLink
// pins the runtimes to the map-based reference interpreter.
func CorpusCheckersOpt(noLink bool) ([]engine.Checker, error) {
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
		out = append(out, engine.Checker{Name: p.Key, RT: &compiler.Runtime{Prog: prog, NoLink: noLink}})
	}
	return out, nil
}

// The replay fabric mirrors runThroughput's 2x2 leaf-spine: leaves 1-2,
// spines 3-4. Hosts hang off port 3 of each leaf; ports 1 and 2 are the
// leaf uplinks.
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

// RunEngineReplay replays the campus trace through the sharded engine
// with all corpus checkers attached and benignly configured.
func RunEngineReplay(cfg EngineReplayConfig) (EngineReplayResult, error) {
	if cfg.Packets == 0 {
		cfg.Packets = 50_000
	}
	chks, err := CorpusCheckersOpt(cfg.NoLink)
	if err != nil {
		return EngineReplayResult{}, err
	}
	pkts, pairs := CampusEnginePackets(cfg.Packets, cfg.Seed)
	var verdicts []engine.Verdict
	if cfg.KeepVerdicts {
		verdicts = make([]engine.Verdict, len(pkts))
	}
	eng := engine.New(engine.Config{
		Shards:    cfg.Shards,
		BatchSize: cfg.BatchSize,
		Checkers:  chks,
		Verdicts:  verdicts,
		NoBatch:   cfg.NoBatch,
	})
	if err := ConfigureReplayEngine(eng.Install, pairs); err != nil {
		return EngineReplayResult{}, err
	}
	eng.Warm()
	// Collect the install-phase garbage now so the replay's first GC
	// cycle doesn't land mid-measurement (steady state is ~alloc-free).
	runtime.GC()
	start := time.Now()
	for i := range pkts {
		eng.Submit(pkts[i])
	}
	counts := eng.Drain()
	wall := time.Since(start)
	if wall <= 0 {
		return EngineReplayResult{}, fmt.Errorf("experiments: empty engine replay")
	}
	return EngineReplayResult{
		Counts:         counts,
		Verdicts:       verdicts,
		WallPktsPerSec: float64(cfg.Packets) / wall.Seconds(),
		Shards:         eng.Shards(),
	}, nil
}

// RunSequentialReplay runs the identical workload through the
// single-state reference executor — the ground truth the sharded runs
// are compared against.
func RunSequentialReplay(cfg EngineReplayConfig) (EngineReplayResult, error) {
	if cfg.Packets == 0 {
		cfg.Packets = 50_000
	}
	chks, err := CorpusCheckersOpt(cfg.NoLink)
	if err != nil {
		return EngineReplayResult{}, err
	}
	pkts, pairs := CampusEnginePackets(cfg.Packets, cfg.Seed)
	var verdicts []engine.Verdict
	if cfg.KeepVerdicts {
		verdicts = make([]engine.Verdict, len(pkts))
	}
	seq := engine.NewSequential(engine.Config{Checkers: chks, Verdicts: verdicts, NoBatch: cfg.NoBatch})
	if err := ConfigureReplayEngine(seq.Install, pairs); err != nil {
		return EngineReplayResult{}, err
	}
	seq.Warm()
	runtime.GC()
	start := time.Now()
	for i := range pkts {
		seq.Process(pkts[i])
	}
	wall := time.Since(start)
	if wall <= 0 {
		return EngineReplayResult{}, fmt.Errorf("experiments: empty sequential replay")
	}
	return EngineReplayResult{
		Counts:         seq.Counts(),
		Verdicts:       verdicts,
		WallPktsPerSec: float64(cfg.Packets) / wall.Seconds(),
		Shards:         1,
	}, nil
}

// RunBatchReplay measures the steady-state batched checking rate: the
// identical workload to RunSequentialReplay, driven through
// Sequential.ProcessBatch in BatchSize slices. This is the per-packet
// cost of the bytecode-VM batched hot path itself, without the sharded
// engine's dispatch queues around it — the number the
// BenchmarkEngineBatch* benchmarks track and BENCH_baseline.json pins
// as batch_pps.
func RunBatchReplay(cfg EngineReplayConfig) (EngineReplayResult, error) {
	if cfg.Packets == 0 {
		cfg.Packets = 50_000
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 64
	}
	chks, err := CorpusCheckersOpt(cfg.NoLink)
	if err != nil {
		return EngineReplayResult{}, err
	}
	pkts, pairs := CampusEnginePackets(cfg.Packets, cfg.Seed)
	var verdicts []engine.Verdict
	if cfg.KeepVerdicts {
		verdicts = make([]engine.Verdict, len(pkts))
	}
	seq := engine.NewSequential(engine.Config{Checkers: chks, Verdicts: verdicts, NoBatch: cfg.NoBatch})
	if err := ConfigureReplayEngine(seq.Install, pairs); err != nil {
		return EngineReplayResult{}, err
	}
	seq.Warm()
	runtime.GC()
	start := time.Now()
	for lo := 0; lo < len(pkts); lo += batch {
		hi := lo + batch
		if hi > len(pkts) {
			hi = len(pkts)
		}
		seq.ProcessBatch(pkts[lo:hi])
	}
	wall := time.Since(start)
	if wall <= 0 {
		return EngineReplayResult{}, fmt.Errorf("experiments: empty batch replay")
	}
	return EngineReplayResult{
		Counts:         seq.Counts(),
		Verdicts:       verdicts,
		WallPktsPerSec: float64(cfg.Packets) / wall.Seconds(),
		Shards:         1,
	}, nil
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
