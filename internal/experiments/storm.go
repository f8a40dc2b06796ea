package experiments

import (
	"fmt"
	"strings"

	"repro/internal/checkers"
	"repro/internal/reportbus"
)

// StormCheckerSrc is the storm probe: an Indus checker whose only job
// is to raise a digest at every hop of every packet when armed. The
// armed scalar is the experiment's switch — baseline (armed=0) and
// storm (armed=1) run the identical program, so the throughput delta
// isolates the report path: digest construction, bus publish, windowed
// aggregation, and storm control.
const StormCheckerSrc = `
control bit<8> armed;
header bit<32> ipv4_src @ "hdr.ipv4.src_addr";
header bit<32> ipv4_dst @ "hdr.ipv4.dst_addr";

{ }
{
  if (armed == 1) {
    report((ipv4_src, ipv4_dst));
  }
}
{ }
`

// The storm budget: aggregate emissions per virtual second and
// token-bucket depth, per checker.
const (
	stormRate  = 1000
	stormBurst = 8
)

// StormConfig parameterizes the report-storm replay. The bus runs
// busWindow windows with a stormRate / stormBurst budget per checker.
type StormConfig struct {
	// Packets per pass (default 30,000).
	Packets int
	Seed    int64
	// MaxKeys caps the collector's live aggregate table (default 512 —
	// deliberately far below the campus flow count, so the storm pass
	// exercises the overflow buckets and the memory ceiling).
	MaxKeys int
	// Repeats runs each pass this many times and keeps the fastest
	// (default 3) — the usual wall-clock discipline: the first pass
	// pays cache and allocator warmup for the whole process.
	Repeats int
}

func (c StormConfig) withDefaults() StormConfig {
	if c.Packets == 0 {
		c.Packets = 30_000
	}
	if c.MaxKeys == 0 {
		c.MaxKeys = 512
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	return c
}

// StormPass is one replay pass (baseline or storm) with its bus
// accounting.
type StormPass struct {
	WallPktsPerSec float64
	Delivered      uint64
	// Raised is every digest published into the bus; ExportedDigests
	// sums the counts of the aggregates the exporters received. With
	// inline producers nothing can drop, so after the final flush the
	// two must be exactly equal — the conservation check.
	Raised            uint64
	ExportedDigests   uint64
	EmittedAggregates uint64
	Suppressed        uint64
	OverflowDigests   uint64
	// MaxLiveAggregates is the collector's memory ceiling in records —
	// bounded by MaxKeys plus the per-(checker, switch) overflow
	// buckets, regardless of how many digests the storm raises.
	MaxLiveAggregates int
	Unaccounted       int64
}

// StormResult pairs the two passes.
type StormResult struct {
	Baseline StormPass
	Storm    StormPass
	// PPSRatio is storm throughput over baseline throughput — the cost
	// of a worst-case report storm on the wire path.
	PPSRatio float64
}

// RunStorm measures report-storm behavior end to end: the campus trace
// replayed through the leaf-spine fabric with every corpus checker
// deployed through the control plane onto a shared report bus, plus the
// storm probe. The baseline pass keeps the probe disarmed; the storm
// pass arms it, so every packet raises a digest at every hop at full
// replay rate. Reported: sustained pps for both passes, and the bus's
// suppression/overflow accounting for the storm.
func RunStorm(cfg StormConfig) (StormResult, error) {
	cfg = cfg.withDefaults()
	// Passes alternate (base, storm, base, storm, ...) and each side
	// keeps its fastest run, so warmup and scheduler noise hit both
	// sides evenly. The bus accounting is virtual-time deterministic —
	// identical on every repeat — so keeping the fastest loses nothing.
	var passes [2]StormPass // disarmed, armed
	for i := 0; i < cfg.Repeats; i++ {
		for armed, name := range []string{"storm baseline pass", "storm pass"} {
			p, err := runStormPass(cfg, uint64(armed))
			if err != nil {
				return StormResult{}, fmt.Errorf("experiments: %s: %w", name, err)
			}
			if i == 0 || p.WallPktsPerSec > passes[armed].WallPktsPerSec {
				passes[armed] = p
			}
		}
	}
	res := StormResult{Baseline: passes[0], Storm: passes[1]}
	if res.Baseline.WallPktsPerSec > 0 {
		res.PPSRatio = res.Storm.WallPktsPerSec / res.Baseline.WallPktsPerSec
	}
	return res, nil
}

// runStormPass replays the trace once with the probe's armed scalar set
// to armed (0 or 1).
func runStormPass(cfg StormConfig, armed uint64) (StormPass, error) {
	f := newCampusFabric(cfg.Packets, cfg.Seed)
	collect := &reportbus.CollectExporter{}
	ctl, bus := f.controller(reportbus.Config{
		Rate:      stormRate,
		Burst:     stormBurst,
		MaxKeys:   cfg.MaxKeys,
		Exporters: []reportbus.Exporter{collect},
	})
	probe := checkers.Property{Key: "storm-probe", Source: StormCheckerSrc}
	if err := f.deployCorpus(ctl, true, probe); err != nil {
		return StormPass{}, err
	}
	if err := ctl.SetScalar(probe.Key, 0, "armed", armed); err != nil {
		return StormPass{}, err
	}

	pps, err := f.run()
	if err != nil {
		return StormPass{}, err
	}
	bus.Close() // final flush: every live aggregate reaches the exporter

	m := bus.Metrics()
	pass := StormPass{
		WallPktsPerSec:    pps,
		Delivered:         f.delivered(),
		Raised:            m.Published,
		MaxLiveAggregates: m.MaxLiveAggregates,
		Unaccounted:       m.Unaccounted(),
	}
	for _, cm := range m.Checkers {
		pass.EmittedAggregates += cm.EmittedAggregates
		pass.Suppressed += cm.Suppressed
		pass.OverflowDigests += cm.OverflowDigests
	}
	for _, c := range collect.CountsByKey() {
		pass.ExportedDigests += c
	}
	return pass, nil
}

// FormatStorm renders the storm replay result.
func FormatStorm(r StormResult) string {
	var b strings.Builder
	b.WriteString("Storm: campus replay with an always-violating probe on the report bus\n")
	fmt.Fprintf(&b, "%-10s %12s %10s %10s %10s %10s %9s %9s\n",
		"pass", "pps", "raised", "exported", "aggs", "suppressed", "overflow", "max_live")
	row := func(name string, p StormPass) {
		fmt.Fprintf(&b, "%-10s %12.0f %10d %10d %10d %10d %9d %9d\n",
			name, p.WallPktsPerSec, p.Raised, p.ExportedDigests,
			p.EmittedAggregates, p.Suppressed, p.OverflowDigests, p.MaxLiveAggregates)
	}
	row("baseline", r.Baseline)
	row("storm", r.Storm)
	fmt.Fprintf(&b, "storm/baseline pps ratio: %.3f; storm digests unaccounted: %d\n",
		r.PPSRatio, r.Storm.Unaccounted)
	return b.String()
}
