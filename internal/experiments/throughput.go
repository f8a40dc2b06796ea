package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/trafficgen"
)

// ThroughputConfig parameterizes the campus-replay throughput
// comparison (§6.2: the mirrored ~350 Kpps trace replayed towards
// leaf1; throughput "almost identical with around 20 Gb/s").
type ThroughputConfig struct {
	// Packets to replay (default 50,000).
	Packets int
	// PacketsPerSec offered (default 350,000, the paper's trace load).
	PacketsPerSec int
	Seed          int64
}

func (c *ThroughputConfig) fill() {
	if c.Packets == 0 {
		c.Packets = 50_000
	}
	if c.PacketsPerSec == 0 {
		c.PacketsPerSec = 350_000
	}
}

// ThroughputResult is one configuration's outcome.
type ThroughputResult struct {
	OfferedPps     float64
	DeliveredPps   float64
	DeliveredGbps  float64
	DeliveredRatio float64
	// WallPktsPerSec is the software pipeline's processing rate on this
	// machine (an honest software-substrate number; the paper's 6.5 Tb/s
	// switch obviously dwarfs it).
	WallPktsPerSec float64
}

// RunThroughput replays the same synthetic campus trace through the
// fabric twice — baseline and all-checkers — and reports both.
func RunThroughput(cfg ThroughputConfig) (baseline, withCheckers ThroughputResult, err error) {
	cfg.fill()
	baseline, err = runThroughput(cfg, false)
	if err != nil {
		return
	}
	withCheckers, err = runThroughput(cfg, true)
	return
}

func runThroughput(cfg ThroughputConfig, withCheckers bool) (ThroughputResult, error) {
	f := newCampusFabric(cfg.Packets, trafficgen.CampusConfig{Seed: cfg.Seed, PacketsPerSec: cfg.PacketsPerSec})
	sim, sink := f.sim, f.sink
	if withCheckers {
		atts, err := AttachAllCheckers(f.ls)
		if err != nil {
			return ThroughputResult{}, err
		}
		if err := AllowFlows(atts, f.pairs); err != nil {
			return ThroughputResult{}, err
		}
	}
	f.schedule(false)

	start := time.Now()
	sim.RunAll()
	wall := time.Since(start)

	duration := sim.Now()
	if duration == 0 {
		return ThroughputResult{}, fmt.Errorf("experiments: empty replay")
	}
	delivered := float64(f.delivered())
	res := ThroughputResult{
		OfferedPps:     float64(cfg.Packets) / f.span.Seconds(),
		DeliveredPps:   delivered / duration.Seconds(),
		DeliveredGbps:  float64(sink.RxBytes) * 8 / duration.Seconds() / 1e9,
		DeliveredRatio: delivered / float64(cfg.Packets),
		WallPktsPerSec: float64(cfg.Packets) / wall.Seconds(),
	}
	return res, nil
}

// FormatThroughput renders the comparison.
func FormatThroughput(base, chk ThroughputResult) string {
	var b strings.Builder
	b.WriteString("Throughput: campus-trace replay towards leaf1 (§6.2)\n")
	fmt.Fprintf(&b, "%-14s %14s %14s %14s %12s %16s\n", "config", "offered_pps", "delivered_pps", "gbps", "delivered", "sw_pkts_per_s")
	row := func(name string, r ThroughputResult) {
		fmt.Fprintf(&b, "%-14s %14.0f %14.0f %14.3f %11.1f%% %16.0f\n",
			name, r.OfferedPps, r.DeliveredPps, r.DeliveredGbps, r.DeliveredRatio*100, r.WallPktsPerSec)
	}
	row("baseline", base)
	row("all-checkers", chk)
	return b.String()
}
