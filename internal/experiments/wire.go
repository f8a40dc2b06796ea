package experiments

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
)

// WireReplayConfig parameterizes the campus replay: the synthetic campus
// trace (§6.2: the mirrored ~350 Kpps trace replayed towards leaf1)
// pushed through the event-driven simulator, measuring the full per-hop
// wire path (pooled parse, header binding, telemetry rewrite,
// serialization) rather than just the checker engine.
type WireReplayConfig struct {
	// Packets to replay (default 50,000).
	Packets int
	Seed    int64
}

// WireReplayResult is one campus replay's outcome: the §6.2 columns and
// the wire counters.
type WireReplayResult struct {
	// OfferedPps is the trace's offered load; DeliveredPps and
	// DeliveredGbps are what reached the sink over the virtual duration
	// of the replay.
	OfferedPps    float64
	DeliveredPps  float64
	DeliveredGbps float64
	// WallPktsPerSec is end-to-end packets replayed per wall-clock
	// second — the wire path's headline throughput number (an honest
	// software-substrate number; the paper's 6.5 Tb/s switch obviously
	// dwarfs it).
	WallPktsPerSec float64
	Delivered      uint64
	DeliveredRatio float64
	// Checked and Rejected sum the checker verdicts across every
	// attachment in the fabric; ParseErrors counts undecodable frames
	// and checker execution errors at switches.
	Checked     uint64
	Rejected    uint64
	ParseErrors uint64
	// TxFrames splits into the in-place rewrite fast path and full
	// re-serializations (inject, strip, and other shape changes).
	TxFrames     uint64
	FastTxFrames uint64
	SlowTxFrames uint64
}

// RunThroughput replays the same synthetic campus trace through the
// fabric twice — baseline and all-checkers — and reports both (§6.2:
// throughput "almost identical with around 20 Gb/s").
func RunThroughput(cfg WireReplayConfig) (baseline, withCheckers WireReplayResult, err error) {
	baseline, err = replayCampus(cfg, false)
	if err != nil {
		return
	}
	withCheckers, err = replayCampus(cfg, true)
	return
}

// replayCampus runs one campus replay, with every corpus checker
// attached, benignly configured and seeded for the trace's flows when
// checked is set, and with bare forwarding otherwise.
func replayCampus(cfg WireReplayConfig, checked bool) (WireReplayResult, error) {
	if cfg.Packets == 0 {
		cfg.Packets = 50_000
	}
	f := newCampusFabric(cfg.Packets, cfg.Seed)
	var atts map[string][]*netsim.HydraAttachment
	if checked {
		var err error
		if atts, err = AttachAllCheckers(f.ls); err != nil {
			return WireReplayResult{}, err
		}
		if err := AllowFlows(atts, f.pairs); err != nil {
			return WireReplayResult{}, err
		}
	}
	pps, err := f.run()
	if err != nil {
		return WireReplayResult{}, err
	}

	duration := f.sim.Now().Seconds()
	res := WireReplayResult{
		OfferedPps:     float64(cfg.Packets) / f.span.Seconds(),
		DeliveredPps:   float64(f.delivered()) / duration,
		DeliveredGbps:  float64(f.sink.RxBytes) * 8 / duration / 1e9,
		WallPktsPerSec: pps,
		Delivered:      f.delivered(),
	}
	res.DeliveredRatio = float64(res.Delivered) / float64(cfg.Packets)
	for _, sw := range f.ls.AllSwitches() {
		res.ParseErrors += sw.ParseErrors
		res.TxFrames += sw.TxFrames
		res.FastTxFrames += sw.FastTxFrames
		res.SlowTxFrames += sw.SlowTxFrames
	}
	for _, list := range atts {
		for _, att := range list {
			res.Checked += att.Checked
			res.Rejected += att.Rejected
		}
	}
	return res, nil
}

// FormatThroughput renders the baseline / all-checkers comparison.
func FormatThroughput(base, chk WireReplayResult) string {
	var b strings.Builder
	b.WriteString("Throughput: campus-trace replay towards leaf1 (§6.2)\n")
	fmt.Fprintf(&b, "%-14s %14s %14s %14s %12s %16s\n", "config", "offered_pps", "delivered_pps", "gbps", "delivered", "sw_pkts_per_s")
	row := func(name string, r WireReplayResult) {
		fmt.Fprintf(&b, "%-14s %14.0f %14.0f %14.3f %11.1f%% %16.0f\n",
			name, r.OfferedPps, r.DeliveredPps, r.DeliveredGbps, r.DeliveredRatio*100, r.WallPktsPerSec)
	}
	row("baseline", base)
	row("all-checkers", chk)
	return b.String()
}
