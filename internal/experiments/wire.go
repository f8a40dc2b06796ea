package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/trafficgen"
)

// WireReplayConfig parameterizes the wire-path replay: the campus trace
// pushed through the event-driven simulator with all corpus checkers
// attached, measuring the full per-hop wire path (pooled parse, header
// binding, telemetry rewrite, serialization) rather than just the
// checker engine.
type WireReplayConfig struct {
	// Packets to replay (default 50,000).
	Packets int
	Seed    int64
}

// WireReplayResult is one wire replay's outcome.
type WireReplayResult struct {
	// WallPktsPerSec is end-to-end packets delivered per wall-clock
	// second — the wire path's headline throughput number.
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
	FastShare    float64
}

// RunWireReplay replays the campus trace end to end through the
// leaf-spine fabric with every corpus checker attached and benignly
// configured, and reports wall-clock throughput plus fast-path usage.
func RunWireReplay(cfg WireReplayConfig) (WireReplayResult, error) {
	if cfg.Packets == 0 {
		cfg.Packets = 50_000
	}
	f := newCampusFabric(cfg.Packets, trafficgen.CampusConfig{Seed: cfg.Seed})
	sim, ls := f.sim, f.ls
	atts, err := AttachAllCheckers(ls)
	if err != nil {
		return WireReplayResult{}, err
	}
	if err := AllowFlows(atts, f.pairs); err != nil {
		return WireReplayResult{}, err
	}

	f.schedule()

	start := time.Now()
	sim.RunAll()
	wall := time.Since(start)
	if wall <= 0 {
		return WireReplayResult{}, fmt.Errorf("experiments: empty wire replay")
	}

	res := WireReplayResult{
		WallPktsPerSec: float64(cfg.Packets) / wall.Seconds(),
		Delivered:      f.delivered(),
	}
	res.DeliveredRatio = float64(res.Delivered) / float64(cfg.Packets)
	for _, sw := range ls.AllSwitches() {
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
	if res.TxFrames > 0 {
		res.FastShare = float64(res.FastTxFrames) / float64(res.FastTxFrames+res.SlowTxFrames)
	}
	return res, nil
}

// FormatWireReplay renders one wire-replay result.
func FormatWireReplay(r WireReplayResult) string {
	var b strings.Builder
	b.WriteString("Wire: end-to-end campus-trace replay, all checkers benign\n")
	fmt.Fprintf(&b, "%-14s %12s %10s %10s %10s %10s %8s\n",
		"wire_pps", "delivered", "checked", "rejected", "fast_tx", "slow_tx", "errors")
	fmt.Fprintf(&b, "%-14.0f %11.1f%% %10d %10d %10d %10d %8d\n",
		r.WallPktsPerSec, r.DeliveredRatio*100, r.Checked, r.Rejected,
		r.FastTxFrames, r.SlowTxFrames, r.ParseErrors)
	return b.String()
}
