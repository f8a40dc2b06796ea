package experiments

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// Fig12Config parameterizes the RTT experiment. The paper runs 30
// minutes of 10 Gb/s bidirectional background with a ping every 0.2 s;
// simulating that verbatim needs billions of events, so the defaults
// scale duration and background down while keeping the mechanism — the
// RTT jitter comes from sharing queues with background traffic, and the
// checker configuration only changes packet sizes by the telemetry
// bytes. EXPERIMENTS.md records the scaling.
type Fig12Config struct {
	// Duration of the measurement (default 5 s of simulated time).
	Duration netsim.Time
	// PingInterval between echo requests (default 10 ms; the paper's
	// 0.2 s cadence over 30 min yields a similar sample count).
	PingInterval netsim.Time
	// BackgroundBps per direction of iperf-like UDP load (default
	// 2 Gb/s on the 10 Gb/s fabric).
	BackgroundBps int64
}

func (c *Fig12Config) fill() {
	if c.Duration == 0 {
		c.Duration = 5 * netsim.Second
	}
	if c.PingInterval == 0 {
		c.PingInterval = 10 * netsim.Millisecond
	}
	if c.BackgroundBps == 0 {
		c.BackgroundBps = 2_000_000_000
	}
}

// RTTSeries is one measured curve of Figure 12a.
type RTTSeries struct {
	// T is the sample time in seconds, RTT the round-trip time in
	// milliseconds.
	T   []float64
	RTT []float64
}

// Fig12Result holds both curves and the statistics of Figure 12b.
type Fig12Result struct {
	Baseline RTTSeries
	Checkers RTTSeries
	// TTest compares the two RTT samples (the paper's criterion: no
	// statistically significant difference).
	TTest stats.TTestResult
}

// runRTT builds the fabric, optionally attaches all checkers, applies
// the background load, and collects ping RTTs.
func runRTT(cfg Fig12Config, withCheckers bool) (RTTSeries, error) {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2, WithRouting: true,
	})
	pingSrc, pingDst := ls.Host(0, 0), ls.Host(1, 0)
	loadA, loadB := ls.Host(0, 1), ls.Host(1, 1)

	// End-host stack latency dominates the RTT spread on the real
	// testbed (Figure 12's 0.1-0.3 ms band); model it on the hosts the
	// ping traverses, with independent noise per configuration (the two
	// curves on the paper's testbed are separate runs).
	seed := int64(100)
	if withCheckers {
		seed = 200
	}
	for i, h := range []*netsim.Host{pingSrc, pingDst} {
		h.StackBase = 40 * netsim.Microsecond
		h.StackJitter = 25 * netsim.Microsecond
		h.ReseedStack(seed + int64(i))
	}

	if withCheckers {
		atts, err := AttachAllCheckers(ls)
		if err != nil {
			return RTTSeries{}, err
		}
		pairs := [][2]uint32{
			{uint32(pingSrc.IP), uint32(pingDst.IP)},
			{uint32(loadA.IP), uint32(loadB.IP)},
		}
		if err := AllowFlows(atts, pairs); err != nil {
			return RTTSeries{}, err
		}
	}

	// Bidirectional background load across the fabric (the iperf3 setup
	// of §6.2, utilizing the leaf-spine links via ECMP). Poisson
	// arrivals give the queues realistic burstiness.
	up := &trafficgen.UDPLoad{Host: loadA, Dst: loadB.IP, Bps: cfg.BackgroundBps, Sport: 5001, Dport: 5201, Poisson: true, Seed: 1}
	down := &trafficgen.UDPLoad{Host: loadB, Dst: loadA.IP, Bps: cfg.BackgroundBps, Sport: 5002, Dport: 5202, Poisson: true, Seed: 2}
	up.Start(sim, cfg.Duration)
	down.Start(sim, cfg.Duration)

	trafficgen.StartPinger(sim, pingSrc, pingDst.IP, cfg.PingInterval, cfg.Duration)

	sim.Run(cfg.Duration + 100*netsim.Millisecond)

	var out RTTSeries
	for _, s := range pingSrc.RTTs {
		out.T = append(out.T, s.SentAt.Seconds())
		out.RTT = append(out.RTT, float64(s.RTT)/float64(netsim.Millisecond))
	}
	if len(out.RTT) == 0 {
		return out, fmt.Errorf("experiments: no RTT samples collected")
	}
	return out, nil
}

// RunFig12 runs the experiment twice — baseline forwarding and all
// checkers linked — and compares the RTT distributions.
func RunFig12(cfg Fig12Config) (Fig12Result, error) {
	cfg.fill()
	base, err := runRTT(cfg, false)
	if err != nil {
		return Fig12Result{}, err
	}
	chk, err := runRTT(cfg, true)
	if err != nil {
		return Fig12Result{}, err
	}
	tt, err := stats.WelchTTest(base.RTT, chk.RTT)
	if err != nil {
		return Fig12Result{}, err
	}
	return Fig12Result{Baseline: base, Checkers: chk, TTest: tt}, nil
}

// FormatFig12a renders the two RTT-over-time series as aligned columns
// (Figure 12a's data).
func FormatFig12a(r Fig12Result) string {
	var b strings.Builder
	b.WriteString("Figure 12a: RTT over time (ms)\n")
	b.WriteString("time_s baseline_ms all_checkers_ms\n")
	for i := range min(len(r.Baseline.T), len(r.Checkers.T)) {
		fmt.Fprintf(&b, "%.3f %.5f %.5f\n", r.Baseline.T[i], r.Baseline.RTT[i], r.Checkers.RTT[i])
	}
	return b.String()
}

// FormatFig12b renders the CDFs plus summary statistics and the t-test
// verdict (Figure 12b's data).
func FormatFig12b(r Fig12Result) string {
	var b strings.Builder
	b.WriteString("Figure 12b: RTT CDF (ms)\n")
	sb, sc := stats.Summarize(r.Baseline.RTT), stats.Summarize(r.Checkers.RTT)
	fmt.Fprintf(&b, "baseline:     n=%d mean=%.5f ms p50=%.5f p99=%.5f\n",
		sb.N, sb.Mean, stats.Percentile(r.Baseline.RTT, 50), stats.Percentile(r.Baseline.RTT, 99))
	fmt.Fprintf(&b, "all checkers: n=%d mean=%.5f ms p50=%.5f p99=%.5f\n",
		sc.N, sc.Mean, stats.Percentile(r.Checkers.RTT, 50), stats.Percentile(r.Checkers.RTT, 99))
	fmt.Fprintf(&b, "welch t-test: %s -> significant at 0.05: %v\n", r.TTest, r.TTest.Significant(0.05))
	b.WriteString("rtt_ms baseline_p checkers_p\n")
	cb, cc := stats.CDF(r.Baseline.RTT), stats.CDF(r.Checkers.RTT)
	n := min(len(cb), len(cc))
	for i := 0; i < n; i += max(n/50, 1) {
		fmt.Fprintf(&b, "%.5f %.3f %.3f\n", cb[i].X, cb[i].P, cc[i].P)
	}
	return b.String()
}
