// Command bench is the repository's benchmark: four closed-loop campus
// replays measured end to end, and a traced stage ladder that prices
// every layer between capture bytes and an aggregated verdict. See
// README.md for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"repro/internal/checkers"
)

// metricDef declares one metric. For a per-layer metric computed from
// spans, stage is the span name and scale converts nanoseconds per item
// into the unit; metrics with no stage are set directly.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	stage  string
	scale  float64
}

var endToEnd = []metricDef{
	{Name: "pps", Unit: "packets/s", Better: "higher"},
	{Name: "cpu_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer is the traced run's catalogue, in ladder order.
func perLayer() []metricDef {
	ns := func(name, stage string) metricDef {
		return metricDef{Name: name, Unit: "ns", Better: "lower", stage: stage, scale: 1}
	}
	ms := func(name, stage string) metricDef {
		return metricDef{Name: name, Unit: "ms", Better: "lower", stage: stage, scale: 1e-6}
	}
	val := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better}
	}
	defs := []metricDef{
		ms("compiler.compile_all_ms", "compiler.compile_all"),
		ms("engine.install_ms", "engine.install"),
		ms("engine.warm_ms", "engine.warm"),

		ns("pcapio.read_ns_per_pkt", "pcapio.read"),
		ns("dataplane.parse_ns_per_pkt", "dataplane.parse"),
		ns("dataplane.append_ns_per_pkt", "dataplane.append"),
		val("dataplane.allocs_per_pkt", "count", "lower"),
		ns("fleet.pathpin_ns_per_pkt", "fleet.pathpin"),
		ns("wireproto.encode_ns_per_pkt", "wireproto.encode"),
		ns("wireproto.decode_ns_per_pkt", "wireproto.decode"),
		val("wireproto.bytes_per_pkt", "bytes", "lower"),

		ns("engine.empty_ns_per_pkt", "engine.empty"),
		ns("engine.batch_ns_per_pkt", "engine.batch"),
		ns("engine.batch1_ns_per_pkt", "engine.batch1"),
		ns("engine.hopmajor_ns_per_pkt", "engine.hopmajor"),
		ns("engine.sharded1_ns_per_pkt", "engine.sharded1"),
		ns("engine.shardedN_ns_per_pkt", "engine.shardedN"),
		val("engine.batch_us_p50", "us", "lower"),
		val("engine.batch_us_p99", "us", "lower"),
		val("engine.allocs_per_pkt", "count", "lower"),
		val("engine.alloc_bytes_per_pkt", "bytes", "lower"),
	}
	for _, p := range checkers.All {
		defs = append(defs, val("engine.checker."+p.Key+"_ns_per_pkt", "ns", "lower"))
	}
	return append(defs,
		ns("pipeline.lookup_exact_ns", "pipeline.lookup_exact"),
		ns("pipeline.lookup_tcam_ns", "pipeline.lookup_tcam"),

		ns("reportbus.publish_ns_per_digest", "reportbus.publish"),
		ns("reportbus.flush_ns_per_digest", "reportbus.flush"),
		val("reportbus.allocs_per_digest", "count", "lower"),
		val("reportbus.ring_drop_share", "share", "lower"),
		val("reportbus.aggregates_per_kdigest", "count", "lower"),

		ns("netsim.forward_ns_per_pkt", "netsim.forward"),
		ns("netsim.checked_ns_per_pkt", "netsim.checked"),
		val("netsim.events_per_pkt", "count", "lower"),
		val("netsim.fast_tx_share", "share", "higher"),
		val("netsim.allocs_per_pkt", "count", "lower"),

		val("fleet.ingest_send_ns_per_pkt", "ns", "lower"),
		val("fleet.worker_check_ns_per_pkt", "ns", "lower"),
		ns("fleet.agg_ns_per_aggregate", "fleet.agg"),
		val("fleet.digests_per_kpkt", "count", "lower"),
		val("fleet.acked_share", "share", "higher"),
		val("fleet.ladder_sum_ns_per_pkt", "ns", "lower"),
		val("fleet.unexplained_ns_per_pkt", "ns", "lower"),

		val("host.calib_ns_per_op", "ns", "lower"),
		val("trace.overhead_share", "share", "lower"),
	)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects a workload or metric name the benchmark contract
// would refuse.
func checkNames() error {
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := check("workload", w.name); err != nil {
			return err
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if err := check("metric", d.Name); err != nil {
			return err
		}
	}
	return nil
}

// metric and result are the contract's output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill stores values under the catalogue's names and units. A value for
// an undeclared metric, or a declared metric without a value, is an
// error: the output must list exactly the catalogue.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %q was not measured", d.Name)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("unknown metric %q", name)
		}
	}
	return nil
}

// options are the command-line settings of one workload run.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	// spanFile is where a traced run writes its spans.
	spanFile string
}

// quickDivisor shrinks every packet count for -quick smoke runs.
const quickDivisor = 20

func (o options) size(packets int) int {
	if o.quick {
		return packets / quickDivisor
	}
	return packets
}

// hostStamp describes the machine and build, so that a reader can tell
// a slower machine from slower code.
func hostStamp(calibBefore, calibAfter float64) string {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s commit=%s calib_ns_per_op before=%.4f after=%.4f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, calibBefore, calibAfter)
}

// runWorkload measures one workload end to end, tracing off: set-up
// (several times, for a steady setup_s), then timed repetitions of a
// fixed packet count until opts.seconds have passed.
func runWorkload(w *workload, opts options, out io.Writer) (result, error) {
	setups, minReps := 5, 3
	if opts.quick {
		setups = 1
	}
	n := opts.size(w.packets)
	calibBefore := calibrate()

	var run runner
	defer func() {
		if run != nil {
			run.close()
		}
	}()
	// A set-up is timed by the wall clock and priced, once the run's
	// quiet window is known, by the host factor of the second half of
	// its warm-up repetition: the windows timed nearest to it that run
	// the steady-state code the quiet window is taken from.
	type timedSetup struct {
		secs float64
		near []window
	}
	var timedSetups []timedSetup
	for i := 0; i < setups; i++ {
		// Drop the previous set-up before building the next, so that a
		// process which sets up five times peaks like one that sets up
		// once.
		if run != nil {
			run.close()
			run = nil
		}
		runtime.GC()
		t0 := time.Now()
		r, err := w.setup(opts.seed, n)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		run = r
		warm, err := run.rep() // discarded: fills caches, finishes lazy set-up
		if err != nil {
			return result{}, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		if warm.failed != 0 {
			return result{}, fmt.Errorf("%s warm-up broke its reference: %s", w.name, warm.rule)
		}
		timedSetups = append(timedSetups, timedSetup{time.Since(t0).Seconds(), warm.windows[len(warm.windows)/2:]})
	}
	runtime.GC()

	var (
		res      = result{Correct: true}
		t        timed
		reps     int
		remarks  []string
		deadline = time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	)
	for ; reps < minReps || (!opts.quick && time.Now().Before(deadline)); reps++ {
		// Every repetition starts from a collected heap: what the
		// previous one left behind would otherwise make peak_rss_mb
		// depend on where the collector's cycles happen to fall.
		runtime.GC()
		s, err := run.rep()
		if err != nil {
			return result{}, fmt.Errorf("%s repetition %d: %w", w.name, reps, err)
		}
		res.Attempted += s.packets
		res.Failed += s.failed
		if s.rule != "" {
			remarks = append(remarks, fmt.Sprintf("BROKEN repetition %d: %s", reps, s.rule))
		}
		if s.note != "" {
			remarks = append(remarks, fmt.Sprintf("note repetition %d: %s", reps, s.note))
		}
		t.add(s)
	}
	res.Correct = res.Failed == 0
	calibAfter := calibrate()
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	var setupSecs, setupWall []float64
	for _, su := range timedSetups {
		setupWall = append(setupWall, su.secs)
		setupSecs = append(setupSecs, su.secs/t.hostFactor(su.near))
	}
	values := map[string]float64{
		"pps":            t.pps(),
		"cpu_ns_per_pkt": t.cpuPerPacket(),
		"peak_rss_mb":    rss,
		"setup_s":        median(setupSecs),
	}
	if err := res.fill(endToEnd, values); err != nil {
		return result{}, err
	}

	fmt.Fprintf(out, "%s seed=%d packets/rep=%d reps=%d windows=%d", w.name, opts.seed, n, reps, len(t.rates))
	if opts.quick {
		fmt.Fprint(out, " QUICK: sizes shrunk, not comparable with full runs")
	}
	fmt.Fprintln(out)
	q1, q3 := quartiles(t.rates)
	fmt.Fprintf(out, "  %-15s %12.1f packets/s  on a quiet host; quiet window %.1f, %d of %d windows faster (q1 %.1f, median %.1f, q3 %.1f); all timed work together %.1f\n",
		"pps", values["pps"], t.quiet(), t.faster(), len(t.rates), q1, median(t.rates), q3, t.rawPPS())
	fmt.Fprintf(out, "  %-15s %12.1f ns         %.3f busy cores / pps (all timed CPU / all packets: %.1f)\n",
		"cpu_ns_per_pkt", values["cpu_ns_per_pkt"], t.busy(), t.rawCPUPerPacket())
	fmt.Fprintf(out, "  %-15s %12.1f MB         VmHWM at exit\n", "peak_rss_mb", rss)
	fmt.Fprintf(out, "  %-15s %12.3f s          median of %d set-ups, each with its warm-up repetition, over its host factor %.3f (wall clock %.3f)\n",
		"setup_s", values["setup_s"], len(setupSecs), setupSecs, setupWall)
	fmt.Fprintf(out, "  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, r := range remarks {
		fmt.Fprintf(out, "  %s\n", r)
	}
	fmt.Fprintf(out, "  %s\n", hostStamp(calibBefore, calibAfter))
	return res, nil
}

// emit prints the contract's last line.
func emit(out io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: each workload in a fresh process)")
		seed         = flag.Int64("seed", 1, "traffic generator seed; it reaches nothing else")
		seconds      = flag.Float64("seconds", 15, "how long one run measures")
		trace        = flag.Int("trace", 0, "1 runs the traced stage ladder and reports the per-layer metrics instead")
		quick        = flag.Bool("quick", false, "smoke run: packet counts / 20, 3 repetitions, not comparable")
		aa           = flag.Bool("aa", false, "A/A check: run every workload ten times, twice, and compare the two sets against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace, *quick, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, trace int, quick, aa bool) error {
	if err := checkNames(); err != nil {
		return err
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, not %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if aa {
		return runAA(seconds, quick)
	}
	if workloadName == "" {
		return runAll(seed, seconds, trace, quick)
	}
	w, err := findWorkload(workloadName)
	if err != nil {
		return err
	}
	opts := options{seed: seed, seconds: seconds, quick: quick, trace: trace == 1}
	var res result
	if opts.trace {
		opts.spanFile = filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		res, err = runLadder(w, opts, os.Stdout)
	} else {
		res, err = runWorkload(w, opts, os.Stdout)
	}
	if err != nil {
		return err
	}
	if err := emit(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their reference", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// buildDir is where run.sh builds and where a traced run leaves its
// span file; .gitignore names it.
const buildDir = ".bench_build"
