package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/pcapio"
	"repro/internal/reportbus"
	"repro/internal/trafficgen"
)

// WriteCampusPcap renders n campus-trace packets as Ethernet frames
// into a classic pcap file — the capture the fleet harness replays.
// The rendering is the exact wire form CampusEnginePackets models, so
// a fleet run over the file and an in-process replay of the same
// (n, seed) check identical work.
func WriteCampusPcap(path string, n int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w, err := pcapio.NewWriter(bw)
	if err != nil {
		return err
	}
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: seed})
	var ts int64
	for i := 0; i < n; i++ {
		tp := gen.Next()
		ts += int64(tp.Gap)
		frame := tp.Decode().AppendTo(nil)
		if len(frame) != tp.Size {
			return fmt.Errorf("experiments: frame %d renders to %d bytes, trace says %d", i, len(frame), tp.Size)
		}
		if err := w.WriteFrame(ts, frame); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// FleetReference is the in-process ground truth a fleet run is
// compared against: the same packets through the same batched engine
// path, single process, with the same seed filtering.
type FleetReference struct {
	Counts   engine.Counts
	Verdicts []fleet.VerdictCount
	// DigestKeys maps the content key of every emitted aggregate to its
	// digest count (reportbus hashes are process-local, so content keys
	// are the only identity that survives the process boundary).
	DigestKeys map[string]uint64
	// Unaccounted is the reference bus residual (must be 0).
	Unaccounted int64
}

// RunFleetReference replays the campus trace loops times through the
// batched engine with every skipSeedEvery-th firewall pair left
// unseeded, mirroring what the fleet daemons collectively compute.
func RunFleetReference(packets, loops, skipSeedEvery, batchSize int, seed int64) (FleetReference, error) {
	if packets <= 0 {
		packets = 20_000
	}
	if loops <= 0 {
		loops = 1
	}
	if batchSize <= 0 {
		batchSize = 256
	}
	chks, err := CorpusCheckers()
	if err != nil {
		return FleetReference{}, err
	}
	pkts, pairs := CampusEnginePackets(packets, seed)
	seedPairs, _ := fleet.FilterSeedPairs(pairs, skipSeedEvery)
	verdicts := make([]engine.Verdict, len(pkts))
	collect := &reportbus.CollectExporter{}
	bus := reportbus.New(reportbus.Config{
		Window:    5 * time.Millisecond,
		Exporters: []reportbus.Exporter{collect},
	})
	seq := engine.NewSequential(engine.Config{Checkers: chks, Verdicts: verdicts, ReportBus: bus})
	if err := ConfigureReplayEngine(seq.Install, seedPairs); err != nil {
		return FleetReference{}, err
	}
	seq.Warm()
	bus.Start()
	var perLoop [][]fleet.VerdictCount
	for loop := 0; loop < loops; loop++ {
		for lo := 0; lo < len(pkts); lo += batchSize {
			hi := lo + batchSize
			if hi > len(pkts) {
				hi = len(pkts)
			}
			seq.ProcessBatch(pkts[lo:hi])
		}
		perLoop = append(perLoop, fleet.VerdictCountsOf(verdicts))
	}
	bus.Close()
	ref := FleetReference{
		Counts:     seq.Counts(),
		Verdicts:   fleet.MergeVerdictCounts(perLoop...),
		DigestKeys: map[string]uint64{},
	}
	aggs := collect.Aggregates()
	for i := range aggs {
		ref.DigestKeys[fleet.AggKeyOf(&aggs[i])] += aggs[i].Count
	}
	ref.Unaccounted = bus.Metrics().Unaccounted()
	return ref, nil
}

// DigestKeyCounts folds a fleet report's merged aggregates into the
// same content-keyed view FleetReference exposes.
func DigestKeyCounts(aggs []reportbus.Aggregate) map[string]uint64 {
	out := make(map[string]uint64, len(aggs))
	for i := range aggs {
		out[fleet.AggKeyOf(&aggs[i])] += aggs[i].Count
	}
	return out
}

// ---------------------------------------------------------------------------
// Exec harness

// FleetConfig parameterizes one fleet harness run: spawn the three
// daemons, replay a campus pcap through them, and compare the
// aggregator's fleet-wide report to the in-process reference.
type FleetConfig struct {
	// Packets in the capture (default 20,000); Seed feeds trafficgen.
	Packets int
	Seed    int64
	// Workers is the engine worker process count (default 2).
	Workers int
	// Loops replays the capture this many times (default 1).
	Loops int
	// SkipSeedEvery injects deterministic violations (default 16).
	SkipSeedEvery int
	// BatchSize is the ingest wire batch (default 256).
	BatchSize int
	// Kill, when set, SIGKILLs worker 0 mid-session and restarts it on
	// the same address — the soak scenario. Verdict parity is not
	// asserted (in-flight packets die with the worker, by design);
	// conservation of every summarized session still is.
	Kill bool
	// MaxRSSKB, when > 0, bounds every daemon's peak resident set; a
	// process exceeding it fails the run (the soak job's leak check).
	MaxRSSKB uint64
	// BinDir holds prebuilt hydra-{ingestd,workerd,aggd}; empty builds
	// them with `go build` into the scratch dir.
	BinDir string
	// Dir is the scratch directory (empty: a fresh temp dir, removed
	// afterwards).
	Dir string
	// Timeout bounds the whole run (default 3 minutes).
	Timeout time.Duration
	// Logf, when set, receives harness progress lines.
	Logf func(format string, args ...any)
}

// FleetResult is the harness outcome: the fleet's own report, the
// reference, and the parity verdicts between them.
type FleetResult struct {
	Report fleet.FleetReport
	Ingest fleet.IngestStats
	Ref    FleetReference

	// VerdictParity: the fleet's merged verdict multiset equals the
	// reference's (asserted only on clean runs). CountsParity: the
	// summed engine counts equal the reference's, per-checker rows
	// included. DigestParity: the merged violation table matches
	// the reference's content-keyed digest counts. Conserved: every
	// summarized session balanced its digest ledger exactly.
	VerdictParity bool
	CountsParity  bool
	DigestParity  bool
	Conserved     bool
	IngestClean   bool
	// RSSBounded is false when a daemon's peak resident set exceeded
	// FleetConfig.MaxRSSKB (always true when no bound was set).
	RSSBounded bool

	// InstallSeconds sums the workers' scraped session-install times.
	InstallSeconds float64

	Kills     int
	Wall      time.Duration
	PeakRSSKB map[string]uint64
	Notes     []string
}

// OK reports whether the run met its acceptance bar: conservation and
// ingest accounting always; full parity additionally on clean runs.
func (r FleetResult) OK() bool {
	if !r.Conserved || !r.RSSBounded {
		return false
	}
	if r.Kills == 0 {
		return r.VerdictParity && r.CountsParity && r.DigestParity && r.IngestClean
	}
	return true
}

// FleetBinaries ensures the three daemon binaries exist in dir,
// building them with the local go toolchain when missing.
func FleetBinaries(binDir string) (map[string]string, error) {
	names := []string{"hydra-ingestd", "hydra-workerd", "hydra-aggd"}
	bins := map[string]string{}
	var missing []string
	for _, n := range names {
		p := filepath.Join(binDir, n)
		if _, err := os.Stat(p); err != nil {
			missing = append(missing, n)
		}
		bins[n] = p
	}
	if len(missing) == 0 {
		return bins, nil
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	for _, n := range missing {
		cmd := exec.Command("go", "build", "-o", bins[n], "./cmd/"+n)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("experiments: building %s: %v\n%s", n, err, out)
		}
	}
	return bins, nil
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("experiments: no go.mod above working directory")
		}
		dir = parent
	}
}

// RunFleet executes one full fleet harness run.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if cfg.Packets <= 0 {
		cfg.Packets = 20_000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Loops <= 0 {
		cfg.Loops = 1
	}
	if cfg.SkipSeedEvery == 0 {
		cfg.SkipSeedEvery = 16
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	var res FleetResult
	start := time.Now()

	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "hydra-fleet-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	binDir := cfg.BinDir
	if binDir == "" {
		binDir = dir
	}
	bins, err := FleetBinaries(binDir)
	if err != nil {
		return res, err
	}
	pcapPath := filepath.Join(dir, "campus.pcap")
	if err := WriteCampusPcap(pcapPath, cfg.Packets, cfg.Seed); err != nil {
		return res, err
	}

	deadline := time.Now().Add(cfg.Timeout)
	sampler := newRSSSampler()
	defer sampler.stop()

	// Aggregator first: workers dial it at startup.
	reportPath := filepath.Join(dir, "fleet-report.json")
	agg, err := startProc(cfg.Logf, "aggd", bins["hydra-aggd"],
		"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-expect", strconv.Itoa(cfg.Workers), "-timeout", cfg.Timeout.String(),
		"-out", reportPath)
	if err != nil {
		return res, err
	}
	defer agg.kill()
	aggAddr, err := agg.awaitPrefixed("LISTEN ", deadline)
	if err != nil {
		return res, fmt.Errorf("experiments: aggd did not report its address: %w", err)
	}
	aggMetrics, _ := agg.awaitPrefixed("METRICS ", deadline)
	sampler.watch("aggd", agg.cmd.Process.Pid)
	// Scrape the aggregator now, while it is guaranteed alive (it exits
	// on its own once the expected summaries arrive): registration is
	// eager, so the series exist before any traffic flows.
	if aggMetrics != "" {
		body, err := scrape(aggMetrics)
		if err != nil || !strings.Contains(body, "hydra_agg_digests_total") {
			return res, fmt.Errorf("experiments: aggd metrics incomplete (err %v)", err)
		}
	}

	// A worker's two addresses are kept as awaitPrefixed returns them:
	// its stdout goroutine writes the prefixed map.
	type worker struct {
		p               *proc
		listen, metrics string
	}
	workers := make([]worker, cfg.Workers)
	workerAddrs := make([]string, cfg.Workers)
	startWorker := func(i int, listen string) (worker, error) {
		p, err := startProc(cfg.Logf, fmt.Sprintf("workerd-%d", i), bins["hydra-workerd"],
			"-listen", listen, "-metrics", "127.0.0.1:0",
			"-agg", aggAddr, "-node", fmt.Sprintf("worker-%d", i))
		if err != nil {
			return worker{}, err
		}
		w := worker{p: p}
		if w.listen, err = p.awaitPrefixed("LISTEN ", deadline); err == nil {
			w.metrics, err = p.awaitPrefixed("METRICS ", deadline)
		}
		if err != nil {
			p.kill()
			return worker{}, fmt.Errorf("experiments: worker %d did not report its addresses: %w", i, err)
		}
		return w, nil
	}
	for i := range workers {
		w, err := startWorker(i, "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		defer w.p.kill()
		workers[i] = w
		workerAddrs[i] = w.listen
		sampler.watch(fmt.Sprintf("workerd-%d", i), w.p.cmd.Process.Pid)
	}

	statsPath := filepath.Join(dir, "ingest-stats.json")
	ingest, err := startProc(cfg.Logf, "ingestd", bins["hydra-ingestd"],
		"-pcap", pcapPath, "-workers", strings.Join(workerAddrs, ","),
		"-loops", strconv.Itoa(cfg.Loops),
		"-skip-seed-every", strconv.Itoa(cfg.SkipSeedEvery),
		"-batch", strconv.Itoa(cfg.BatchSize),
		"-metrics", "127.0.0.1:0", "-out", statsPath)
	if err != nil {
		return res, err
	}
	defer ingest.kill()
	sampler.watch("ingestd", ingest.cmd.Process.Pid)

	if cfg.Kill {
		// Wait until worker 0 is provably mid-stream (its packet counter
		// moved), then, if its session (and so ingestd and aggd) still runs,
		// SIGKILL it and restart on the same address: a replay can be over.
		target := workers[0].p
		if err := awaitCounter(workers[0].metrics, "hydra_worker_packets_total", 1, deadline); err != nil {
			return res, fmt.Errorf("experiments: worker 0 never started processing: %w", err)
		}
		body, _ := scrape(workers[0].metrics)
		if active, _ := seriesValue(body, "hydra_worker_session_active"); active == 1 {
			cfg.Logf("fleet: killing worker 0 (pid %d) mid-stream", target.cmd.Process.Pid)
			target.kill()
			res.Kills++
			replacement, err := startWorker(0, workerAddrs[0])
			if err != nil {
				return res, fmt.Errorf("experiments: restarting worker 0: %w", err)
			}
			defer replacement.p.kill()
			workers[0] = replacement
			sampler.watch("workerd-0r", replacement.p.cmd.Process.Pid)
		} else {
			res.Notes = append(res.Notes, "soak: the replay ended before worker 0 was seen mid-stream; kill skipped")
		}
	}

	if err := ingest.wait(deadline); err != nil {
		return res, fmt.Errorf("experiments: ingestd: %w", err)
	}
	if err := readJSONFile(statsPath, &res.Ingest); err != nil {
		return res, fmt.Errorf("experiments: ingest stats: %w", err)
	}

	// The workers' /metrics endpoints must expose the pipeline counters
	// — the fleet's observability contract.
	for i, w := range workers {
		body, err := scrape(w.metrics)
		if err != nil {
			return res, fmt.Errorf("experiments: scraping worker %d: %w", i, err)
		}
		for _, series := range []string{"hydra_worker_packets_total", "hydra_worker_batch_seconds_count", "hydra_worker_sessions_total"} {
			if !strings.Contains(body, series) {
				return res, fmt.Errorf("experiments: worker %d metrics missing %s", i, series)
			}
		}
		sum, _ := seriesValue(body, "hydra_worker_session_install_seconds_sum")
		res.InstallSeconds += sum
	}
	if err := agg.wait(deadline); err != nil {
		// The aggregator exits on its own after -expect summaries; nudge
		// it if that somehow did not happen.
		agg.terminate()
		if werr := agg.wait(time.Now().Add(10 * time.Second)); werr != nil {
			return res, fmt.Errorf("experiments: aggd: %w", err)
		}
	}
	if err := readJSONFile(reportPath, &res.Report); err != nil {
		return res, fmt.Errorf("experiments: fleet report: %w", err)
	}
	res.Wall = time.Since(start)
	res.PeakRSSKB = sampler.peaks()
	res.RSSBounded = true
	if cfg.MaxRSSKB > 0 {
		for name, kb := range res.PeakRSSKB {
			if kb > cfg.MaxRSSKB {
				res.RSSBounded = false
				res.Notes = append(res.Notes,
					fmt.Sprintf("%s peaked at %d KB, above the %d KB bound", name, kb, cfg.MaxRSSKB))
			}
		}
	}

	ref, err := RunFleetReference(cfg.Packets, cfg.Loops, cfg.SkipSeedEvery, cfg.BatchSize, cfg.Seed)
	if err != nil {
		return res, err
	}
	res.Ref = ref
	res.Conserved = res.Report.Conserved && res.Report.Summarized == cfg.Workers
	res.IngestClean = res.Ingest.Reconnects == 0 && len(res.Ingest.Dropped) == 0 &&
		res.Ingest.Packets == res.Ingest.Acked
	res.VerdictParity = reflect.DeepEqual(res.Report.Verdicts, ref.Verdicts)
	res.CountsParity = reflect.DeepEqual(res.Report.Counts, ref.Counts)
	res.DigestParity = reflect.DeepEqual(DigestKeyCounts(res.Report.Aggregates), ref.DigestKeys)
	if ref.Unaccounted != 0 {
		res.Conserved = false
		res.Notes = append(res.Notes, fmt.Sprintf("reference bus unaccounted: %d", ref.Unaccounted))
	}
	if res.Kills > 0 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("soak: %d kill(s); parity not asserted, conservation covers %d summarized sessions",
				res.Kills, res.Report.Summarized))
	}
	return res, nil
}

// FormatFleet renders a fleet result for the bench report.
func FormatFleet(r FleetResult) string {
	var b strings.Builder
	b.WriteString("Fleet: ingestd -> workerd xN -> aggd over the campus pcap\n")
	fmt.Fprintf(&b, "%-24s %12d\n", "packets (fleet)", r.Report.Counts.Packets)
	fmt.Fprintf(&b, "%-24s %12d\n", "packets (reference)", r.Ref.Counts.Packets)
	fmt.Fprintf(&b, "%-24s %12d\n", "digests received", r.Report.ReceivedDigests)
	fmt.Fprintf(&b, "%-24s %9d/%2d\n", "sessions (clean/total)", r.Report.CleanSessions, r.Report.Sessions)
	fmt.Fprintf(&b, "%-24s %12d\n", "kills", r.Kills)
	fmt.Fprintf(&b, "%-24s %12v\n", "verdict parity", r.VerdictParity)
	fmt.Fprintf(&b, "%-24s %12v\n", "counts parity", r.CountsParity)
	fmt.Fprintf(&b, "%-24s %12v\n", "digest parity", r.DigestParity)
	fmt.Fprintf(&b, "%-24s %12v\n", "conserved", r.Conserved)
	fmt.Fprintf(&b, "%-24s scan %.1f ms, handshakes %.1f ms, session installs %.1f ms\n", "session prelude",
		1e3*r.Ingest.ScanSeconds, 1e3*r.Ingest.HandshakeSeconds, 1e3*r.InstallSeconds)
	fmt.Fprintf(&b, "%-24s %12s\n", "wall", r.Wall.Round(time.Millisecond))
	for name, kb := range r.PeakRSSKB {
		fmt.Fprintf(&b, "peak rss %-15s %9d KB\n", name, kb)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Process plumbing

// proc wraps one spawned daemon: stdout line routing (LISTEN/METRICS
// handshake lines are captured, everything else is logged) and
// lifecycle helpers.
type proc struct {
	name string
	cmd  *exec.Cmd

	mu       sync.Mutex
	prefixed map[string]string
	done     chan error
	linec    chan string
}

func startProc(logf func(string, ...any), name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout // interleave; daemons log little
	p := &proc{
		name:     name,
		cmd:      cmd,
		prefixed: map[string]string{},
		done:     make(chan error, 1),
		linec:    make(chan string, 64),
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("experiments: starting %s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			matched := false
			for _, pre := range []string{"LISTEN ", "METRICS "} {
				if strings.HasPrefix(line, pre) {
					p.mu.Lock()
					p.prefixed[pre] = strings.TrimSpace(strings.TrimPrefix(line, pre))
					p.mu.Unlock()
					matched = true
					select {
					case p.linec <- pre:
					default:
					}
				}
			}
			if !matched {
				logf("%s: %s", name, line)
			}
		}
		p.done <- cmd.Wait()
	}()
	return p, nil
}

// awaitPrefixed blocks until the daemon printed "<prefix><value>".
func (p *proc) awaitPrefixed(prefix string, deadline time.Time) (string, error) {
	for {
		p.mu.Lock()
		v, ok := p.prefixed[prefix]
		p.mu.Unlock()
		if ok {
			return v, nil
		}
		select {
		case <-p.linec:
		case err := <-p.done:
			p.done <- err
			return "", fmt.Errorf("%s exited early: %v", p.name, err)
		case <-time.After(time.Until(deadline)):
			return "", fmt.Errorf("timed out waiting for %s%q from %s", prefix, "...", p.name)
		}
	}
}

func (p *proc) wait(deadline time.Time) error {
	select {
	case err := <-p.done:
		p.done <- err
		return err
	case <-time.After(time.Until(deadline)):
		return fmt.Errorf("%s did not exit before the deadline", p.name)
	}
}

func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	select {
	case err := <-p.done:
		p.done <- err
	case <-time.After(5 * time.Second):
	}
}

func (p *proc) terminate() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// scrape fetches a Prometheus endpoint's body.
func scrape(addr string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("no metrics address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// seriesValue reads the first sample of the named series from a
// Prometheus text body.
func seriesValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if fields := strings.Fields(line); len(fields) == 2 && strings.HasPrefix(fields[0], name) {
			v, err := strconv.ParseFloat(fields[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// awaitCounter polls a metrics endpoint until the named counter
// reaches min.
func awaitCounter(addr, name string, min float64, deadline time.Time) error {
	for {
		if body, err := scrape(addr); err == nil {
			if v, ok := seriesValue(body, name); ok && v >= min {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("counter %s never reached %v", name, min)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// RSS sampling

// rssSampler polls /proc/<pid>/status for every watched process and
// keeps the peak resident set — the soak job's bounded-memory check.
type rssSampler struct {
	mu    sync.Mutex
	pids  map[string]int
	peak  map[string]uint64
	stopc chan struct{}
}

func newRSSSampler() *rssSampler {
	s := &rssSampler{pids: map[string]int{}, peak: map[string]uint64{}, stopc: make(chan struct{})}
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) watch(name string, pid int) {
	s.mu.Lock()
	s.pids[name] = pid
	s.mu.Unlock()
	s.sample()
}

func (s *rssSampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, pid := range s.pids {
		if kb, ok := readVmRSS(pid); ok && kb > s.peak[name] {
			s.peak[name] = kb
		}
	}
}

func (s *rssSampler) peaks() map[string]uint64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.peak))
	for k, v := range s.peak {
		out[k] = v
	}
	return out
}

func (s *rssSampler) stop() { close(s.stopc) }

// readVmRSS parses VmRSS (in KB) from /proc/<pid>/status; ok is false
// when the process is gone or the platform has no procfs.
func readVmRSS(pid int) (uint64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
