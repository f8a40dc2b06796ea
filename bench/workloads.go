package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pcapio"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
	"repro/internal/trafficgen"
	"repro/internal/wireproto"
)

// Sizes shared by the workloads and the ladder. They mirror what the
// fleet daemons run with, so the engine workloads and the fleet
// workload check packets in batches of the same shape.
const (
	batchSize     = 256
	busWindow     = 5 * time.Millisecond
	ingestWindow  = 8
	skipSeedEvery = 15
	hopsPerPacket = 3 // leaf, spine, leaf on the 2x2 replay fabric
	stormProbeKey = "storm-probe"
	sessionWait   = 60 * time.Second
	firewallKey   = "stateful-firewall"
	firewallTable = "allowed"

	// Window sizes, in packets (2 to 5 ms): long enough that reading
	// the clock costs nothing, short enough that the runner's
	// neighbours leave a good share of them alone.
	engineWindow = 2 * batchSize
	wireWindow   = 256
	fleetWindow  = 2 * batchSize
)

// window is one timed slice of a repetition: the packets that received
// a verdict in it and its wall time.
type window struct {
	packets uint64
	wall    time.Duration
}

// sample is one timed repetition: how long it took, the process CPU time
// it used, how many packets were offered and how many of them missed
// the workload's reference. rule names the first reference rule that
// broke ("" when none did); note is something the report should show
// that failed no operation. windows are timed slices of the repetition,
// in order. Those of an engine or netsim repetition tile it; those of a
// fleet session cover the part of it in which verdicts arrive.
type sample struct {
	start      time.Time
	wall, cpu  time.Duration
	windows    []window
	packets    uint64
	failed     uint64
	rule, note string
}

// stopwatch times a repetition as consecutive windows.
type stopwatch struct {
	s    *sample
	last time.Time
	cpu  time.Duration
}

func startWatch(s *sample) *stopwatch {
	w := &stopwatch{s: s, cpu: cpuTime(), last: time.Now()}
	s.start = w.last
	return w
}

// lap closes the current window, in which packets got their verdicts.
func (w *stopwatch) lap(packets uint64) {
	now := time.Now()
	w.s.windows = append(w.s.windows, window{packets: packets, wall: now.Sub(w.last)})
	w.s.wall += now.Sub(w.last)
	w.last = now
}

// stop closes the repetition after its last lap.
func (w *stopwatch) stop() { w.s.cpu = cpuTime() - w.cpu }

// runner is a set-up workload: rep runs and verifies one repetition,
// close releases what set-up started.
type runner interface {
	rep() (sample, error)
	close()
}

// workload is one entry of the benchmark. The seed reaches only
// trafficgen; packets is the fixed operation count of one repetition.
type workload struct {
	name    string
	why     string
	packets int
	setup   func(seed int64, packets int) (runner, error)
}

var workloads = []workload{
	{
		name:    "engine-campus",
		why:     "pre-parsed packets through the batched bytecode VM and tables only: engine work must show here, netsim/fleet/wireproto work must not",
		packets: 384 * engineWindow,
		setup:   func(seed int64, n int) (runner, error) { return setupEngine(seed, n, false) },
	},
	{
		name:    "engine-storm",
		why:     "engine-campus plus a probe raising 3 digests per packet into a worker-shaped report bus: isolates the report path beside identical checking",
		packets: 384 * engineWindow,
		setup:   func(seed int64, n int) (runner, error) { return setupEngine(seed, n, true) },
	},
	{
		name:    "wire-campus",
		why:     "frames through the netsim leaf-spine: per-hop parse, bind, telemetry rewrite, event heap and the linked-closure executor, where the VM does nothing",
		packets: 192 * wireWindow,
		setup:   setupWire,
	},
	{
		name:    "fleet-campus",
		why:     "capture bytes to an aggregated conserved verdict: pcap read, ingest, wireproto over loopback TCP, one worker, JSON to the aggregator",
		packets: 50_000,
		setup:   setupFleet,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------------
// engine-campus and engine-storm

// countExporter is the report bus's exporter: it counts what reaches it
// and retains nothing, so memory measures the bus and not the bench.
type countExporter struct {
	digests    atomic.Uint64
	aggregates atomic.Uint64
}

func (e *countExporter) ExportAggregates(aggs []reportbus.Aggregate) {
	var n uint64
	for i := range aggs {
		n += aggs[i].Count
	}
	e.digests.Add(n)
	e.aggregates.Add(uint64(len(aggs)))
}

// phase is one named step of set-up, kept so the traced run can report
// it as a span.
type phase struct {
	name  string
	start time.Time
	dur   time.Duration
}

// engineRun drives engine.Sequential.ProcessBatch over a fixed packet
// set. The report bus is configured like fleet.Worker's; without the
// storm probe it stays silent.
type engineRun struct {
	seq      *engine.Sequential
	bus      *reportbus.Bus
	exp      *countExporter
	pkts     []engine.Packet
	verdicts []engine.Verdict
	// want is the reference verdict of every packet.
	want   engine.Verdict
	phases []phase

	// Cumulative counters at the end of the previous repetition.
	errors    uint64
	published uint64
}

func setupEngine(seed int64, n int, storm bool) (runner, error) {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		return nil, err
	}
	pkts, pairs := experiments.CampusEnginePackets(n, seed)
	return newEngineRun(chks, pkts, pairs, storm)
}

// stormChecker compiles the exported storm probe as a thirteenth
// engine checker.
func stormChecker() (engine.Checker, error) {
	p := checkers.Property{Key: stormProbeKey, Source: experiments.StormCheckerSrc}
	info, err := p.Parse()
	if err != nil {
		return engine.Checker{}, err
	}
	prog, err := compiler.Compile(info, compiler.Options{Name: p.Key})
	if err != nil {
		return engine.Checker{}, err
	}
	return engine.Checker{Name: p.Key, RT: &compiler.Runtime{Prog: prog}}, nil
}

func newEngineRun(chks []engine.Checker, pkts []engine.Packet, pairs [][2]uint32, storm bool) (*engineRun, error) {
	r := &engineRun{pkts: pkts, exp: &countExporter{}, verdicts: make([]engine.Verdict, len(pkts))}
	if storm {
		probe, err := stormChecker()
		if err != nil {
			return nil, err
		}
		chks = append(chks[:len(chks):len(chks)], probe)
		r.want.Reports = hopsPerPacket
	}
	r.bus = reportbus.New(reportbus.Config{Window: busWindow, Exporters: []reportbus.Exporter{r.exp}})
	r.seq = engine.NewSequential(engine.Config{Checkers: chks, Verdicts: r.verdicts, ReportBus: r.bus})

	var err error
	r.phase("engine.install", func() {
		err = experiments.ConfigureReplayEngine(r.seq.Install, pairs)
		if err != nil || !storm {
			return
		}
		armed := func(st *pipeline.State) error {
			return st.Tables["armed"].Insert(pipeline.Entry{Action: []pipeline.Value{pipeline.B(8, 1)}})
		}
		for _, sw := range experiments.ReplaySwitchInfos() {
			if err = r.seq.Install(stormProbeKey, sw.ID, armed); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	r.phase("engine.warm", r.seq.Warm)
	r.bus.Start()
	return r, nil
}

func (r *engineRun) phase(name string, fn func()) {
	start := time.Now()
	fn()
	r.phases = append(r.phases, phase{name, start, time.Since(start)})
}

// inBatches hands pkts to process, size packets at a time.
func inBatches(pkts []engine.Packet, size int, process func([]engine.Packet)) {
	for lo := 0; lo < len(pkts); lo += size {
		process(pkts[lo:min(lo+size, len(pkts))])
	}
}

// poison overwrites every verdict, so that a packet the next pass gives
// no verdict does not inherit the previous pass's.
func (r *engineRun) poison() {
	for i := range r.verdicts {
		r.verdicts[i] = engine.Verdict{Reports: -1}
	}
}

func (r *engineRun) rep() (sample, error) {
	r.poison()
	var s sample
	watch := startWatch(&s)
	for lo := 0; lo < len(r.pkts); lo += engineWindow {
		hi := min(lo+engineWindow, len(r.pkts))
		inBatches(r.pkts[lo:hi], batchSize, r.seq.ProcessBatch)
		if hi == len(r.pkts) {
			// The repetition is over when its digests are exported.
			r.bus.Flush()
		}
		watch.lap(uint64(hi - lo))
	}
	watch.stop()
	s.packets = uint64(len(r.pkts))
	s.failed, s.rule = r.check()
	return s, nil
}

// check compares the pass just replayed with the reference: every packet got
// exactly r.want, no execution error, and the bus accounts for every
// digest the verdicts promise.
func (r *engineRun) check() (failed uint64, rule string) {
	n := uint64(len(r.pkts))
	for _, v := range r.verdicts {
		if v != r.want {
			failed++
		}
	}
	if failed > 0 {
		rule = fmt.Sprintf("%d of %d packets got a verdict other than reject=%t reports=%d",
			failed, n, r.want.Reject, r.want.Reports)
	}
	whole := func(format string, args ...any) {
		if rule == "" {
			rule = fmt.Sprintf(format, args...)
		}
		failed = n
	}
	c, m := r.seq.Counts(), r.bus.Metrics()
	if c.Errors != r.errors {
		whole("engine counted %d checker execution errors", c.Errors-r.errors)
	}
	if got, want := m.Published-r.published, n*uint64(r.want.Reports); got != want {
		whole("report bus saw %d digests published, the reference is %d", got, want)
	}
	if u := m.Unaccounted(); u != 0 {
		whole("report bus has %d digests unaccounted after flush", u)
	}
	if got := r.exp.digests.Load(); got != m.EmittedDigests {
		whole("exporter received %d digests, the bus emitted %d", got, m.EmittedDigests)
	}
	r.errors, r.published = c.Errors, m.Published
	return failed, rule
}

func (r *engineRun) close() { r.bus.Close() }

// ---------------------------------------------------------------------------
// wire-campus

// campusTrace draws n campus packets and the unique (src, dst) pairs
// the stateful firewall must allow, in first-seen order.
func campusTrace(n int, seed int64) ([]trafficgen.Packet, [][2]uint32) {
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: seed})
	pkts := make([]trafficgen.Packet, n)
	seen := map[[2]uint32]bool{}
	var pairs [][2]uint32
	for i := range pkts {
		pkts[i] = gen.Next()
		pair := [2]uint32{uint32(pkts[i].Src), uint32(pkts[i].Dst)}
		if !seen[pair] {
			seen[pair] = true
			pairs = append(pairs, pair)
		}
	}
	return pkts, pairs
}

// wireRun replays the trace through the netsim 2x2 leaf-spine from one
// host on leaf 1 to one on leaf 2, timing Simulator.RunAll only.
type wireRun struct {
	sim       *netsim.Simulator
	ls        *netsim.LeafSpine
	src, sink *netsim.Host
	atts      map[string][]*netsim.HydraAttachment
	pkts      []trafficgen.Packet

	// Cumulative counters at the end of the previous repetition.
	delivered, rejected, errors uint64
}

func setupWire(seed int64, n int) (runner, error) {
	pkts, pairs := campusTrace(n, seed)
	return newWireRun(pkts, pairs, true)
}

// newWireRun builds the fabric; with checked false no checker is
// attached and the switches only forward.
func newWireRun(pkts []trafficgen.Packet, pairs [][2]uint32, checked bool) (*wireRun, error) {
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{
		Leaves: 2, Spines: 2, HostsPerLeaf: 2,
		LinkBps: 100_000_000_000, // CPU-shaped, never line-blocked
	})
	for l, leaf := range ls.Leaves {
		p := &netsim.L3Program{}
		if l == 0 {
			p.AddRoute(0, 0, 1, 2) // ECMP to the spines
		} else {
			p.AddRoute(0, 0, 3) // to the sink
		}
		leaf.Forwarding = p
	}
	for _, spine := range ls.Spines {
		p := &netsim.L3Program{}
		p.AddRoute(0, 0, 2) // toward leaf 2
		spine.Forwarding = p
	}
	r := &wireRun{sim: sim, ls: ls, src: ls.Host(0, 0), sink: ls.Host(1, 0), pkts: pkts}
	if checked {
		atts, err := experiments.AttachAllCheckers(ls)
		if err != nil {
			return nil, err
		}
		if err := experiments.AllowFlows(atts, pairs); err != nil {
			return nil, err
		}
		r.atts = atts
	}
	return r, nil
}

func (r *wireRun) counters() (delivered, rejected, errors uint64) {
	delivered = r.sink.RxUDP + r.sink.RxTCP
	for _, sw := range r.ls.AllSwitches() {
		errors += sw.ParseErrors
	}
	for _, list := range r.atts {
		for _, att := range list {
			rejected += att.Rejected
		}
	}
	return
}

// schedule queues one send event per trace packet at its trace time,
// counted from the simulator's present.
func (r *wireRun) schedule() {
	at := r.sim.Now()
	for i := range r.pkts {
		p := r.pkts[i]
		at += p.Gap
		r.sim.AtNode(r.src, at, func() { r.src.SendPacket(p.Decode()) })
	}
}

func (r *wireRun) rep() (sample, error) {
	r.schedule()
	return r.run(), nil
}

// run drains the scheduled events, timing the simulator only, and
// verifies that every packet reached the sink unrejected. The events
// are drained in windows of simulated time, wireWindow sends each; a
// window's packets are those the sink received during it.
func (r *wireRun) run() sample {
	var s sample
	sunk := func() uint64 { return r.sink.RxUDP + r.sink.RxTCP }
	at, last := r.sim.Now(), sunk()
	watch := startWatch(&s)
	for i := range r.pkts {
		at += r.pkts[i].Gap
		switch {
		case i+1 == len(r.pkts):
			r.sim.RunAll()
		case (i+1)%wireWindow == 0:
			r.sim.Run(at)
		default:
			continue
		}
		watch.lap(sunk() - last)
		last = sunk()
	}
	watch.stop()
	s.packets = uint64(len(r.pkts))

	delivered, rejected, errors := r.counters()
	if got := delivered - r.delivered; got != s.packets {
		s.failed = s.packets - min(got, s.packets)
		s.rule = fmt.Sprintf("%d of %d packets delivered (%d rejected by checkers)", got, s.packets, rejected-r.rejected)
	}
	if d := errors - r.errors; d != 0 && s.rule == "" {
		s.failed = s.packets
		s.rule = fmt.Sprintf("switches counted %d parse or checker execution errors", d)
	}
	r.delivered, r.rejected, r.errors = delivered, rejected, errors
	return s
}

func (r *wireRun) close() {}

// ---------------------------------------------------------------------------
// fleet-campus

// renderCampusPcap renders n campus frames as a classic pcap held in
// memory: the wire form experiments.CampusEnginePackets models, so the
// fleet checks the same work RunFleetReference does.
func renderCampusPcap(n int, seed int64) ([]byte, error) {
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: seed})
	var ts int64
	var frame []byte
	for i := 0; i < n; i++ {
		tp := gen.Next()
		ts += int64(tp.Gap)
		frame = tp.Decode().AppendTo(frame[:0])
		if len(frame) != tp.Size {
			return nil, fmt.Errorf("frame %d renders to %d bytes, the trace says %d", i, len(frame), tp.Size)
		}
		if err := w.WriteFrame(ts, frame); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// pcapSource feeds an in-memory capture to fleet.Ingest.
type pcapSource struct{ r *pcapio.Reader }

func (s pcapSource) Next() ([]byte, error) {
	_, frame, err := s.r.Next()
	return frame, err
}

func (s pcapSource) Close() error { return nil }

// creditTap is a listener whose connections note the time of every
// Credit frame written through them. The worker writes one credit per
// batch it has checked, so from outside the program the credits are the
// moments at which batchSize more packets had their verdicts.
type creditTap struct {
	net.Listener
	mu      sync.Mutex
	credits []time.Time
}

func (l *creditTap) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tappedConn{Conn: c, tap: l}, nil
}

// windows cuts the time between the first credit and the last one for
// a full batch into windows of fleetWindow packets, and returns how many
// credits there were.
func (l *creditTap) windows(packets int) (ws []window, credits int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	const step = fleetWindow / batchSize
	full := min(packets/batchSize, len(l.credits))
	for i := step; i < full; i += step {
		ws = append(ws, window{packets: fleetWindow, wall: l.credits[i].Sub(l.credits[i-step])})
	}
	return ws, len(l.credits)
}

// tappedConn follows the frames in the bytes written to it: magic (4),
// version (1), type (1), payload length (4, big endian), payload,
// CRC (4), as package wireproto documents them.
type tappedConn struct {
	net.Conn
	tap     *creditTap
	pending []byte
}

func (c *tappedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.pending = append(c.pending, p[:n]...)
	for len(c.pending) >= 10 {
		frame := 10 + int(binary.BigEndian.Uint32(c.pending[6:10])) + 4
		if len(c.pending) < frame {
			break
		}
		if c.pending[5] == wireproto.TypeCredit {
			now := time.Now()
			c.tap.mu.Lock()
			c.tap.credits = append(c.tap.credits, now)
			c.tap.mu.Unlock()
		}
		c.pending = c.pending[:copy(c.pending, c.pending[frame:])]
	}
	return n, err
}

// fleetRun runs one session per repetition: pcap reader, ingest, one
// worker and the aggregator, all in this process, joined by loopback
// TCP. A fresh worker and aggregator per session keep each report to
// exactly one session.
type fleetRun struct {
	pcap    []byte
	packets int
	// ref is the parity oracle; nil skips the parity rules (the traced
	// run, which checks conservation only).
	ref *experiments.FleetReference
	// scrape, when set, gives every session one bench-owned registry
	// and receives its Prometheus text when the session ends.
	scrape func(text string)
	// lastStats and lastReport are the ingest's and the aggregator's
	// accounts of the latest session.
	lastStats  fleet.IngestStats
	lastReport fleet.FleetReport
}

func setupFleet(seed int64, n int) (runner, error) {
	pcap, err := renderCampusPcap(n, seed)
	if err != nil {
		return nil, err
	}
	ref, err := experiments.RunFleetReference(n, 1, skipSeedEvery, batchSize, seed)
	if err != nil {
		return nil, err
	}
	if ref.Unaccounted != 0 {
		return nil, fmt.Errorf("fleet reference bus has %d digests unaccounted", ref.Unaccounted)
	}
	return &fleetRun{pcap: pcap, packets: n, ref: &ref}, nil
}

func (r *fleetRun) rep() (s sample, err error) {
	var reg *metrics.Registry
	if r.scrape != nil {
		reg = metrics.NewRegistry()
	}
	aggLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	agg := fleet.NewAgg(fleet.AggConfig{Node: "bench-agg", Metrics: reg})
	aggDone := make(chan struct{})
	go func() { defer close(aggDone); _ = agg.Serve(aggLn) }() // returns the listener's close error
	defer func() { aggLn.Close(); <-aggDone }()

	wk, err := fleet.NewWorker(fleet.WorkerConfig{
		Node:          "bench-worker",
		AggAddr:       aggLn.Addr().String(),
		BuildCheckers: experiments.CorpusCheckers,
		Configure:     experiments.ConfigureReplayEngine,
		BusWindow:     busWindow,
		Metrics:       reg,
	})
	if err != nil {
		return s, err
	}
	if err := wk.Connect(); err != nil {
		return s, err
	}
	defer wk.Close()
	wkLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	tap := &creditTap{Listener: wkLn, credits: make([]time.Time, 0, r.packets/batchSize+1)}
	wkDone := make(chan struct{})
	go func() { defer close(wkDone); _ = wk.Serve(tap) }() // returns the listener's close error
	defer func() { wkLn.Close(); <-wkDone }()

	ing, err := fleet.NewIngest(fleet.IngestConfig{
		Workers:       []string{wkLn.Addr().String()},
		Node:          "bench-ingest",
		PathFor:       experiments.ReplayPathFor,
		BatchSize:     batchSize,
		Window:        ingestWindow,
		Loops:         1,
		SkipSeedEvery: skipSeedEvery,
		Metrics:       reg,
	})
	if err != nil {
		return s, err
	}
	rd, err := pcapio.NewReader(bytes.NewReader(r.pcap))
	if err != nil {
		return s, err
	}

	// The session is timed as a whole; the credits the worker writes
	// give the windows.
	watch := startWatch(&s)
	stats, err := ing.Run(pcapSource{rd})
	if err != nil {
		return s, err
	}
	summarized := agg.WaitSummaries(1, sessionWait)
	s.wall = time.Since(s.start)
	watch.stop()
	var credits int
	s.windows, credits = tap.windows(r.packets)
	if reg != nil {
		var text bytes.Buffer
		if err := reg.WritePrometheus(&text); err != nil {
			return s, err
		}
		r.scrape(text.String())
	}
	r.lastStats, r.lastReport = stats, agg.Report()
	s.packets = uint64(r.packets)
	s.failed, s.rule = r.check(stats, summarized, r.lastReport)
	if want := (r.packets + batchSize - 1) / batchSize; credits != want && s.rule == "" {
		return s, fmt.Errorf("the credit tap saw %d credits for %d checked batches: it no longer follows the worker's frames", credits, want)
	}
	if stats.Reconnects != 0 && s.rule == "" {
		// Ingest's sender waits for FinAck and for a read error in one
		// select; the worker closes the connection right after FinAck,
		// so now and then both are ready and the error wins. Every
		// packet was acknowledged and the one session ended clean, so no
		// operation failed; a reconnect in mid-session opens a second
		// session and breaks the rules above.
		s.note = fmt.Sprintf("ingest counted %d reconnect with every packet acknowledged and one clean session: FinAck and EOF arrived together", stats.Reconnects)
	}
	return s, nil
}

func (r *fleetRun) check(st fleet.IngestStats, summarized bool, rep fleet.FleetReport) (failed uint64, rule string) {
	n := uint64(r.packets)
	whole := func(format string, args ...any) {
		if rule == "" {
			rule = fmt.Sprintf(format, args...)
		}
		failed = n
	}
	if st.Acked != n {
		rule = fmt.Sprintf("ingest got %d of %d packets acknowledged", st.Acked, n)
		failed = n - min(st.Acked, n)
	}
	switch {
	case st.FramesRead != n || st.Packets != n || st.ParseErrors != 0:
		whole("ingest read %d frames, sent %d packets, %d parse errors; the capture holds %d", st.FramesRead, st.Packets, st.ParseErrors, n)
	case len(st.Dropped) != 0:
		whole("ingest dropped %v and reconnected %d times", st.Dropped, st.Reconnects)
	case !summarized:
		whole("aggregator saw no session summary within %s", sessionWait)
	case !rep.Conserved || rep.Unaccounted != 0 || rep.Summarized != 1 || rep.CleanSessions != 1:
		whole("fleet report not conserved: conserved=%t unaccounted=%d summarized=%d clean=%d",
			rep.Conserved, rep.Unaccounted, rep.Summarized, rep.CleanSessions)
	case rep.Counts.Packets != n || rep.Counts.Errors != 0:
		whole("worker counted %d packets and %d execution errors", rep.Counts.Packets, rep.Counts.Errors)
	}
	if r.ref != nil {
		if !reflect.DeepEqual(rep.Verdicts, r.ref.Verdicts) {
			whole("verdict multiset %+v differs from the reference %+v", rep.Verdicts, r.ref.Verdicts)
		}
		if !reflect.DeepEqual(experiments.DigestKeyCounts(rep.Aggregates), r.ref.DigestKeys) {
			whole("digest content-key counts differ from the reference (%d digests received, reference raised %d)",
				rep.ReceivedDigests, r.ref.Counts.Reports)
		}
	}
	return failed, rule
}

func (r *fleetRun) close() {}
