package fleet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
	"repro/internal/wireproto"
)

// WorkerConfig parameterizes one engine worker process.
type WorkerConfig struct {
	// Node names this worker in Hello and Summary frames.
	Node string
	// AggAddr is the aggregator to federate digests to; empty runs the
	// worker standalone (digests aggregate locally and are dropped at
	// the exporter boundary, but conservation accounting still holds).
	AggAddr string
	// BuildCheckers compiles the checker set for a new session's engine.
	BuildCheckers func() ([]engine.Checker, error)
	// Configure installs control state into a fresh engine: the benign
	// fabric tables plus the firewall seed pairs the ingest sent ahead of
	// the session's first packet.
	Configure func(install func(checker string, switchID uint32, fn func(*pipeline.State) error) error, pairs [][2]uint32) error
	// BusWindow is the report-bus aggregation window (default 5ms).
	BusWindow time.Duration
	// Metrics, when set, receives the worker instrumentation.
	Metrics *metrics.Registry
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Worker is the engine daemon: it accepts one ingest session at a
// time, wraps the batched bytecode engine around each, and federates
// every digest window plus a final conservation Summary to the
// aggregator.
type Worker struct {
	cfg    WorkerConfig
	agg    *aggLink
	active atomic.Int64

	mSessions *metrics.Counter
	mBatches  *metrics.Counter
	mPackets  *metrics.Counter
	mBatchLen *metrics.Histogram
	mBatchSec *metrics.Histogram
	mDigests  *metrics.Counter
	mInstall  *metrics.Histogram
}

// NewWorker validates the config and builds the daemon.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.BuildCheckers == nil || cfg.Configure == nil {
		return nil, errors.New("fleet: worker needs BuildCheckers and Configure")
	}
	if cfg.BusWindow <= 0 {
		cfg.BusWindow = 5 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	w := &Worker{cfg: cfg}
	reg := cfg.Metrics
	w.mSessions = reg.Counter("hydra_worker_sessions_total", "Ingest sessions accepted.", nil)
	w.mBatches = reg.Counter("hydra_worker_batches_total", "Packet batches checked.", nil)
	w.mPackets = reg.Counter("hydra_worker_packets_total", "Packets checked.", nil)
	w.mBatchLen = reg.Histogram("hydra_worker_batch_packets", "Packets per received batch.",
		[]float64{1, 16, 64, 256, 1024, 4096}, nil)
	w.mBatchSec = reg.Histogram("hydra_worker_batch_seconds", "Wall time checking one batch.", nil, nil)
	w.mDigests = reg.Counter("hydra_worker_digests_published_total", "Violation digests raised into the report bus.", nil)
	w.mInstall = reg.Histogram("hydra_worker_session_install_seconds", "Wall time building and seeding one session's engine.", nil, nil)
	reg.GaugeFunc("hydra_worker_session_active", "Whether an ingest session is live.", nil,
		func() float64 { return float64(w.active.Load()) })
	return w, nil
}

// Connect dials the aggregator (when configured) with backoff and
// identifies this worker. Call before Serve.
func (w *Worker) Connect() error {
	if w.cfg.AggAddr == "" {
		return nil
	}
	_, err := dialBackoff(w.cfg.AggAddr, defaultDialRetries, defaultBackoffBase, defaultBackoffMax, nil,
		func(conn net.Conn) error {
			link := &aggLink{conn: conn, w: wireproto.NewWriter(conn), logf: w.cfg.Logf}
			if err := link.send(wireproto.TypeHello, Hello{Node: w.cfg.Node}); err != nil {
				return err
			}
			w.agg = link
			return nil
		})
	if err != nil {
		return fmt.Errorf("fleet: aggregator %s unreachable: %w", w.cfg.AggAddr, err)
	}
	return nil
}

// Close tears down the aggregator link.
func (w *Worker) Close() {
	if w.agg != nil {
		w.agg.close()
	}
}

// Serve accepts ingest sessions until the listener closes. Sessions
// are handled sequentially — each owns the process's engine capacity.
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if err := w.handle(conn); err != nil {
			w.cfg.Logf("worker: session ended with error: %v", err)
		}
		conn.Close()
	}
}

// sessionCtr is process-global so multiple Workers embedded in one
// process (tests, single-binary deployments) never mint the same ID.
var sessionCtr atomic.Uint64

// newSessionID mints a fleet-unique session identifier: the PID keys
// the incarnation (a restarted worker must not collide with its
// predecessor's sessions at the aggregator), the counter keys the
// session within it.
func (w *Worker) newSessionID() uint64 {
	return uint64(os.Getpid())<<20 | sessionCtr.Add(1)
}

// session is the per-connection engine wrapper.
type session struct {
	w        *Worker
	id       uint64
	seq      *engine.Sequential
	bus      *reportbus.Bus
	verdicts []engine.Verdict // scratch, indexed per batch
	multiset map[engine.Verdict]uint64
	// decode and credit scratch, reused across batches
	pkts   []engine.Packet
	arena  []engine.Hop
	offs   [][2]int
	credit []byte
}

func (w *Worker) handle(conn net.Conn) error {
	w.mSessions.Inc()
	w.active.Store(1)
	defer w.active.Store(0)
	r := wireproto.NewReader(conn)
	wr := wireproto.NewWriter(conn)

	var hello Hello
	f, err := r.ReadFrame()
	if err != nil {
		return fmt.Errorf("fleet: reading hello: %w", err)
	}
	if f.Type != wireproto.TypeHello {
		f.Release()
		return fmt.Errorf("fleet: expected hello, got frame type %d", f.Type)
	}
	err = decodeJSON(&f, &hello)
	f.Release()
	if err != nil {
		return err
	}

	pairs, err := readSeed(r)
	if err != nil {
		return err
	}
	start := time.Now()
	s, err := w.newSession(pairs)
	if err != nil {
		return err
	}
	w.mInstall.Observe(time.Since(start).Seconds())
	w.cfg.Logf("worker: session %d from %s (%s): %d seed pairs", s.id, hello.Node, conn.RemoteAddr(), len(pairs))

	clean, runErr := s.run(r, wr)
	s.bus.Close()
	summary := s.summary(clean)
	if w.agg != nil {
		if err := w.agg.send(wireproto.TypeSummary, summary); err != nil {
			w.cfg.Logf("worker: summary upload failed: %v", err)
		}
	}
	if clean {
		if err := writeJSON(wr, wireproto.TypeFinAck, FinAck{Processed: summary.Counts.Packets}); err != nil {
			return err
		}
	}
	return runErr
}

// readSeed accumulates the chunked firewall seed until the Done chunk.
func readSeed(r *wireproto.Reader) ([][2]uint32, error) {
	var pairs [][2]uint32
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return nil, fmt.Errorf("fleet: reading seed: %w", err)
		}
		if f.Type != wireproto.TypeSeed {
			f.Release()
			return nil, fmt.Errorf("fleet: expected seed, got frame type %d", f.Type)
		}
		chunk, done, err := wireproto.DecodeSeed(f.Payload)
		f.Release()
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, chunk...)
		if done {
			return pairs, nil
		}
	}
}

// newSession builds a fresh engine + report bus seeded with the
// session's control state.
func (w *Worker) newSession(pairs [][2]uint32) (*session, error) {
	chks, err := w.cfg.BuildCheckers()
	if err != nil {
		return nil, err
	}
	for _, c := range chks {
		// The engine refuses such a checker with a panic; a worker
		// returns the error to its session instead.
		if err := c.RT.VMErr(); err != nil {
			return nil, fmt.Errorf("fleet: checker %s has no VM form: %w", c.Name, err)
		}
	}
	s := &session{
		w:        w,
		id:       w.newSessionID(),
		verdicts: make([]engine.Verdict, wireproto.MaxBatchPackets),
		multiset: map[engine.Verdict]uint64{},
	}
	var exporters []reportbus.Exporter
	if w.agg != nil {
		exporters = append(exporters, &aggForwarder{link: w.agg, session: s.id})
	}
	s.bus = reportbus.New(reportbus.Config{Window: w.cfg.BusWindow, Exporters: exporters})
	s.seq = engine.NewSequential(engine.Config{
		Checkers:  chks,
		Verdicts:  s.verdicts,
		ReportBus: s.bus,
	})
	if err := w.cfg.Configure(s.seq.Install, pairs); err != nil {
		return nil, err
	}
	s.seq.Warm()
	s.bus.Start()
	return s, nil
}

// run is the session hot loop: batches in, credits out. clean reports
// whether the session ended with an orderly Fin.
func (s *session) run(r *wireproto.Reader, wr *wireproto.Writer) (clean bool, err error) {
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return false, fmt.Errorf("fleet: session %d stream broke: %w", s.id, err)
		}
		switch f.Type {
		case wireproto.TypePacketBatch:
			n, perr := s.processBatch(f.Payload)
			f.Release()
			if perr != nil {
				return false, perr
			}
			s.credit = wireproto.AppendCredit(s.credit[:0], uint32(n))
			if cerr := wr.WriteFrame(wireproto.TypeCredit, s.credit); cerr != nil {
				return false, fmt.Errorf("fleet: session %d credit: %w", s.id, cerr)
			}
		case wireproto.TypeFin:
			f.Release()
			return true, nil
		default:
			typ := f.Type
			f.Release()
			return false, fmt.Errorf("fleet: session %d: unexpected frame type %d", s.id, typ)
		}
	}
}

// processBatch decodes one wire batch into engine packets (hop storage
// in a per-batch arena) and runs it through the batched engine path.
func (s *session) processBatch(payload []byte) (int, error) {
	var d wireproto.BatchDecoder
	if err := d.Reset(payload); err != nil {
		return 0, err
	}
	s.pkts = s.pkts[:0]
	s.arena = s.arena[:0]
	s.offs = s.offs[:0]
	for {
		p, err := d.Next()
		if err != nil {
			return 0, err
		}
		if p == nil {
			break
		}
		i := len(s.pkts)
		if i >= len(s.verdicts) {
			return 0, fmt.Errorf("fleet: batch exceeds %d packets", len(s.verdicts))
		}
		off := len(s.arena)
		for _, h := range p.Hops {
			s.arena = append(s.arena, engine.Hop{SwitchID: h.Switch, InPort: h.In, OutPort: h.Out})
		}
		s.offs = append(s.offs, [2]int{off, len(s.arena)})
		s.pkts = append(s.pkts, engine.Packet{
			Key: dataplane.FlowKey{
				Src: dataplane.IP4(p.Src), Dst: dataplane.IP4(p.Dst),
				Proto: p.Proto, Sport: p.Sport, Dport: p.Dport,
			},
			Len:   p.Len,
			Index: int32(i),
		})
	}
	// Hop slices are taken only after the arena stopped growing — an
	// append-time subslice could alias a stale backing array.
	for i := range s.pkts {
		s.pkts[i].Hops = s.arena[s.offs[i][0]:s.offs[i][1]]
	}
	start := time.Now()
	s.seq.ProcessBatch(s.pkts)
	s.w.mBatchSec.Observe(time.Since(start).Seconds())
	for i := range s.pkts {
		s.multiset[s.verdicts[i]]++
		if n := s.verdicts[i].Reports; n > 0 {
			s.w.mDigests.Add(uint64(n))
		}
	}
	s.w.mBatches.Inc()
	s.w.mPackets.Add(uint64(len(s.pkts)))
	s.w.mBatchLen.Observe(float64(len(s.pkts)))
	return len(s.pkts), nil
}

func (s *session) summary(clean bool) Summary {
	return Summary{
		Session:  s.id,
		Node:     s.w.cfg.Node,
		Counts:   s.seq.Counts(),
		Bus:      s.bus.Metrics(),
		Verdicts: verdictCountsOf(s.multiset),
		Clean:    clean,
	}
}

// verdictCountsOf renders a verdict multiset in canonical sorted form.
func verdictCountsOf(m map[engine.Verdict]uint64) []VerdictCount {
	out := make([]VerdictCount, 0, len(m))
	for v, n := range m {
		out = append(out, VerdictCount{Reject: v.Reject, Reports: v.Reports, Count: n})
	}
	sortVerdictCounts(out)
	return out
}

func sortVerdictCounts(vs []VerdictCount) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Reject != vs[j].Reject {
			return !vs[i].Reject
		}
		return vs[i].Reports < vs[j].Reports
	})
}

// VerdictCountsOf folds per-packet verdicts into the canonical sorted
// multiset form the fleet compares across processes.
func VerdictCountsOf(vs []engine.Verdict) []VerdictCount {
	m := make(map[engine.Verdict]uint64, 8)
	for _, v := range vs {
		m[v]++
	}
	return verdictCountsOf(m)
}

// MergeVerdictCounts merges multisets into one canonical multiset.
func MergeVerdictCounts(sets ...[]VerdictCount) []VerdictCount {
	m := map[engine.Verdict]uint64{}
	for _, set := range sets {
		for _, vc := range set {
			m[engine.Verdict{Reject: vc.Reject, Reports: vc.Reports}] += vc.Count
		}
	}
	return verdictCountsOf(m)
}

// ---------------------------------------------------------------------------
// Aggregator uplink

// aggLink is the process-wide connection to the aggregator. Sends come
// from the session goroutine (Summary) and the report-bus
// collector goroutine (AggBatch) concurrently, so the writer is
// mutex-guarded.
type aggLink struct {
	mu     sync.Mutex
	conn   net.Conn
	w      *wireproto.Writer
	broken bool
	logf   func(string, ...any)
}

func (a *aggLink) send(typ byte, msg any) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.broken {
		return errors.New("fleet: aggregator link broken")
	}
	if err := writeJSON(a.w, typ, msg); err != nil {
		a.broken = true
		return err
	}
	return nil
}

func (a *aggLink) close() {
	a.mu.Lock()
	a.broken = true
	a.mu.Unlock()
	a.conn.Close()
}

// aggForwarder bridges the report bus to the aggregator: every closed
// window's aggregates ship upstream tagged with the session.
type aggForwarder struct {
	link    *aggLink
	session uint64
}

// ExportAggregates implements reportbus.Exporter.
func (f *aggForwarder) ExportAggregates(aggs []reportbus.Aggregate) {
	if err := f.link.send(wireproto.TypeAggBatch, AggBatch{Session: f.session, Aggs: aggs}); err != nil {
		f.link.logf("worker: aggregate upload failed: %v", err)
	}
}
