package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/wireproto"
)

// IngestConfig parameterizes the ingest daemon: where the workers are,
// how packets are batched and flow-controlled, and how the capture is
// turned into verification work.
type IngestConfig struct {
	// Workers are the engine worker addresses. Packets are assigned by
	// RSS hash of the 5-tuple, so both directions of a flow — which the
	// stateful firewall correlates — always land on one worker.
	Workers []string
	// Node names this ingest point in Hello frames.
	Node string
	// PathFor maps a flow to the hop sequence it takes through the
	// fabric (the ECMP choice). Required.
	PathFor func(dataplane.FlowKey) []engine.Hop
	// BatchSize is packets per wire batch (default 256, capped at
	// wireproto.MaxBatchPackets).
	BatchSize int
	// Window is the per-worker send window in unacknowledged batches
	// (default 8): the explicit backpressure bound between ingest and a
	// slow worker.
	Window int
	// QueueDepth is the batches buffered between the dispatcher and each
	// worker sender (default 4).
	QueueDepth int
	// Loops replays the capture this many times (default 1).
	Loops int
	// SkipSeedEvery, when > 0, omits every SkipSeedEvery-th unique flow
	// pair from the firewall seed — deterministic violation injection, so
	// fleet runs raise a non-trivial digest stream to conserve.
	SkipSeedEvery int
	// DialRetries bounds connection attempts per (re)connect (default
	// 40); BackoffBase is the initial retry delay (default 50ms),
	// doubling up to BackoffMax (default 2s).
	DialRetries int
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DropAfter, when > 0, bounds how long a sender blocks on a full
	// credit window before dropping the batch (accounted as
	// "backpressure"). 0 blocks indefinitely — lossless mode.
	DropAfter time.Duration
	// Metrics, when set, receives the ingest instrumentation.
	Metrics *metrics.Registry
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// WorkerLink is one worker connection's final accounting.
type WorkerLink struct {
	Addr       string            `json:"addr"`
	Assigned   uint64            `json:"assigned"`
	Acked      uint64            `json:"acked"`
	Dropped    map[string]uint64 `json:"dropped,omitempty"`
	Reconnects uint64            `json:"reconnects"`
	Error      string            `json:"error,omitempty"`
}

// IngestStats is the ingest daemon's end-of-run report. In a clean run
// (no reconnects, no drops) Assigned == Acked on every link; every
// shortfall is itemized under Dropped.
type IngestStats struct {
	FramesRead   uint64            `json:"frames_read"`
	ParseErrors  uint64            `json:"parse_errors"`
	Loops        int               `json:"loops"`
	SeededPairs  int               `json:"seeded_pairs"`
	SkippedPairs int               `json:"skipped_pairs"`
	Packets      uint64            `json:"packets"`
	Acked        uint64            `json:"acked"`
	Dropped      map[string]uint64 `json:"dropped,omitempty"`
	Reconnects   uint64            `json:"reconnects"`
	Workers      []WorkerLink      `json:"workers"`
	// The capture scan, and Hello + seed summed over every connection.
	ScanSeconds      float64 `json:"scan_seconds"`
	HandshakeSeconds float64 `json:"handshake_seconds"`
}

// FilterSeedPairs returns pairs with every skipEvery-th entry omitted
// (skipEvery <= 0 keeps everything). Ingest and the in-process
// reference both run it, so fleet and reference seed identical state.
func FilterSeedPairs(pairs [][2]uint32, skipEvery int) (kept [][2]uint32, skipped int) {
	if skipEvery <= 0 {
		return pairs, 0
	}
	kept = make([][2]uint32, 0, len(pairs))
	for i, p := range pairs {
		if (i+1)%skipEvery == 0 {
			skipped++
			continue
		}
		kept = append(kept, p)
	}
	return kept, skipped
}

// Ingest is the fan-out daemon: it scans a capture for its flow keys and
// the firewall seed set, then streams the packets — each pinned to its
// fabric path as its batch fills — as binary packet batches to the
// worker fleet under per-worker credit windows.
type Ingest struct {
	cfg  IngestConfig
	stop atomic.Bool
	// stopc is closed once by Stop, for a sender waiting between dials.
	stopc    chan struct{}
	stopOnce sync.Once
	started  time.Time

	mFrames    *metrics.Counter
	mPPS       *metrics.Gauge
	mSend      *metrics.Histogram
	mScan      *metrics.Histogram
	mHandshake *metrics.Histogram
}

// NewIngest validates the config and builds the daemon.
func NewIngest(cfg IngestConfig) (*Ingest, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: ingest needs at least one worker")
	}
	if cfg.PathFor == nil {
		return nil, errors.New("fleet: ingest needs a PathFor fabric model")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.BatchSize > wireproto.MaxBatchPackets {
		cfg.BatchSize = wireproto.MaxBatchPackets
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4
	}
	if cfg.Loops <= 0 {
		cfg.Loops = 1
	}
	if cfg.DialRetries <= 0 {
		cfg.DialRetries = defaultDialRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = defaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = defaultBackoffMax
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	in := &Ingest{cfg: cfg, stopc: make(chan struct{})}
	reg := cfg.Metrics
	in.mFrames = reg.Counter("hydra_ingest_frames_total", "Frames read from the capture source.", nil)
	in.mPPS = reg.Gauge("hydra_ingest_pps", "Smoothed acknowledged packets per second.", nil)
	in.mSend = reg.Histogram("hydra_ingest_send_seconds", "Wall time writing one batch frame.", nil, nil)
	in.mScan = reg.Histogram("hydra_ingest_scan_seconds", "Wall time scanning the capture before a session.", nil, nil)
	in.mHandshake = reg.Histogram("hydra_ingest_handshake_seconds", "Wall time writing Hello and the firewall seed on one connection.", nil, nil)
	return in, nil
}

// Stop asks a running Run to finish early: the scan stops at the next
// frame, the dispatcher after the current batch, and the senders drain
// and Fin normally — a sender backing off between dials gives up, and
// what it was assigned is accounted failed.
func (in *Ingest) Stop() {
	in.stop.Store(true)
	in.stopOnce.Do(func() { close(in.stopc) })
}

// rec is one scanned capture record: its flow, its wire length and the
// worker the flow is pinned to.
type rec struct {
	key    dataplane.FlowKey
	len    uint32
	worker int32
}

// batch is one wire batch's storage: the packets, and the slab their
// hops are cut from once it is full. sender.free brings it back emptied.
type batch struct {
	pkts []wireproto.Packet
	hops []wireproto.Hop
}

// Run replays the source through the fleet and returns the accounting.
func (in *Ingest) Run(src Source) (IngestStats, error) {
	stats := IngestStats{Loops: in.cfg.Loops, Dropped: map[string]uint64{}}
	start := time.Now()
	recs, pairs, err := in.load(src, &stats)
	if err != nil {
		return stats, err
	}
	stats.ScanSeconds = time.Since(start).Seconds()
	in.mScan.Observe(stats.ScanSeconds)
	seedPairs, skipped := FilterSeedPairs(pairs, in.cfg.SkipSeedEvery)
	stats.SeededPairs = len(seedPairs)
	stats.SkippedPairs = skipped
	in.cfg.Logf("ingest: %d frames, %d flows seeded (%d skipped), %d workers",
		len(recs), len(seedPairs), skipped, len(in.cfg.Workers))

	in.started = time.Now()
	senders := make([]*sender, len(in.cfg.Workers))
	var wg sync.WaitGroup
	for i, addr := range in.cfg.Workers {
		senders[i] = newSender(in, i, addr, seedPairs, uint64(len(recs)*in.cfg.Loops))
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			s.run()
		}(senders[i])
	}
	ppsDone := make(chan struct{})
	go in.trackPPS(ppsDone, senders)

	stats.Packets = in.dispatch(recs, senders)
	for _, s := range senders {
		close(s.queue)
	}
	wg.Wait()
	close(ppsDone)

	stats.HandshakeSeconds = in.mHandshake.Sum()
	for _, s := range senders {
		link := s.link()
		stats.Acked += link.Acked
		stats.Reconnects += link.Reconnects
		for k, v := range link.Dropped {
			stats.Dropped[k] += v
		}
		stats.Workers = append(stats.Workers, link)
	}
	if len(stats.Dropped) == 0 {
		stats.Dropped = nil
	}
	return stats, nil
}

// dispatch replays the records to the senders in capture order, Loops
// times over, and returns the packets queued. A packet is pinned to its
// path as its batch fills — beside the workers' install and checking,
// not ahead of the session — into storage its sender hands back.
func (in *Ingest) dispatch(recs []rec, senders []*sender) (packets uint64) {
	pending := make([]batch, len(senders))
	flush := func(w int32) {
		b := &pending[w]
		off := 0
		for i := range b.pkts { // the slab has stopped moving
			end := off + len(b.pkts[i].Hops)
			b.pkts[i].Hops = b.hops[off:end:end]
			off = end
		}
		senders[w].queue <- *b
		packets += uint64(len(b.pkts))
		select {
		case *b = <-senders[w].free:
		default:
			*b = batch{}
		}
	}
dispatch:
	for loop := 0; loop < in.cfg.Loops; loop++ {
		for i := range recs {
			if in.stop.Load() {
				break dispatch
			}
			r := &recs[i]
			b := &pending[r.worker]
			start := len(b.hops)
			for _, h := range in.cfg.PathFor(r.key) {
				b.hops = append(b.hops, wireproto.Hop{Switch: h.SwitchID, In: h.InPort, Out: h.OutPort})
			}
			b.pkts = append(b.pkts, wireproto.Packet{
				Src: uint32(r.key.Src), Dst: uint32(r.key.Dst),
				Sport: r.key.Sport, Dport: r.key.Dport, Proto: r.key.Proto,
				Len:  r.len,
				Hops: b.hops[start:], // re-cut by flush: the slab may still move
			})
			if len(b.pkts) >= in.cfg.BatchSize {
				flush(r.worker)
			}
		}
	}
	for w := range pending {
		if len(pending[w].pkts) > 0 {
			flush(int32(w))
		}
	}
	return packets
}

// load scans the capture to its end, or to the frame at which Stop was
// called — a live source has no end: every frame is parsed to its
// 5-tuple and pinned to a worker, and the unique (src, dst) pairs are
// collected in first-occurrence order for the firewall seed.
func (in *Ingest) load(src Source, stats *IngestStats) ([]rec, [][2]uint32, error) {
	var (
		recs  []rec
		pairs [][2]uint32
		seen  = map[[2]uint32]bool{}
		dec   dataplane.Decoded
	)
	nWorkers := uint32(len(in.cfg.Workers))
	for !in.stop.Load() {
		frame, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: reading capture: %w", err)
		}
		stats.FramesRead++
		in.mFrames.Inc()
		if err := dataplane.ParseInto(&dec, frame); err != nil {
			stats.ParseErrors++
			continue
		}
		key := dataplane.FlowKeyOf(&dec)
		// With one worker the hash's remainder is 0 whatever it is, and
		// the scan is on the session's critical path: skip the hash.
		var worker int32
		if nWorkers > 1 {
			worker = int32(key.RSSHash() % nWorkers)
		}
		recs = append(recs, rec{key: key, len: uint32(len(frame)), worker: worker})
		pair := [2]uint32{uint32(key.Src), uint32(key.Dst)}
		if !seen[pair] {
			seen[pair] = true
			pairs = append(pairs, pair)
		}
	}
	return recs, pairs, nil
}

// trackPPS refreshes the smoothed throughput gauge once a second from
// the senders' acknowledged-packet counters.
func (in *Ingest) trackPPS(done chan struct{}, senders []*sender) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	var last uint64
	for {
		select {
		case <-done:
			return
		case <-t.C:
			var cur uint64
			for _, s := range senders {
				cur += s.mAcked.Value()
			}
			in.mPPS.Set(float64(cur - last))
			last = cur
		}
	}
}

// ---------------------------------------------------------------------------
// Per-worker sender

// connState is one live connection to a worker; each (re)connect gets a
// fresh channel set so stale credits from a dead connection can never
// open the new connection's window.
type connState struct {
	conn    net.Conn
	w       *wireproto.Writer
	creditc chan uint64
	finackc chan FinAck
	errc    chan error
}

// sender owns one worker link: connection lifecycle (dial, seed replay,
// reconnect with backoff), the bounded credit window, and the drop
// ledger, which is its metrics counters. All other mutable state is
// confined to the sender goroutine.
type sender struct {
	in    *Ingest
	idx   int
	addr  string
	queue chan batch
	// free returns emptied batches to the dispatcher: one filling,
	// QueueDepth queued, one being sent — QueueDepth+2 slots never block.
	free chan batch
	seed [][2]uint32

	cs              *connState
	outstanding     int
	outstandingPkts uint64
	// outGauge mirrors outstandingPkts for the scrape-time gauge (the
	// canonical value is sender-goroutine-confined).
	outGauge atomic.Uint64
	scratch  []byte

	assigned atomic.Uint64
	err      error

	mSent   *metrics.Counter
	mAcked  *metrics.Counter
	mDrops  map[string]*metrics.Counter
	mReconn *metrics.Counter
}

const finTimeout = 60 * time.Second

var errCreditTimeout = errors.New("fleet: timed out waiting for worker credits")

func newSender(in *Ingest, idx int, addr string, seed [][2]uint32, expect uint64) *sender {
	s := &sender{
		in:     in,
		idx:    idx,
		addr:   addr,
		queue:  make(chan batch, in.cfg.QueueDepth),
		free:   make(chan batch, in.cfg.QueueDepth+2),
		seed:   seed,
		mDrops: map[string]*metrics.Counter{},
	}
	w := fmt.Sprintf("%d", idx)
	reg := in.cfg.Metrics
	s.mSent = reg.Counter("hydra_ingest_packets_sent_total", "Packets fanned out to engine workers.", metrics.Labels{"worker": w})
	s.mAcked = reg.Counter("hydra_ingest_packets_acked_total", "Packets acknowledged by worker credits.", metrics.Labels{"worker": w})
	s.mReconn = reg.Counter("hydra_ingest_reconnects_total", "Worker connection re-establishments.", metrics.Labels{"worker": w})
	for _, reason := range []string{"backpressure", "reconnect", "failed"} {
		s.mDrops[reason] = reg.Counter("hydra_ingest_drops_total", "Packets dropped instead of delivered.", metrics.Labels{"reason": reason, "worker": w})
	}
	reg.GaugeFunc("hydra_ingest_queue_depth", "Batches queued per worker sender.", metrics.Labels{"worker": w},
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("hydra_ingest_window_outstanding", "Unacknowledged packets in the credit window.", metrics.Labels{"worker": w},
		func() float64 { return float64(s.outGauge.Load()) })
	return s
}

// run opens the session at once — the seed is on the wire while the
// first batch fills — and an unreachable worker fails every batch.
func (s *sender) run() {
	s.connect()
	for b := range s.queue {
		s.assigned.Add(uint64(len(b.pkts)))
		s.sendBatch(b.pkts)
		s.free <- batch{pkts: b.pkts[:0], hops: b.hops[:0]}
	}
	s.finish()
	if s.cs != nil {
		s.cs.conn.Close()
		s.cs = nil
	}
}

func (s *sender) drop(reason string, n uint64) { s.mDrops[reason].Add(n) }

func (s *sender) sendBatch(pkts []wireproto.Packet) {
	n := uint64(len(pkts))
	if s.err != nil {
		s.drop("failed", n)
		return
	}
	if s.cs == nil && !s.connect() {
		s.drop("failed", n)
		return
	}
	if !s.waitWindow() {
		if s.cs == nil {
			// Connection died while waiting; the batch rides to the next
			// session if we can reconnect.
			if !s.connect() {
				s.drop("failed", n)
				return
			}
		} else {
			// DropAfter expired with the window still full.
			s.drop("backpressure", n)
			return
		}
	}
	payload, err := wireproto.AppendPacketBatch(s.scratch[:0], pkts)
	if err != nil {
		s.drop("failed", n)
		return
	}
	s.scratch = payload
	start := time.Now()
	if err := s.cs.w.WriteFrame(wireproto.TypePacketBatch, payload); err != nil {
		// At-most-once: the batch is not retried on a fresh session, it is
		// accounted lost alongside the window's in-flight packets.
		s.onConnError(err)
		s.drop("reconnect", n)
		return
	}
	s.in.mSend.Observe(time.Since(start).Seconds())
	s.outstanding++
	s.outstandingPkts += n
	s.outGauge.Store(s.outstandingPkts)
	s.mSent.Add(n)
}

// waitWindow blocks until the credit window has room. It returns false
// when the wait ended without room: either the connection died
// (s.cs == nil afterwards) or DropAfter expired (s.cs still set).
func (s *sender) waitWindow() bool {
	if s.outstanding < s.in.cfg.Window {
		return true
	}
	var timeout <-chan time.Time
	if s.in.cfg.DropAfter > 0 {
		t := time.NewTimer(s.in.cfg.DropAfter)
		defer t.Stop()
		timeout = t.C
	}
	for s.outstanding >= s.in.cfg.Window {
		select {
		case n := <-s.cs.creditc:
			s.credit(n)
		case err := <-s.cs.errc:
			s.onConnError(err)
			return false
		case <-timeout:
			return false
		}
	}
	return true
}

func (s *sender) credit(n uint64) {
	s.outstanding--
	if n > s.outstandingPkts {
		n = s.outstandingPkts
	}
	s.outstandingPkts -= n
	s.outGauge.Store(s.outstandingPkts)
	s.mAcked.Add(n)
}

// onConnError tears the connection down and accounts every in-flight
// packet as lost to the reconnect.
func (s *sender) onConnError(err error) {
	s.in.cfg.Logf("ingest: worker %d (%s) connection lost: %v", s.idx, s.addr, err)
	if s.cs != nil {
		s.cs.conn.Close()
		s.cs = nil
	}
	if s.outstandingPkts > 0 {
		s.drop("reconnect", s.outstandingPkts)
	}
	s.outstanding = 0
	s.outstandingPkts = 0
	s.outGauge.Store(0)
	s.mReconn.Inc()
}

// connect dials the worker with exponential backoff and replays the
// handshake: Hello, then the firewall seed in bounded chunks. A worker
// that restarts rebuilds identical control state from the re-sent seed.
func (s *sender) connect() bool {
	cfg := &s.in.cfg
	attempts, err := dialBackoff(s.addr, cfg.DialRetries, cfg.BackoffBase, cfg.BackoffMax, s.in.stopc,
		func(conn net.Conn) error {
			cs := &connState{
				conn:    conn,
				w:       wireproto.NewWriter(conn),
				creditc: make(chan uint64, 2*cfg.Window+16),
				finackc: make(chan FinAck, 1),
				errc:    make(chan error, 1),
			}
			start := time.Now()
			if err := s.handshake(cs); err != nil {
				return err
			}
			s.in.mHandshake.Observe(time.Since(start).Seconds())
			go readLoop(cs)
			s.cs = cs
			return nil
		})
	if err == nil {
		return true
	}
	s.err = fmt.Errorf("fleet: worker %d (%s) unreachable after %d attempts: %w", s.idx, s.addr, attempts, err)
	cfg.Logf("ingest: %v", s.err)
	return false
}

// handshake opens a session: Hello, then the firewall seed set — the
// flow pairs the replay's control plane allowed before traffic started,
// derived from the scan — in chunks of at most
// wireproto.MaxSeedPairs, the last marked done. It is replayed on every
// (re)connect, so a restarted worker rebuilds the same control state.
func (s *sender) handshake(cs *connState) error {
	if err := writeJSON(cs.w, wireproto.TypeHello, Hello{Node: s.in.cfg.Node}); err != nil {
		return err
	}
	var buf []byte
	for pairs := s.seed; ; {
		chunk := pairs[:min(len(pairs), wireproto.MaxSeedPairs)]
		pairs = pairs[len(chunk):]
		var err error
		if buf, err = wireproto.AppendSeed(buf[:0], chunk, len(pairs) == 0); err != nil {
			return err
		}
		if err := cs.w.WriteFrame(wireproto.TypeSeed, buf); err != nil {
			return err
		}
		if len(pairs) == 0 {
			return nil
		}
	}
}

// readLoop is the per-connection reader: credits and the final FinAck
// route to the sender; the first error ends the loop.
func readLoop(cs *connState) {
	r := wireproto.NewReader(cs.conn)
	for {
		f, err := r.ReadFrame()
		if err != nil {
			cs.errc <- err
			return
		}
		switch f.Type {
		case wireproto.TypeCredit:
			n, err := wireproto.DecodeCredit(f.Payload)
			if err != nil {
				f.Release()
				cs.errc <- err
				return
			}
			cs.creditc <- uint64(n)
		case wireproto.TypeFinAck:
			var ack FinAck
			if err := decodeJSON(&f, &ack); err == nil {
				cs.finackc <- ack
			}
		}
		f.Release()
	}
}

// finish drains the window, sends Fin, and waits for the worker's
// FinAck — the orderly end of a session. A connection lost on the way is
// reopened through connect, as sendBatch does, and the Fin goes to the
// new session: a worker restarted after the last batch still gets its
// session (Hello, seed, Fin) and summarizes it. Packets in flight on the
// lost connection stay accounted as reconnect drops. Every wait on the
// worker shares one finTimeout deadline.
func (s *sender) finish() {
	deadline := time.NewTimer(finTimeout)
	defer deadline.Stop()
	for s.err == nil {
		if s.cs == nil && !s.connect() {
			return
		}
		if s.endSession(deadline.C) {
			return
		}
	}
}

// endSession runs one attempt at the end of the session on s.cs. It
// reports false when the connection was lost before the FinAck, so the
// caller reconnects; true when the session ended or the deadline fired.
func (s *sender) endSession(deadline <-chan time.Time) bool {
	for s.outstanding > 0 {
		select {
		case n := <-s.cs.creditc:
			s.credit(n)
		case err := <-s.cs.errc:
			s.onConnError(err)
			return false
		case <-deadline:
			s.onConnError(errCreditTimeout)
			return true
		}
	}
	if err := s.cs.w.WriteFrame(wireproto.TypeFin, nil); err != nil {
		s.onConnError(err)
		return false
	}
	for {
		select {
		case n := <-s.cs.creditc:
			s.credit(n)
		case <-s.cs.finackc:
			return true
		case err := <-s.cs.errc:
			// The worker closes right after FinAck, and readLoop hands
			// over the FinAck before the EOF that follows it: when both
			// are ready and select picked the error, the session still
			// ended in order.
			select {
			case <-s.cs.finackc:
				return true
			default:
			}
			s.onConnError(err)
			return false
		case <-deadline:
			s.onConnError(errCreditTimeout)
			return true
		}
	}
}

// link snapshots the sender's accounting after run returns: what its
// metrics counters say, reasons with no drop left out.
func (s *sender) link() WorkerLink {
	l := WorkerLink{
		Addr:       s.addr,
		Assigned:   s.assigned.Load(),
		Acked:      s.mAcked.Value(),
		Reconnects: s.mReconn.Value(),
	}
	for reason, c := range s.mDrops {
		if n := c.Value(); n > 0 {
			if l.Dropped == nil {
				l.Dropped = map[string]uint64{}
			}
			l.Dropped[reason] = n
		}
	}
	if s.err != nil {
		l.Error = s.err.Error()
	}
	return l
}
