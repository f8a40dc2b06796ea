package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
	"repro/internal/trafficgen"
	"repro/internal/wireproto"
)

// ---------------------------------------------------------------------------
// Helpers

// campusFrames renders n campus-trace packets to wire form.
func campusFrames(n int) [][]byte {
	gen := trafficgen.NewCampus(trafficgen.CampusConfig{Seed: 7})
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = gen.Next().Decode().AppendTo(nil)
	}
	return frames
}

// memSource replays in-memory frames as a capture Source.
type memSource struct {
	frames [][]byte
	i      int
}

func (m *memSource) Next() ([]byte, error) {
	if m.i >= len(m.frames) {
		return nil, io.EOF
	}
	f := m.frames[m.i]
	m.i++
	return f, nil
}

func (m *memSource) Close() error { return nil }

var testHops = []engine.Hop{{SwitchID: 1, InPort: 1, OutPort: 2}}

func testPath(dataplane.FlowKey) []engine.Hop { return testHops }

// noopWorkerConfig runs a worker with zero checkers: every packet
// forwards, no digests — the plumbing is exercised, the verdicts are
// trivial.
func noopWorkerConfig(node, aggAddr string) WorkerConfig {
	return WorkerConfig{
		Node:          node,
		AggAddr:       aggAddr,
		BuildCheckers: func() ([]engine.Checker, error) { return nil, nil },
		Configure: func(install func(checker string, switchID uint32, fn func(*pipeline.State) error) error, pairs [][2]uint32) error {
			return nil
		},
	}
}

// ---------------------------------------------------------------------------
// Pure helpers

func TestFilterSeedPairs(t *testing.T) {
	pairs := [][2]uint32{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}
	kept, skipped := FilterSeedPairs(pairs, 2)
	want := [][2]uint32{{1, 1}, {3, 3}, {5, 5}}
	if !reflect.DeepEqual(kept, want) || skipped != 2 {
		t.Fatalf("FilterSeedPairs(skip 2) = %v skipped %d, want %v skipped 2", kept, skipped, want)
	}
	kept, skipped = FilterSeedPairs(pairs, 0)
	if !reflect.DeepEqual(kept, pairs) || skipped != 0 {
		t.Fatalf("FilterSeedPairs(skip 0) = %v skipped %d, want identity", kept, skipped)
	}
	kept, skipped = FilterSeedPairs(pairs, 1)
	if len(kept) != 0 || skipped != 5 {
		t.Fatalf("FilterSeedPairs(skip 1) = %v skipped %d, want empty skipped 5", kept, skipped)
	}
}

func TestAggKeyOf(t *testing.T) {
	a := reportbus.Aggregate{Checker: "path", SwitchID: 3, Args: []uint64{1, 2}}
	b := reportbus.Aggregate{Checker: "path", SwitchID: 3, Args: []uint64{1, 3}}
	c := reportbus.Aggregate{Checker: "path", SwitchID: 4, Args: []uint64{1, 2}}
	o := reportbus.Aggregate{Checker: "path", SwitchID: 3, Overflow: true}
	keys := map[string]bool{}
	for _, agg := range []reportbus.Aggregate{a, b, c, o} {
		keys[AggKeyOf(&agg)] = true
	}
	if len(keys) != 4 {
		t.Fatalf("expected 4 distinct content keys, got %d", len(keys))
	}
	if got := AggKeyOf(&o); got != "path|3|overflow" {
		t.Fatalf("overflow key = %q", got)
	}
	if got := AggKeyOf(&a); got != "path|3|1|2" {
		t.Fatalf("args key = %q", got)
	}
}

func TestVerdictCounts(t *testing.T) {
	vs := []engine.Verdict{
		{Reject: false, Reports: 0},
		{Reject: true, Reports: 2},
		{Reject: false, Reports: 0},
		{Reject: false, Reports: 1},
	}
	got := VerdictCountsOf(vs)
	want := []VerdictCount{
		{Reject: false, Reports: 0, Count: 2},
		{Reject: false, Reports: 1, Count: 1},
		{Reject: true, Reports: 2, Count: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("VerdictCountsOf = %+v, want %+v", got, want)
	}
	merged := MergeVerdictCounts(got, got)
	if merged[0].Count != 4 || merged[2].Count != 2 {
		t.Fatalf("MergeVerdictCounts doubled = %+v", merged)
	}
}

func TestNewIngestValidation(t *testing.T) {
	if _, err := NewIngest(IngestConfig{PathFor: testPath}); err == nil {
		t.Fatal("NewIngest without workers should fail")
	}
	if _, err := NewIngest(IngestConfig{Workers: []string{"x"}}); err == nil {
		t.Fatal("NewIngest without PathFor should fail")
	}
}

// ---------------------------------------------------------------------------
// In-process fleet (real Agg + Workers + Ingest over loopback)

func TestFleetInProcessClean(t *testing.T) {
	aggLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aggLn.Close()
	agg := NewAgg(AggConfig{Node: "agg", Logf: t.Logf})
	go agg.Serve(aggLn)

	const workers = 2
	addrs := make([]string, workers)
	for i := 0; i < workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		w, err := NewWorker(noopWorkerConfig("w", aggLn.Addr().String()))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Connect(); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		go w.Serve(ln)
		addrs[i] = ln.Addr().String()
	}

	const n = 3000
	ing, err := NewIngest(IngestConfig{
		Workers: addrs, PathFor: testPath, BatchSize: 64, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ing.Run(&memSource{frames: campusFrames(n)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets != n || stats.Acked != n {
		t.Fatalf("packets/acked = %d/%d, want %d/%d", stats.Packets, stats.Acked, n, n)
	}
	if stats.Reconnects != 0 || stats.Dropped != nil {
		t.Fatalf("clean run saw reconnects=%d dropped=%v", stats.Reconnects, stats.Dropped)
	}
	if !agg.WaitSummaries(workers, 10*time.Second) {
		t.Fatalf("only %d summaries arrived", agg.Summaries())
	}
	rep := agg.Report()
	if !rep.Conserved {
		t.Fatalf("report not conserved: %+v", rep)
	}
	if rep.CleanSessions != workers || rep.Counts.Packets != n {
		t.Fatalf("clean=%d packets=%d, want %d/%d", rep.CleanSessions, rep.Counts.Packets, workers, n)
	}
	// Zero checkers: the verdict multiset is all-forward, no digests.
	if rep.ReceivedDigests != 0 || rep.SummarizedEmitted != 0 {
		t.Fatalf("checker-free run emitted digests: %+v", rep)
	}
	want := []VerdictCount{{Reject: false, Reports: 0, Count: n}}
	if !reflect.DeepEqual(rep.Verdicts, want) {
		t.Fatalf("verdicts = %+v, want %+v", rep.Verdicts, want)
	}
}

// aggUplink serves a fresh aggregator and returns it with one uplink
// writer to it.
func aggUplink(t *testing.T) (*Agg, *wireproto.Writer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	agg := NewAgg(AggConfig{Node: "agg", Logf: t.Logf})
	go agg.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return agg, wireproto.NewWriter(conn)
}

func writeSummary(t *testing.T, w *wireproto.Writer, session uint64) {
	t.Helper()
	if err := writeJSON(w, wireproto.TypeSummary, Summary{Session: session, Node: "w", Clean: true}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitSummariesWakesOnArrival: a waiter returns as the summary is
// recorded, not at a poll tick. The frame is written 25 ms after the
// waiter starts, so a 20 ms poll would wake ≈ 15 ms after it.
func TestWaitSummariesWakesOnArrival(t *testing.T) {
	agg, w := aggUplink(t)
	woke := make(chan time.Time, 1)
	go func() {
		if agg.WaitSummaries(1, 5*time.Second) {
			woke <- time.Now()
		}
		close(woke)
	}()
	time.Sleep(25 * time.Millisecond) // let the waiter block
	written := time.Now()
	writeSummary(t, w, 1)
	at, ok := <-woke
	if !ok {
		t.Fatal("waiter timed out with the summary written")
	}
	if lag := at.Sub(written); lag > 10*time.Millisecond {
		t.Fatalf("waiter returned %v after the summary frame was written, want <= 10ms", lag)
	}
}

// TestWaitSummariesTimeoutAndSatisfied: no summary is false at the
// timeout; a count already reached is true without waiting, even with a
// timeout <= 0, which otherwise checks once.
func TestWaitSummariesTimeoutAndSatisfied(t *testing.T) {
	agg, w := aggUplink(t)
	start := time.Now()
	if agg.WaitSummaries(1, 30*time.Millisecond) {
		t.Fatal("WaitSummaries(1) true with no summary sent")
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("WaitSummaries returned false after %v, before its 30ms timeout", waited)
	}
	if agg.WaitSummaries(1, 0) {
		t.Fatal("WaitSummaries(1, 0) true with no summary sent")
	}
	writeSummary(t, w, 1)
	if !agg.WaitSummaries(1, 5*time.Second) {
		t.Fatal("summary never recorded")
	}
	start = time.Now()
	if !agg.WaitSummaries(1, 0) || !agg.WaitSummaries(1, time.Hour) {
		t.Fatal("WaitSummaries(1) false with one summary recorded")
	}
	if waited := time.Since(start); waited > 10*time.Millisecond {
		t.Fatalf("an already satisfied WaitSummaries took %v", waited)
	}
}

// TestWaitSummariesConcurrentWaiters: each waiter returns when its own
// count is reached. A second summary of one session does not count.
func TestWaitSummariesConcurrentWaiters(t *testing.T) {
	agg, w := aggUplink(t)
	one, two := make(chan bool, 1), make(chan bool, 1)
	go func() { one <- agg.WaitSummaries(1, 5*time.Second) }()
	go func() { two <- agg.WaitSummaries(2, 5*time.Second) }()
	writeSummary(t, w, 1)
	writeSummary(t, w, 1)
	if !<-one {
		t.Fatal("waiter for 1 summary timed out")
	}
	select {
	case ok := <-two:
		t.Fatalf("waiter for 2 summaries returned %t with one session summarized", ok)
	default:
	}
	writeSummary(t, w, 2)
	if !<-two {
		t.Fatal("waiter for 2 summaries timed out")
	}
	// One uplink's frames are recorded in order: the repeat is in.
	if n := agg.Summaries(); n != 2 {
		t.Fatalf("%d summaries counted for two sessions", n)
	}
}

// TestAggLogsBrokenUplink: an uplink that ends on a framing error, not
// at EOF, is logged with that error.
func TestAggLogsBrokenUplink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lines := make(chan string, 8)
	agg := NewAgg(AggConfig{Node: "agg", Logf: func(format string, args ...any) {
		lines <- fmt.Sprintf(format, args...)
	}})
	go agg.Serve(ln)

	var frame bytes.Buffer
	if err := writeJSON(wireproto.NewWriter(&frame), wireproto.TypeHello, Hello{Node: "w"}); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	raw[len(raw)-1] ^= 0xff // the CRC trailer
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	select {
	case line := <-lines:
		if !strings.Contains(line, "agg: uplink from") || !strings.Contains(line, "wireproto: checksum") {
			t.Fatalf("log line %q does not report the uplink's checksum error", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a bad-CRC frame ended the uplink without a log line")
	}
}

// hopPath is a fabric model with paths of flow-dependent length (1–3
// hops), so hop-slab offsets are exercised.
func hopPath(k dataplane.FlowKey) []engine.Hop {
	hops := make([]engine.Hop, 1+int(k.Sport)%3)
	for i := range hops {
		hops[i] = engine.Hop{SwitchID: uint32(k.Dst) + uint32(i), InPort: k.Sport, OutPort: k.Dport}
	}
	return hops
}

// TestIngestLoadPinsWorkers pins the scan: a record is its frame's flow
// key, wire length and worker in 24 bytes — the path is the dispatcher's
// to pin — a flow's worker is its RSS hash modulo the worker count (with
// one worker the hash is skipped, the remainder being 0 whatever it is),
// and the seed pairs come in first-occurrence order.
func TestIngestLoadPinsWorkers(t *testing.T) {
	if size := unsafe.Sizeof(rec{}); size != 24 {
		t.Fatalf("a scanned record is %d bytes, want 24", size)
	}
	frames := campusFrames(2000)
	for _, workers := range []int{1, 2, 3} {
		in, err := NewIngest(IngestConfig{Workers: make([]string, workers), PathFor: hopPath})
		if err != nil {
			t.Fatal(err)
		}
		var stats IngestStats
		recs, pairs, err := in.load(&memSource{frames: frames}, &stats)
		if err != nil || len(recs) != len(frames) {
			t.Fatalf("%d workers: load = %d records, %v", workers, len(recs), err)
		}
		var (
			dec       dataplane.Decoded
			wantPairs [][2]uint32
			seen      = map[[2]uint32]bool{}
			used      = map[int32]bool{}
		)
		for i, r := range recs {
			if err := dataplane.ParseInto(&dec, frames[i]); err != nil {
				t.Fatal(err)
			}
			key := dataplane.FlowKeyOf(&dec)
			if want := int32(key.RSSHash() % uint32(workers)); r.worker != want || r.key != key || r.len != uint32(len(frames[i])) {
				t.Fatalf("%d workers: record %d = %+v, want key %+v, length %d, worker %d", workers, i, r, key, len(frames[i]), want)
			}
			used[r.worker] = true
			if p := [2]uint32{uint32(key.Src), uint32(key.Dst)}; !seen[p] {
				seen[p] = true
				wantPairs = append(wantPairs, p)
			}
		}
		if len(used) != workers {
			t.Fatalf("%d workers: only %d received flows", workers, len(used))
		}
		if !reflect.DeepEqual(pairs, wantPairs) {
			t.Fatalf("%d workers: seed pairs differ from first-occurrence order", workers)
		}
	}
}

// TestDispatchPinsPaths: the dispatcher pins every packet to PathFor of
// its own flow as the batch fills. With a batch size that divides
// nothing and recycled hop slabs, the worker must decode — in capture
// order, across batch boundaries, in both loops alike — exactly the
// packets a pre-pinned capture would have carried.
func TestDispatchPinsPaths(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fw := &fakeWorker{ln: ln, record: true}
	go fw.serve()

	frames := campusFrames(500)
	const loops = 2
	ing, err := NewIngest(IngestConfig{
		Workers: []string{ln.Addr().String()}, PathFor: hopPath,
		BatchSize: 7, Loops: loops, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ing.Run(&memSource{frames: frames})
	if err != nil || stats.Acked != loops*uint64(len(frames)) {
		t.Fatalf("run: %v, acked %d of %d", err, stats.Acked, loops*len(frames))
	}
	fw.mu.Lock()
	got := fw.packets
	fw.mu.Unlock()
	if len(got) != loops*len(frames) {
		t.Fatalf("worker decoded %d packets, want %d", len(got), loops*len(frames))
	}
	var dec dataplane.Decoded
	for i, p := range got {
		frame := frames[i%len(frames)]
		if err := dataplane.ParseInto(&dec, frame); err != nil {
			t.Fatal(err)
		}
		key := dataplane.FlowKeyOf(&dec)
		want := wireproto.Packet{
			Src: uint32(key.Src), Dst: uint32(key.Dst), Sport: key.Sport, Dport: key.Dport,
			Proto: key.Proto, Len: uint32(len(frame)),
		}
		for _, h := range hopPath(key) {
			want.Hops = append(want.Hops, wireproto.Hop{Switch: h.SwitchID, In: h.InPort, Out: h.OutPort})
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("packet %d (loop %d): decoded %+v, want %+v", i, i/len(frames), p, want)
		}
	}
}

// TestDispatchSteadyStateAllocs: batch storage comes back from the
// sender, so what a dispatch allocates is bounded by the batches in
// circulation (one filling, QueueDepth queued, one with the sender), not
// by the batches sent.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	in, err := NewIngest(IngestConfig{Workers: []string{"unused"}, PathFor: testPath, BatchSize: 64, Loops: 20})
	if err != nil {
		t.Fatal(err)
	}
	var stats IngestStats
	recs, _, err := in.load(&memSource{frames: campusFrames(2000)}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	s := newSender(in, 0, "unused", nil, 0)
	go func() { // a sender that discards
		for b := range s.queue {
			s.free <- batch{pkts: b.pkts[:0], hops: b.hops[:0]}
		}
	}()
	defer close(s.queue)
	var sent uint64
	allocs := testing.AllocsPerRun(3, func() { sent = in.dispatch(recs, []*sender{s}) })
	batches := sent / 64
	// A new batch grows two slices from nil, some ten steps each.
	if limit := float64(in.cfg.QueueDepth+2)*24 + 8; sent != 20*2000 || allocs > limit {
		t.Fatalf("dispatching %d packets in %d batches allocated %v times, want at most %v", sent, batches, allocs, limit)
	}
}

// TestHandshakeSeedChunks: the sender's handshake and the worker's
// readSeed agree on the chunked binary seed, for sets that end on a
// chunk boundary, span several chunks, or are empty.
func TestHandshakeSeedChunks(t *testing.T) {
	for _, n := range []int{0, 1, wireproto.MaxSeedPairs, 2*wireproto.MaxSeedPairs + 17} {
		pairs := make([][2]uint32, n)
		for i := range pairs {
			pairs[i] = [2]uint32{uint32(i), ^uint32(i)}
		}
		client, server := net.Pipe()
		in, err := NewIngest(IngestConfig{Workers: []string{"unused"}, PathFor: testPath})
		if err != nil {
			t.Fatal(err)
		}
		s := &sender{in: in, seed: pairs}
		errc := make(chan error, 1)
		go func() {
			errc <- s.handshake(&connState{conn: client, w: wireproto.NewWriter(client)})
			client.Close()
		}()
		r := wireproto.NewReader(server)
		f, err := r.ReadFrame()
		if err != nil || f.Type != wireproto.TypeHello {
			t.Fatalf("%d pairs: first frame type %d, %v", n, f.Type, err)
		}
		f.Release()
		got, err := readSeed(r)
		if err != nil || len(got) != n || n > 0 && !reflect.DeepEqual(got, pairs) {
			t.Fatalf("%d pairs: readSeed returned %d pairs, %v", n, len(got), err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("%d pairs: handshake: %v", n, err)
		}
		if _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("%d pairs: frames after the done chunk: %v", n, err)
		}
		server.Close()
	}
}

// ---------------------------------------------------------------------------
// Fake worker: exact drop-accounting scenarios

// fakeWorker accepts ingest sessions and misbehaves to order:
// creditGate delays the first credit of a session, closeAfterBatches
// hangs up mid-session without crediting, and closeOnFin hangs up on Fin
// without a FinAck (both first session only). finAcks counts the
// sessions that ended in order.
type fakeWorker struct {
	ln       net.Listener
	sessions atomic.Int64
	finAcks  atomic.Int64

	creditGate        time.Duration
	closeAfterBatches int
	closeOnFin        bool

	// record keeps every decoded packet, in arrival order; seeded counts
	// the seed pairs each session was sent.
	record  bool
	mu      sync.Mutex
	packets []wireproto.Packet
	seeded  []int
}

func (fw *fakeWorker) serve() {
	for {
		conn, err := fw.ln.Accept()
		if err != nil {
			return
		}
		first := fw.sessions.Add(1) == 1
		go fw.session(conn, first)
	}
}

func (fw *fakeWorker) session(conn net.Conn, first bool) {
	defer conn.Close()
	r := wireproto.NewReader(conn)
	w := wireproto.NewWriter(conn)
	batches, seeded := 0, 0
	gated := fw.creditGate > 0
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		switch f.Type {
		case wireproto.TypeSeed:
			chunk, done, _ := wireproto.DecodeSeed(f.Payload)
			if seeded += len(chunk); done {
				fw.mu.Lock()
				fw.seeded = append(fw.seeded, seeded)
				fw.mu.Unlock()
			}
		case wireproto.TypePacketBatch:
			var d wireproto.BatchDecoder
			if err := d.Reset(f.Payload); err != nil {
				f.Release()
				return
			}
			n := 0
			for {
				p, err := d.Next()
				if err != nil || p == nil {
					break
				}
				n++
				if fw.record {
					kept := *p
					kept.Hops = append([]wireproto.Hop(nil), p.Hops...)
					fw.mu.Lock()
					fw.packets = append(fw.packets, kept)
					fw.mu.Unlock()
				}
			}
			batches++
			if first && fw.closeAfterBatches > 0 && batches >= fw.closeAfterBatches {
				f.Release()
				return // hang up without crediting: in-flight packets die
			}
			if gated {
				time.Sleep(fw.creditGate)
				gated = false
			}
			w.WriteFrame(wireproto.TypeCredit, wireproto.AppendCredit(nil, uint32(n)))
		case wireproto.TypeFin:
			f.Release()
			if first && fw.closeOnFin {
				return // the worker died after its last batch
			}
			fw.finAcks.Add(1) // before the ack, which may end the test
			writeJSON(w, wireproto.TypeFinAck, FinAck{})
			return
		}
		f.Release()
	}
}

// checkLedgerMatchesMetrics: each worker link of the ingest's JSON
// ledger says what the registry's series for that worker say.
func checkLedgerMatchesMetrics(t *testing.T, stats IngestStats, reg *metrics.Registry) {
	t.Helper()
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	samples := map[string]uint64{}
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				samples[f[0]] = v
			}
		}
	}
	sample := func(series string) uint64 {
		t.Helper()
		v, ok := samples[series]
		if !ok {
			t.Fatalf("no sample for %s in the registry", series)
		}
		return v
	}
	for i, w := range stats.Workers {
		worker := fmt.Sprintf(`worker="%d"`, i)
		if got := sample("hydra_ingest_packets_acked_total{" + worker + "}"); w.Acked != got {
			t.Errorf("worker %d: ledger acked %d, /metrics %d", i, w.Acked, got)
		}
		if got := sample("hydra_ingest_reconnects_total{" + worker + "}"); w.Reconnects != got {
			t.Errorf("worker %d: ledger reconnects %d, /metrics %d", i, w.Reconnects, got)
		}
		for _, reason := range []string{"backpressure", "reconnect", "failed"} {
			if got := sample(fmt.Sprintf("hydra_ingest_drops_total{reason=%q,%s}", reason, worker)); w.Dropped[reason] != got {
				t.Errorf("worker %d: ledger dropped %d for %s, /metrics %d", i, w.Dropped[reason], reason, got)
			}
		}
	}
}

func TestIngestBackpressureDrops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fw := &fakeWorker{ln: ln, creditGate: 400 * time.Millisecond}
	go fw.serve()

	const n = 2000
	reg := metrics.NewRegistry()
	ing, err := NewIngest(IngestConfig{
		Workers:   []string{ln.Addr().String()},
		PathFor:   testPath,
		BatchSize: 16, Window: 1, QueueDepth: 1,
		DropAfter: 10 * time.Millisecond,
		Metrics:   reg,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ing.Run(&memSource{frames: campusFrames(n)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped["backpressure"] == 0 {
		t.Fatalf("expected backpressure drops, got %+v", stats.Dropped)
	}
	var dropped uint64
	for _, v := range stats.Dropped {
		dropped += v
	}
	if stats.Acked+dropped != stats.Packets {
		t.Fatalf("accounting leak: acked %d + dropped %d != packets %d",
			stats.Acked, dropped, stats.Packets)
	}
	if stats.Reconnects != 0 {
		t.Fatalf("backpressure must not reconnect, got %d", stats.Reconnects)
	}
	checkLedgerMatchesMetrics(t, stats, reg)
}

func TestIngestReconnectDrops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fw := &fakeWorker{ln: ln, closeAfterBatches: 1}
	go fw.serve()

	const n, batch = 2000, 32
	reg := metrics.NewRegistry()
	ing, err := NewIngest(IngestConfig{
		Workers:   []string{ln.Addr().String()},
		PathFor:   testPath,
		BatchSize: batch, Window: 1,
		Metrics: reg,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ing.Run(&memSource{frames: campusFrames(n)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", stats.Reconnects)
	}
	// At-most-once: exactly the one in-flight batch died with the
	// connection; everything else was delivered on the new session.
	if got := stats.Dropped["reconnect"]; got != batch {
		t.Fatalf("reconnect drops = %d, want %d (%+v)", got, batch, stats.Dropped)
	}
	if stats.Acked != n-batch {
		t.Fatalf("acked = %d, want %d", stats.Acked, n-batch)
	}
	if fw.sessions.Load() != 2 {
		t.Fatalf("fake worker saw %d sessions, want 2", fw.sessions.Load())
	}
	checkLedgerMatchesMetrics(t, stats, reg)
	// The second connection replays the whole seed ahead of its packets.
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if len(fw.seeded) != 2 || fw.seeded[0] != stats.SeededPairs || fw.seeded[1] != stats.SeededPairs {
		t.Fatalf("sessions were sent %v seed pairs, want %d each", fw.seeded, stats.SeededPairs)
	}
}

// TestIngestReconnectsToFinish: a worker lost after its last batch
// (the first session hangs up on Fin) is redialled, handed the seed, and
// sent Fin on the new session, which it acknowledges — so a restarted
// worker daemon still summarizes a session and the aggregator's count
// of expected summaries completes. Every packet was acknowledged before
// the Fin, so nothing is dropped; the lost connection is one reconnect.
func TestIngestReconnectsToFinish(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fw := &fakeWorker{ln: ln, closeOnFin: true}
	go fw.serve()

	const n = 500
	reg := metrics.NewRegistry()
	ing, err := NewIngest(IngestConfig{
		Workers:   []string{ln.Addr().String()},
		PathFor:   testPath,
		BatchSize: 32, Window: 4,
		Metrics: reg,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ing.Run(&memSource{frames: campusFrames(n)})
	if err != nil {
		t.Fatal(err)
	}
	if got := fw.sessions.Load(); got != 2 || fw.finAcks.Load() != 1 {
		t.Fatalf("fake worker saw %d sessions and sent %d FinAcks, want 2 and 1", got, fw.finAcks.Load())
	}
	if stats.Reconnects != 1 || len(stats.Dropped) != 0 || stats.Acked != n {
		t.Fatalf("reconnects=%d dropped=%v acked=%d/%d, want 1, none, all", stats.Reconnects, stats.Dropped, stats.Acked, n)
	}
	checkLedgerMatchesMetrics(t, stats, reg)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if len(fw.seeded) != 2 || fw.seeded[0] != stats.SeededPairs || fw.seeded[1] != stats.SeededPairs {
		t.Fatalf("sessions were sent %v seed pairs, want %d each", fw.seeded, stats.SeededPairs)
	}
}

// TestIngestFinAckThenClose is the regression test for the spurious
// reconnect at session end: the worker closes right after FinAck, so
// the sender's final select can find the FinAck and the EOF ready
// together, and a session in which every packet was acked must not
// count a reconnect whichever one it picks.
func TestIngestFinAckThenClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fw := &fakeWorker{ln: ln} // session() hangs up as soon as FinAck is written
	go fw.serve()

	const sessions, n = 600, 48
	frames := campusFrames(n)
	for i := 0; i < sessions; i++ {
		ing, err := NewIngest(IngestConfig{
			Workers:   []string{ln.Addr().String()},
			PathFor:   testPath,
			BatchSize: 16, Window: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := ing.Run(&memSource{frames: frames})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reconnects != 0 || len(stats.Dropped) != 0 || stats.Acked != n {
			t.Fatalf("session %d: reconnects=%d dropped=%v acked=%d/%d, want an orderly end",
				i, stats.Reconnects, stats.Dropped, stats.Acked, n)
		}
	}
}

// TestIngestWorkerUnreachable covers the terminal failure path: a
// worker address nobody listens on burns the dial retries and the
// batches are accounted "failed".
func TestIngestWorkerUnreachable(t *testing.T) {
	// Grab a port and close it so the dial reliably fails fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const n = 200
	ing, err := NewIngest(IngestConfig{
		Workers:     []string{addr},
		PathFor:     testPath,
		BatchSize:   64,
		DialRetries: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ing.Run(&memSource{frames: campusFrames(n)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Acked != 0 || stats.Dropped["failed"] != n {
		t.Fatalf("unreachable worker: acked=%d dropped=%+v, want 0/%d failed", stats.Acked, stats.Dropped, n)
	}
	if stats.Workers[0].Error == "" {
		t.Fatal("link error not surfaced")
	}
}

// TestIngestStop verifies SIGTERM semantics: Stop ends the dispatch
// loop early but the senders still drain and close cleanly, so
// everything dispatched is still accounted.
func TestIngestStop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fw := &fakeWorker{ln: ln}
	go fw.serve()

	ing, err := NewIngest(IngestConfig{
		Workers: []string{ln.Addr().String()}, PathFor: testPath,
		BatchSize: 8, Loops: 1000, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		ing.Stop()
	}()
	stats, err := ing.Run(&memSource{frames: campusFrames(500)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets == 0 || stats.Packets >= 500*1000 {
		t.Fatalf("stop did not truncate the replay: %d packets", stats.Packets)
	}
	if stats.Acked != stats.Packets {
		t.Fatalf("drained run: acked %d != packets %d", stats.Acked, stats.Packets)
	}
}

// endlessSource is a Source that never returns io.EOF, the shape of an
// AF_PACKET tap: it cycles its frames, closes started once it has
// delivered them all once, and from then on paces itself, so a scan that
// never ends grows by a thousand records a second, not by millions.
type endlessSource struct {
	frames  [][]byte
	i       int
	started chan struct{}
}

func (l *endlessSource) Next() ([]byte, error) {
	if l.i == len(l.frames) {
		close(l.started)
	}
	if l.i >= len(l.frames) {
		time.Sleep(time.Millisecond)
	}
	f := l.frames[l.i%len(l.frames)]
	l.i++
	return f, nil
}

func (l *endlessSource) Close() error { return nil }

// TestIngestStopDuringScan: Stop reaches the scan, not only the
// dispatcher. On a source with no end Run returns soon after Stop with
// what was scanned counted, nothing dispatched, and every sender's
// session opened and Fin'd cleanly.
func TestIngestStopDuringScan(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fw := &fakeWorker{ln: ln}
	go fw.serve()

	ing, err := NewIngest(IngestConfig{Workers: []string{ln.Addr().String()}, PathFor: testPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	src := &endlessSource{frames: campusFrames(200), started: make(chan struct{})}
	type result struct {
		stats IngestStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := ing.Run(src)
		done <- result{stats, err}
	}()
	<-src.started
	ing.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.stats.FramesRead < 200 || r.stats.Packets != 0 {
			t.Fatalf("stopped scan: %d frames read, %d packets dispatched, want >= 200 and 0", r.stats.FramesRead, r.stats.Packets)
		}
		for _, w := range r.stats.Workers {
			if w.Error != "" || w.Assigned != 0 {
				t.Fatalf("worker link after a stopped scan: %+v", w)
			}
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return within a second of Stop: the scan ignores it")
	}
}

// TestIngestStopDuringBackoff: Stop reaches a sender backing off between
// dials to a worker nobody listens on, at the default retry schedule
// (≈ 69 s to give up). Run returns soon after, and the batches the
// dispatcher had queued are accounted failed.
func TestIngestStopDuringBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	scanned := make(chan struct{})
	var once sync.Once
	ing, err := NewIngest(IngestConfig{
		Workers: []string{addr}, PathFor: testPath,
		Logf: func(format string, args ...any) {
			t.Logf(format, args...)
			once.Do(func() { close(scanned) }) // the first line ends the scan
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		stats IngestStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := ing.Run(&memSource{frames: campusFrames(3000)})
		done <- result{stats, err}
	}()
	<-scanned
	// The sender dials at once, fails, and backs off 50 ms, then 100 ms:
	// at 100 ms it is between its second and third attempts, and the
	// dispatcher is blocked on its full queue.
	time.Sleep(100 * time.Millisecond)
	ing.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		w := r.stats.Workers[0]
		if w.Assigned == 0 || w.Assigned != r.stats.Packets || w.Acked+w.Dropped["failed"] != w.Assigned {
			t.Fatalf("stopped link %+v of %d packets dispatched: want acked + failed == assigned > 0", w, r.stats.Packets)
		}
		if !strings.Contains(w.Error, "stopped") {
			t.Fatalf("link error %q does not say the sender was stopped", w.Error)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return within 2 s of Stop: the sender sleeps out its backoff")
	}
}

func TestOpenPcapRejectsNonEthernet(t *testing.T) {
	if _, err := OpenPcap("/dev/null"); err == nil {
		t.Fatal("OpenPcap(/dev/null) should fail")
	}
}

func TestOpenLiveStub(t *testing.T) {
	if _, err := OpenLive("eth0"); err == nil {
		t.Skip("built with hydralive; stub not in effect")
	}
}

// TestWorkerRefusesCheckerWithoutVM: the engine would count one error
// per hop for a checker the VM cannot compile and carry on; a worker
// session must fail its install instead of reporting verdicts.
func TestWorkerRefusesCheckerWithoutVM(t *testing.T) {
	cfg := noopWorkerConfig("w", "")
	cfg.BuildCheckers = func() ([]engine.Checker, error) {
		broken := &pipeline.Program{Name: "broken", Telemetry: []pipeline.Op{pipeline.ApplyOp{Table: "undeclared"}}}
		return []engine.Checker{{Name: "broken", RT: &compiler.Runtime{Prog: broken}}}, nil
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.newSession(nil); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("session install with an uncompilable checker: err = %v, want the compile error", err)
	}
}
