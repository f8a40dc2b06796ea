package fleet

import (
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/engine"
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

// TestIngestLoadPinsWorkers pins the pre-scan: a flow's worker is its
// RSS hash modulo the worker count (with one worker the hash is skipped,
// the remainder being 0 whatever it is), every record carries the path
// PathFor gave its flow, cut from one slab, and the seed pairs come in
// first-occurrence order.
func TestIngestLoadPinsWorkers(t *testing.T) {
	frames := campusFrames(2000)
	// Paths of flow-dependent length, so the slab offsets are exercised.
	pathFor := func(k dataplane.FlowKey) []engine.Hop {
		hops := make([]engine.Hop, 1+int(k.Sport)%3)
		for i := range hops {
			hops[i] = engine.Hop{SwitchID: uint32(k.Dst) + uint32(i), InPort: k.Sport, OutPort: k.Dport}
		}
		return hops
	}
	for _, workers := range []int{1, 2, 3} {
		in, err := NewIngest(IngestConfig{Workers: make([]string, workers), PathFor: pathFor})
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
			used      = map[int]bool{}
			slabEnd   unsafe.Pointer // one past the previous record's last hop
		)
		for i, r := range recs {
			if err := dataplane.ParseInto(&dec, frames[i]); err != nil {
				t.Fatal(err)
			}
			key := dataplane.FlowKeyOf(&dec)
			if want := int(key.RSSHash() % uint32(workers)); r.worker != want {
				t.Fatalf("%d workers: record %d pinned to worker %d, want %d", workers, i, r.worker, want)
			}
			used[r.worker] = true
			want := pathFor(key)
			if len(r.pkt.Hops) != len(want) || cap(r.pkt.Hops) != len(want) {
				t.Fatalf("record %d: %d hops (cap %d), want %d", i, len(r.pkt.Hops), cap(r.pkt.Hops), len(want))
			}
			for j, h := range want {
				if r.pkt.Hops[j] != (wireproto.Hop{Switch: h.SwitchID, In: h.InPort, Out: h.OutPort}) {
					t.Fatalf("record %d hop %d: %+v, want %+v", i, j, r.pkt.Hops[j], h)
				}
			}
			if first := unsafe.Pointer(&r.pkt.Hops[0]); slabEnd != nil && first != slabEnd {
				t.Fatalf("record %d: its hops do not follow record %d's in one slab", i, i-1)
			}
			slabEnd = unsafe.Add(unsafe.Pointer(&r.pkt.Hops[0]), len(want)*int(unsafe.Sizeof(wireproto.Hop{})))
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
// hangs up mid-session without crediting (first session only).
type fakeWorker struct {
	ln       net.Listener
	sessions atomic.Int64

	creditGate        time.Duration
	closeAfterBatches int
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
	batches := 0
	gated := fw.creditGate > 0
	for {
		f, err := r.ReadFrame()
		if err != nil {
			return
		}
		switch f.Type {
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
			writeJSON(w, wireproto.TypeFinAck, FinAck{})
			f.Release()
			return
		}
		f.Release()
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
	ing, err := NewIngest(IngestConfig{
		Workers:   []string{ln.Addr().String()},
		PathFor:   testPath,
		BatchSize: 16, Window: 1, QueueDepth: 1,
		DropAfter: 10 * time.Millisecond,
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
	var droppedTotal uint64
	for _, v := range stats.Dropped {
		droppedTotal += v
	}
	if stats.Acked+droppedTotal != stats.Packets {
		t.Fatalf("accounting leak: acked %d + dropped %d != packets %d",
			stats.Acked, droppedTotal, stats.Packets)
	}
	if stats.Reconnects != 0 {
		t.Fatalf("backpressure must not reconnect, got %d", stats.Reconnects)
	}
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
	ing, err := NewIngest(IngestConfig{
		Workers:   []string{ln.Addr().String()},
		PathFor:   testPath,
		BatchSize: batch, Window: 1,
		Logf: t.Logf,
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
