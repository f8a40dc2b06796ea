package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"time"

	"repro/internal/checkers"
	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/pcapio"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
	"repro/internal/wireproto"
)

// Ladder input sizes. The engine and netsim stages replay a prefix of
// the seed's campus stream (with that prefix's own firewall seed): a
// stage needs one engine replica each, and installing the full-size
// seed into every one would cost more than the stages measure. The
// fleet stages use the fleet-campus workload's own size, because
// fleet.unexplained_ns_per_pkt is defined against that workload.
const (
	ladderEnginePackets = 50_000
	ladderWirePackets   = 20_000
	ladderChunk         = 2048 // items per span of a stage that is cut into chunks
	ladderBatchPasses   = 5    // untraced and traced engine.batch passes per round
	ladderSessions      = 4    // measured fleet sessions per round
	aggBatchAggregates  = 64   // aggregates per synthetic AggBatch frame
	aggEveryNthPacket   = 16   // one synthetic aggregate per this many packets
	appendChunk         = 512  // frames parsed (untimed) per timed AppendTo span
	publishChunk        = 2048

	plainPassSpan  = "engine.batch"        // an untraced ProcessBatch pass
	tracedPassSpan = "engine.batch_traced" // the same pass with a span per call
	batchCallSpan  = "engine.batch_call"

	// quietCost is the percentile of a stage's spans, by self time per
	// item, that stands for the stage: the quiet window of the ladder.
	// A stage that runs once per round has a handful of spans, and this
	// picks the cheapest.
	quietCost = 10
)

// ladder runs the stage ladder: the seed's inputs pushed through one
// layer's public functions at a time, single-threaded, each stage in
// spans. A layer's number is self time over items of its quiet span.
type ladder struct {
	tr    *tracer
	opts  options
	cur   int // the innermost open span, parent of the next
	round int

	acc map[string][2]float64 // directly counted metric -> numerator, denominator
	// fleet sums the traced fleet sessions; sendSec and checkSec are the
	// seconds their ingest spent writing batches and their worker
	// checking them, as the daemons' own histograms count them.
	fleet             timed
	sendSec, checkSec float64

	attempted, failed uint64
	rules             []string
	batchCalls        int // engine.batch_call spans behind the p50/p99
	sink              int // keeps stage results alive
}

// stage runs fn in a span over items items; spans fn opens are its
// children.
func (l *ladder) stage(name string, items int, fn func()) {
	id := l.tr.begin(name, l.cur, l.round, items)
	outer := l.cur
	l.cur = id
	fn()
	l.cur = outer
	l.tr.end(id)
}

// chunked runs fn over [0, n) in chunks of ladderChunk items, one span
// each, so that a stage has spans the neighbours left alone.
func (l *ladder) chunked(name string, n int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += ladderChunk {
		hi := min(lo+ladderChunk, n)
		l.stage(name, hi-lo, func() { fn(lo, hi) })
	}
}

// allocs returns how many heap objects and bytes fn allocated (the
// ladder is single-threaded, so they are fn's).
func allocs(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// sampled books a repetition a runner timed itself, one span per window.
func (l *ladder) sampled(name string, s sample) {
	at := s.start
	for _, w := range s.windows {
		l.tr.add(name, l.cur, l.round, int(w.packets), at, w.wall)
		at = at.Add(w.wall)
	}
	l.verify(name, s)
}

// ratio accumulates a directly counted metric as numerator/denominator.
func (l *ladder) ratio(name string, num, den float64) {
	a := l.acc[name]
	l.acc[name] = [2]float64{a[0] + num, a[1] + den}
}

// verify books a checked pass's operations.
func (l *ladder) verify(what string, s sample) {
	l.attempted += s.packets
	l.failed += s.failed
	if s.rule != "" {
		l.rules = append(l.rules, fmt.Sprintf("round %d %s: %s", l.round, what, s.rule))
	}
}

// expect books n operations that all fail unless ok.
func (l *ladder) expect(ok bool, n int, format string, args ...any) {
	s := sample{packets: uint64(n)}
	if !ok {
		s.failed, s.rule = s.packets, fmt.Sprintf(format, args...)
	}
	l.verify("check", s)
}

// runLadder is the traced run: rounds of the whole ladder until
// opts.seconds have passed, then every per-layer metric.
func runLadder(w *workload, opts options, out io.Writer) (result, error) {
	l := &ladder{tr: newTracer(w.name), opts: opts, acc: map[string][2]float64{}}
	calibBefore := calibrate()
	start := time.Now()
	budget := time.Duration(opts.seconds * float64(time.Second))
	for {
		var err error
		l.cur = -1
		l.stage("ladder", 0, func() { err = l.runRound() })
		if err != nil {
			return result{}, fmt.Errorf("ladder round %d: %w", l.round, err)
		}
		l.round++
		if opts.quick || time.Since(start) >= budget {
			break
		}
	}
	calibAfter := calibrate()

	values, err := l.values((calibBefore + calibAfter) / 2)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed}
	if err := res.fill(perLayer(), values); err != nil {
		return result{}, err
	}
	if err := l.tr.writeJSONL(opts.spanFile); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	l.print(out, w.name, values)
	fmt.Fprintf(out, "  %d spans written to %s\n", len(l.tr.spans), opts.spanFile)
	fmt.Fprintf(out, "  %s\n", hostStamp(calibBefore, calibAfter))
	return res, nil
}

func (l *ladder) runRound() error {
	for _, part := range []func() error{l.engineStages, l.netsimStages, l.fleetStages} {
		if err := part(); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// compiler, engine, pipeline, reportbus

func (l *ladder) engineStages() error {
	n := l.opts.size(ladderEnginePackets)
	var chks []engine.Checker
	var err error
	l.stage("compiler.compile_all", 1, func() { chks, err = experiments.CorpusCheckers() })
	if err != nil {
		return err
	}
	pkts, pairs := experiments.CampusEnginePackets(n, l.opts.seed)

	run, err := newEngineRun(chks, pkts, pairs, false)
	if err != nil {
		return err
	}
	defer run.close()
	for _, p := range run.phases {
		l.tr.add(p.name, l.cur, l.round, 1, p.start, p.dur)
	}
	warm, _ := run.rep()
	l.verify("engine warm-up", warm)

	// pass replays the packet set through process, a span per chunk (and
	// whatever spans process opens beneath it), then books the verdicts.
	pass := func(name string, size int, process func([]engine.Packet)) (mallocs, bytes uint64) {
		run.poison()
		mallocs, bytes = allocs(func() {
			l.chunked(name, n, func(lo, hi int) { inBatches(pkts[lo:hi], size, process) })
			run.bus.Flush()
		})
		s := sample{packets: uint64(n)}
		s.failed, s.rule = run.check()
		l.verify(name, s)
		return mallocs, bytes
	}
	for i := 0; i < ladderBatchPasses; i++ {
		mallocs, bytes := pass(plainPassSpan, batchSize, run.seq.ProcessBatch)
		l.ratio("engine.allocs_per_pkt", float64(mallocs), float64(n))
		l.ratio("engine.alloc_bytes_per_pkt", float64(bytes), float64(n))

		// The same pass with one span per ProcessBatch call: the call
		// times give the batch latency distribution, and what a chunk
		// takes longer than an untraced one is what tracing costs.
		pass(tracedPassSpan, batchSize, func(b []engine.Packet) {
			l.stage(batchCallSpan, len(b), func() { run.seq.ProcessBatch(b) })
		})
	}
	pass("engine.batch1", 1, run.seq.ProcessBatch)
	pass("engine.hopmajor", 1, func(b []engine.Packet) { run.seq.Process(b[0]) })

	// Zero checkers: dispatch and header binding alone.
	empty := engine.NewSequential(engine.Config{})
	l.chunked("engine.empty", n, func(lo, hi int) { inBatches(pkts[lo:hi], batchSize, empty.ProcessBatch) })
	c := empty.Counts()
	l.expect(c.Forwarded == uint64(n) && c.Errors == 0, n, "empty engine forwarded %d of %d packets", c.Forwarded, n)

	// The sharded engine, Submit to Drain, at 1 and GOMAXPROCS shards.
	for _, sh := range []struct {
		name   string
		shards int
	}{{"engine.sharded1", 1}, {"engine.shardedN", runtime.GOMAXPROCS(0)}} {
		eng := engine.New(engine.Config{Shards: sh.shards, BatchSize: batchSize, Checkers: chks})
		if err := experiments.ConfigureReplayEngine(eng.Install, pairs); err != nil {
			eng.Drain() // stops the shard goroutines
			return err
		}
		eng.Warm()
		var c engine.Counts
		l.stage(sh.name, n, func() {
			for i := range pkts {
				eng.Submit(pkts[i])
			}
			c = eng.Drain()
		})
		l.expect(c.Forwarded == uint64(n) && c.Errors == 0, n, "%s forwarded %d of %d packets, %d errors", sh.name, c.Forwarded, n, c.Errors)
	}

	// Every corpus checker alone, after one pass that fills its caches.
	for i := range chks {
		name := chks[i].Name
		one := engine.NewSequential(engine.Config{Checkers: chks[i : i+1]})
		only := func(checker string, sw uint32, fn func(*pipeline.State) error) error {
			if checker != name {
				return nil
			}
			return one.Install(checker, sw, fn)
		}
		if err := experiments.ConfigureReplayEngine(only, pairs); err != nil {
			return err
		}
		one.Warm()
		inBatches(pkts, batchSize, one.ProcessBatch)
		l.chunked("engine.checker."+name, n, func(lo, hi int) { inBatches(pkts[lo:hi], batchSize, one.ProcessBatch) })
		c := one.Counts()
		l.expect(c.Forwarded == uint64(2*n) && c.Errors == 0, n, "%s alone forwarded %d of %d packets, %d errors", name, c.Forwarded, 2*n, c.Errors)
	}

	l.lookupStages(run, pkts)
	return l.busStages(chks, pkts, pairs)
}

// lookupStages times bare table lookups: the exact-match firewall
// table the engine stages just used, and a TCAM-shaped table (no corpus
// checker has one yet; the shape is aether's applications table).
func (l *ladder) lookupStages(run *engineRun, pkts []engine.Packet) {
	n := len(pkts)
	var tbl *pipeline.Table
	err := run.seq.Install(firewallKey, pkts[0].Hops[0].SwitchID, func(st *pipeline.State) error {
		tbl = st.Tables[firewallTable]
		return nil
	})
	hits := 0
	if err == nil && tbl != nil {
		l.chunked("pipeline.lookup_exact", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k := pipeline.PackedKey{uint64(pkts[i].Key.Src), uint64(pkts[i].Key.Dst)}
				if _, ok := tbl.LookupPacked(k); ok {
					hits++
				}
			}
		})
	}
	l.expect(hits == n, n, "%d of %d firewall lookups hit (install error: %v)", hits, n, err)

	tcam := pipeline.NewTable("applications",
		[]pipeline.KeySpec{
			{Name: "app_ipv4", Width: 32, Kind: pipeline.MatchLPM},
			{Name: "l4_port", Width: 16, Kind: pipeline.MatchRange},
			{Name: "ip_proto", Width: 8, Kind: pipeline.MatchTernary},
		},
		[]pipeline.FieldRef{"fabric.app_id"},
		[]pipeline.Value{pipeline.B(8, 0)})
	const entries = 32
	for i := 0; i < entries; i++ {
		err := tcam.Insert(pipeline.Entry{
			Keys: []pipeline.KeyMatch{
				pipeline.PrefixKey(uint64(i)<<27, 5),
				pipeline.RangeKey(0, 65535),
				pipeline.AnyKey(),
			},
			Priority: i,
			Action:   []pipeline.Value{pipeline.B(8, uint64(i+1))},
		})
		if err != nil {
			l.expect(false, n, "building the TCAM table: %v", err)
			return
		}
	}
	hits = 0
	l.chunked("pipeline.lookup_tcam", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k := pipeline.PackedKey{uint64(pkts[i].Key.Dst), uint64(pkts[i].Key.Dport), uint64(pkts[i].Key.Proto)}
			if _, ok := tcam.LookupPacked(k); ok {
				hits++
			}
		}
	})
	// The 32 /5 prefixes cover the whole address space.
	l.expect(hits == n, n, "%d of %d TCAM lookups hit", hits, n)
}

// busStages measures the report path: the whole-path counters of one
// storm repetition, then Publish and Flush on a bare bus.
func (l *ladder) busStages(chks []engine.Checker, pkts []engine.Packet, pairs [][2]uint32) error {
	n := len(pkts)
	storm, err := newEngineRun(chks, pkts, pairs, true)
	if err != nil {
		return err
	}
	warm, _ := storm.rep()
	l.verify("storm warm-up", warm)
	s, _ := storm.rep()
	l.sampled("engine.storm", s)
	m := storm.bus.Metrics()
	storm.close()
	l.ratio("reportbus.ring_drop_share", float64(m.Dropped), float64(m.Published))
	l.ratio("reportbus.aggregates_per_kdigest", 1000*float64(storm.exp.aggregates.Load()), float64(storm.exp.digests.Load()))

	exp := &countExporter{}
	bus := reportbus.New(reportbus.Config{Window: busWindow, Exporters: []reportbus.Exporter{exp}})
	prod := bus.RingProducer("bench")
	digests := make([]reportbus.Digest, n)
	for i := range pkts {
		hops := pkts[i].Hops
		digests[i] = reportbus.DigestFrom(firewallKey, hops[len(hops)-1].SwitchID, bus.Now(), pipeline.Report{
			Args: []pipeline.Value{pipeline.B(32, uint64(pkts[i].Key.Src)), pipeline.B(32, uint64(pkts[i].Key.Dst))},
		})
	}
	dropped := 0
	mallocs, _ := allocs(func() {
		for lo := 0; lo < n; lo += publishChunk {
			chunk := digests[lo:min(lo+publishChunk, n)]
			l.stage("reportbus.publish", len(chunk), func() {
				for i := range chunk {
					if !prod.Publish(chunk[i]) {
						dropped++
					}
				}
			})
			l.stage("reportbus.flush", len(chunk), bus.Flush)
		}
	})
	bus.Close()
	l.ratio("reportbus.allocs_per_digest", float64(mallocs), float64(n))
	bm := bus.Metrics()
	l.expect(dropped == 0 && exp.digests.Load() == uint64(n) && bm.Unaccounted() == 0, n,
		"bare bus: %d digests dropped, %d of %d exported, %d unaccounted", dropped, exp.digests.Load(), n, bm.Unaccounted())
	return nil
}

// ---------------------------------------------------------------------------
// netsim

func (l *ladder) netsimStages() error {
	n := l.opts.size(ladderWirePackets)
	pkts, pairs := campusTrace(n, l.opts.seed)
	for _, checked := range []bool{false, true} {
		name := "netsim.forward"
		if checked {
			name = "netsim.checked"
		}
		wr, err := newWireRun(pkts, pairs, checked)
		if err != nil {
			return err
		}
		warm, _ := wr.rep()
		l.verify(name+" warm-up", warm)
		events := wr.sim.Stats().EventsRun
		wr.schedule()
		var s sample
		mallocs, _ := allocs(func() { s = wr.run() })
		l.sampled(name, s)
		if !checked {
			continue
		}
		l.ratio("netsim.events_per_pkt", float64(wr.sim.Stats().EventsRun-events), float64(n))
		l.ratio("netsim.allocs_per_pkt", float64(mallocs), float64(n))
		var fast, slow uint64
		for _, sw := range wr.ls.AllSwitches() {
			fast += sw.FastTxFrames
			slow += sw.SlowTxFrames
		}
		l.ratio("netsim.fast_tx_share", float64(fast), float64(fast+slow))
	}
	return nil
}

// ---------------------------------------------------------------------------
// pcapio, dataplane, wireproto, fleet

func (l *ladder) fleetStages() error {
	w, err := findWorkload("fleet-campus")
	if err != nil {
		return err
	}
	n := l.opts.size(w.packets)
	pcap, err := renderCampusPcap(n, l.opts.seed)
	if err != nil {
		return err
	}

	// pcapio.read: the reader alone; a second, untimed pass keeps the
	// frames for the stages below.
	rd, err := pcapio.NewReader(bytes.NewReader(pcap))
	if err != nil {
		return err
	}
	got := 0
	l.chunked("pcapio.read", n, func(lo, hi int) {
		for i := lo; i < hi && err == nil; i++ {
			var frame []byte
			if _, frame, err = rd.Next(); err == nil {
				got++
				l.sink += len(frame)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("reading the capture: %w", err)
	}
	if rd, err = pcapio.NewReader(bytes.NewReader(pcap)); err != nil {
		return err
	}
	arena := make([]byte, 0, len(pcap))
	frames := make([][]byte, 0, n)
	for {
		_, f, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading the capture: %w", err)
		}
		arena = append(arena, f...) // never grows: the capture is larger than its frames
		frames = append(frames, arena[len(arena)-len(f):])
	}
	l.expect(got == n && len(frames) == n, n, "pcap reader returned %d, then %d, of %d frames", got, len(frames), n)

	// dataplane.parse as Ingest.load does it: one reused Decoded.
	keys := make([]dataplane.FlowKey, len(frames))
	parseErrs := 0
	var dec dataplane.Decoded
	mallocs, _ := allocs(func() {
		l.chunked("dataplane.parse", len(frames), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := dataplane.ParseInto(&dec, frames[i]); err != nil {
					parseErrs++
				}
				keys[i] = dataplane.FlowKeyOf(&dec)
			}
		})
	})
	// dataplane.append: re-serialise parsed frames into a reused buffer.
	scratch := make([]dataplane.Decoded, appendChunk)
	var buf []byte
	mismatched := 0
	for lo := 0; lo < len(frames); lo += appendChunk {
		chunk := frames[lo:min(lo+appendChunk, len(frames))]
		for i, f := range chunk {
			if err := dataplane.ParseInto(&scratch[i], f); err != nil {
				parseErrs++
			}
		}
		a, _ := allocs(func() {
			l.stage("dataplane.append", len(chunk), func() {
				for i := range chunk {
					buf = scratch[i].AppendTo(buf[:0])
					if !bytes.Equal(buf, chunk[i]) {
						mismatched++
					}
				}
			})
		})
		mallocs += a
	}
	l.ratio("dataplane.allocs_per_pkt", float64(mallocs), float64(len(frames)))
	l.expect(parseErrs == 0 && mismatched == 0, n, "%d parse errors, %d frames re-serialised differently", parseErrs, mismatched)

	// fleet.pathpin: the ECMP model and the worker choice.
	l.chunked("fleet.pathpin", len(keys), func(lo, hi int) {
		for _, k := range keys[lo:hi] {
			l.sink += len(experiments.ReplayPathFor(k)) + int(k.RSSHash()&1)
		}
	})

	// wireproto: batches of 256 framed into a buffer and read back. A
	// chunk is a whole number of batches.
	wp := make([]wireproto.Packet, len(keys))
	for i, k := range keys {
		hops := experiments.ReplayPathFor(k)
		wp[i] = wireproto.Packet{
			Src: uint32(k.Src), Dst: uint32(k.Dst), Sport: k.Sport, Dport: k.Dport, Proto: k.Proto,
			Len: uint32(len(frames[i])), Hops: make([]wireproto.Hop, len(hops)),
		}
		for j, h := range hops {
			wp[i].Hops[j] = wireproto.Hop{Switch: h.SwitchID, In: h.InPort, Out: h.OutPort}
		}
	}
	var stream bytes.Buffer
	fw := wireproto.NewWriter(&stream)
	var payload []byte
	l.chunked("wireproto.encode", len(wp), func(lo, hi int) {
		for ; lo < hi && err == nil; lo += batchSize {
			if payload, err = wireproto.AppendPacketBatch(payload[:0], wp[lo:min(lo+batchSize, hi)]); err == nil {
				err = fw.WriteFrame(wireproto.TypePacketBatch, payload)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("encoding the packet batch stream: %w", err)
	}
	l.ratio("wireproto.bytes_per_pkt", float64(stream.Len()), float64(len(wp)))

	fr := wireproto.NewReader(bytes.NewReader(stream.Bytes()))
	var d wireproto.BatchDecoder
	decoded := 0
	l.chunked("wireproto.decode", len(wp), func(lo, hi int) {
		for decoded < hi && err == nil {
			var f wireproto.Frame
			if f, err = fr.ReadFrame(); err != nil {
				return
			}
			err = d.Reset(f.Payload)
			for err == nil {
				var p *wireproto.Packet
				if p, err = d.Next(); p == nil {
					break
				}
				decoded++
				l.sink += int(p.Len)
			}
			f.Release()
		}
	})
	if err != nil {
		return fmt.Errorf("decoding the packet batch stream: %w", err)
	}
	l.expect(decoded == len(wp), n, "decoded %d of %d packets", decoded, len(wp))

	if err := l.aggStage(keys); err != nil {
		return err
	}
	return l.fleetSessions(pcap, n)
}

// aggStage writes pre-encoded AggBatch frames to an Agg over loopback
// and times until the aggregator has merged all of them.
func (l *ladder) aggStage(keys []dataplane.FlowKey) error {
	var encoded bytes.Buffer
	fw := wireproto.NewWriter(&encoded)
	total := 0
	batch := fleet.AggBatch{Session: 1}
	flush := func() error {
		data, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		total += len(batch.Aggs)
		batch.Aggs = batch.Aggs[:0]
		return fw.WriteFrame(wireproto.TypeAggBatch, data)
	}
	for i := 0; i < len(keys); i += aggEveryNthPacket {
		k := keys[i]
		batch.Aggs = append(batch.Aggs, reportbus.Aggregate{
			Checker: firewallKey, SwitchID: 2, Args: []uint64{uint64(k.Src), uint64(k.Dst)},
			Count: 1, FirstAt: int64(i), LastAt: int64(i),
		})
		if len(batch.Aggs) == aggBatchAggregates {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(batch.Aggs) > 0 {
		if err := flush(); err != nil {
			return err
		}
	}

	reg := metrics.NewRegistry()
	agg := fleet.NewAgg(fleet.AggConfig{Node: "bench-agg", Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = agg.Serve(ln) }() // returns the listener's close error
	defer func() { ln.Close(); <-done }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	merged := func() (float64, error) {
		var text bytes.Buffer
		if err := reg.WritePrometheus(&text); err != nil {
			return 0, err
		}
		vals, err := promValues(text.String())
		return vals["hydra_agg_digests_total"], err
	}
	deadline := time.Now().Add(sessionWait)
	l.stage("fleet.agg", total, func() {
		if _, err = conn.Write(encoded.Bytes()); err != nil {
			return
		}
		for {
			var got float64
			if got, err = merged(); err != nil || got >= float64(total) || time.Now().After(deadline) {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	})
	if err != nil {
		return err
	}
	rep := agg.Report()
	l.expect(rep.ReceivedDigests == uint64(total), total, "aggregator merged %d of %d digests", rep.ReceivedDigests, total)
	return nil
}

// fleetSessions runs whole fleet sessions with a bench-owned metrics
// registry, for the counters only the running daemons can give.
func (l *ladder) fleetSessions(pcap []byte, n int) error {
	var sendSec, checkSec float64
	var scrapeErr error
	fr := &fleetRun{pcap: pcap, packets: n, scrape: func(text string) {
		vals, err := promValues(text)
		if err != nil {
			scrapeErr = err
		}
		sendSec = vals["hydra_ingest_send_seconds_sum"]
		checkSec = vals["hydra_worker_batch_seconds_sum"]
	}}
	for i := -1; i < ladderSessions; i++ {
		s, err := fr.rep()
		if err != nil {
			return err
		}
		if scrapeErr != nil {
			return scrapeErr
		}
		if i < 0 { // warm-up session
			l.verify("fleet warm-up", s)
			continue
		}
		l.tr.add("fleet.session", l.cur, l.round, int(s.packets), s.start, s.wall)
		l.verify("fleet.session", s)
		l.fleet.add(s)
		l.sendSec += sendSec
		l.checkSec += checkSec
		l.ratio("fleet.digests_per_kpkt", 1000*float64(fr.lastReport.ReceivedDigests), float64(s.packets))
		l.ratio("fleet.acked_share", float64(fr.lastStats.Acked), float64(fr.lastStats.Packets))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Results

// ladderSumStages are the fleet path's stages the ladder can price one
// at a time; what fleet-campus costs beyond their sum is unexplained.
var ladderSumStages = []string{
	"pcapio.read_ns_per_pkt",
	"dataplane.parse_ns_per_pkt",
	"fleet.pathpin_ns_per_pkt",
	"wireproto.encode_ns_per_pkt",
	"wireproto.decode_ns_per_pkt",
	"fleet.worker_check_ns_per_pkt",
}

// values turns spans and counters into the per-layer metrics.
func (l *ladder) values(calib float64) (map[string]float64, error) {
	// cost holds, per span name, every span's self time per item.
	self := selfTimes(l.tr.spans)
	cost := map[string][]float64{}
	for i, s := range l.tr.spans {
		if s.Items > 0 {
			cost[s.Name] = append(cost[s.Name], float64(self[i])/float64(s.Items))
		}
	}
	quiet := func(stage string) (float64, error) {
		if len(cost[stage]) == 0 {
			return 0, fmt.Errorf("stage %q processed no items", stage)
		}
		return percentile(cost[stage], quietCost), nil
	}

	out := map[string]float64{}
	for name, a := range l.acc {
		if a[1] == 0 {
			return nil, fmt.Errorf("metric %q has a zero denominator", name)
		}
		out[name] = a[0] / a[1]
	}
	for _, d := range perLayer() {
		if d.stage == "" {
			continue
		}
		v, err := quiet(d.stage)
		if err != nil {
			return nil, err
		}
		out[d.Name] = v * d.scale
	}
	empty := out["engine.empty_ns_per_pkt"]
	for _, p := range checkers.All {
		v, err := quiet("engine.checker." + p.Key)
		if err != nil {
			return nil, err
		}
		out["engine.checker."+p.Key+"_ns_per_pkt"] = v - empty
	}
	// A traced chunk's calls are its children, so what tracing costs is
	// what the chunk takes as a whole against an untraced chunk.
	var callUS, tracedChunk []float64
	for _, s := range l.tr.spans {
		switch s.Name {
		case batchCallSpan:
			callUS = append(callUS, float64(s.End-s.Start)/1e3)
		case tracedPassSpan:
			tracedChunk = append(tracedChunk, float64(s.End-s.Start)/float64(s.Items))
		}
	}
	l.batchCalls = len(callUS)
	out["engine.batch_us_p50"] = percentile(callUS, 50)
	out["engine.batch_us_p99"] = percentile(callUS, 99)
	out["trace.overhead_share"] = percentile(tracedChunk, quietCost)/out["engine.batch_ns_per_pkt"] - 1
	out["host.calib_ns_per_op"] = calib

	// The traced sessions are priced like the fleet-campus workload:
	// cpu is its cpu_ns_per_pkt, computed the same way, and what the
	// daemons timed inside the sessions is a share of the sessions' wall
	// time at the quiet host's speed, as CPU time is.
	if l.fleet.packets == 0 {
		return nil, fmt.Errorf("no fleet session was traced")
	}
	perQuietPacket := 1e9 / l.fleet.pps() / l.fleet.wall.Seconds()
	out["fleet.ingest_send_ns_per_pkt"] = l.sendSec * perQuietPacket
	out["fleet.worker_check_ns_per_pkt"] = l.checkSec * perQuietPacket
	var sum float64
	for _, name := range ladderSumStages {
		sum += out[name]
	}
	out["fleet.ladder_sum_ns_per_pkt"] = sum
	out["fleet.unexplained_ns_per_pkt"] = l.fleet.cpuPerPacket() - sum
	return out, nil
}

// print renders every per-layer metric and the two gap ladders.
func (l *ladder) print(out io.Writer, workload string, v map[string]float64) {
	fmt.Fprintf(out, "%s traced stage ladder, seed=%d rounds=%d", workload, l.opts.seed, l.round)
	if l.opts.quick {
		fmt.Fprint(out, " QUICK: sizes shrunk, not comparable with full runs")
	}
	fmt.Fprintf(out, "\n  (layers are measured on the seed's campus inputs; the values do not depend on -workload)\n")
	for _, d := range perLayer() {
		fmt.Fprintf(out, "  %-46s %14.3f %s\n", d.Name, v[d.Name], d.Unit)
	}
	fmt.Fprintf(out, "  engine.batch call times: %d samples; engine.shardedN ran %d shards\n", l.batchCalls, runtime.GOMAXPROCS(0))

	row := func(label string, ns float64, note string) {
		fmt.Fprintf(out, "    %-44s %10.0f ns/pkt  %s\n", label, ns, note)
	}
	fmt.Fprintln(out, "  why wire-campus is slower than engine-campus (3 switch hops per packet):")
	row("engine.batch", v["engine.batch_ns_per_pkt"], "bytecode VM, checker-major batches: what engine-campus runs")
	row("engine.hopmajor", v["engine.hopmajor_ns_per_pkt"], "linked closures, hop-major, telemetry codec per hop: the executor netsim runs")
	row("netsim.forward", v["netsim.forward_ns_per_pkt"], "no checkers: host send, 3x(parse, forward, serialise), event heap")
	row("  of which dataplane parse+append x3", hopsPerPacket*(v["dataplane.parse_ns_per_pkt"]+v["dataplane.append_ns_per_pkt"]), "")
	row("netsim.checked", v["netsim.checked_ns_per_pkt"], "all checkers attached: what wire-campus runs")
	row("  checking on the wire path", v["netsim.checked_ns_per_pkt"]-v["netsim.forward_ns_per_pkt"], "checked - forward; compare engine.hopmajor and engine.batch")

	fmt.Fprintln(out, "  why fleet-campus costs more CPU than engine-campus:")
	for _, name := range ladderSumStages {
		row(strings.TrimSuffix(name, "_ns_per_pkt"), v[name], "")
	}
	cpu := v["fleet.ladder_sum_ns_per_pkt"] + v["fleet.unexplained_ns_per_pkt"]
	row("fleet.ladder_sum", v["fleet.ladder_sum_ns_per_pkt"], "")
	row("cpu_ns_per_pkt of the traced fleet sessions", cpu,
		fmt.Sprintf("%d sessions, %.3f busy cores / %.0f pps (all timed CPU / all packets: %.0f)",
			len(l.fleet.reps), l.fleet.busy(), l.fleet.pps(), l.fleet.rawCPUPerPacket()))
	row("fleet.unexplained", v["fleet.unexplained_ns_per_pkt"],
		fmt.Sprintf("%.0f%% of the CPU: sockets, JSON, credits, hand-offs, GC, per-session seed install, bus collector", 100*v["fleet.unexplained_ns_per_pkt"]/cpu))
	fmt.Fprintf(out, "  operations: %d attempted, %d failed\n", l.attempted, l.failed)
	for _, r := range l.rules {
		fmt.Fprintf(out, "  BROKEN %s\n", r)
	}
}
