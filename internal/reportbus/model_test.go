package reportbus

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// refBus is the bus's reference semantics: a string-keyed map of
// aggregate pointers, a map of overflow buckets, and a full sort of each
// closed window by (checker, switch, argument words, ArgsHash). Rings are
// plain queues of the same capacity, drained in registration order; a
// digest a full queue turns away goes to its producer's spill, a list by
// (checker, switch) with counts and no words. A sweep folds the queues,
// then the spills into overflow buckets; nothing is dropped.
type refBus struct {
	cfg         Config
	live        map[Key]*Aggregate
	ovf         map[Key]*Aggregate // ArgsHash always 0
	buckets     map[string]*bucket
	checkers    map[string]*checkerStats
	windowStart int64
	windowOpen  bool
	liveDigests uint64
	maxLive     int

	producers []*refProducer
	taps      []Digest
	batches   [][]Aggregate
}

type refProducer struct {
	name     string
	ring     bool
	queue    []Digest
	enqueued uint64
	spilled  uint64
	// spill is in first-seen order; an entry's At is the last raise it
	// stands for.
	spill []refSpilled
}

type refSpilled struct {
	d     Digest
	first int64
	n     uint64
}

func newRefBus(cfg Config) *refBus {
	return &refBus{cfg: cfg.withDefaults(), live: map[Key]*Aggregate{}, ovf: map[Key]*Aggregate{},
		buckets: map[string]*bucket{}, checkers: map[string]*checkerStats{}}
}

func (b *refBus) producer(name string, ring bool) *refProducer {
	p := &refProducer{name: name, ring: ring}
	b.producers = append(b.producers, p)
	return p
}

func (b *refBus) publish(p *refProducer, d Digest) bool {
	if !p.ring {
		p.enqueued++
		b.fold(d)
		var emitted []Aggregate
		if b.windowOpen && d.At-b.windowStart >= int64(b.cfg.Window) {
			emitted = b.closeWindow(d.At, false)
		}
		b.taps = append(b.taps, d)
		b.export(emitted)
		return true
	}
	p.enqueued++
	if len(p.queue) < ringCap(b.cfg.RingSize) {
		p.queue = append(p.queue, d)
		return true
	}
	p.spilled++
	i := slices.IndexFunc(p.spill, func(s refSpilled) bool { return s.d.Checker == d.Checker && s.d.SwitchID == d.SwitchID })
	if i < 0 {
		p.spill, i = append(p.spill, refSpilled{d: Digest{Checker: d.Checker, SwitchID: d.SwitchID, At: d.At}, first: d.At}), len(p.spill)
	}
	s := &p.spill[i]
	s.n++
	s.first, s.d.At = min(s.first, d.At), max(s.d.At, d.At)
	return false
}

func ringCap(size int) int {
	n := 1
	for n < size {
		n <<= 1
	}
	return n
}

func (b *refBus) fold(d Digest) { b.foldN(d, d.At, 1, false) }

// foldN folds n digests with d's key, raised between first and d.At;
// overflow sends them to their (checker, switch) bucket whatever the
// live table holds.
func (b *refBus) foldN(d Digest, first int64, n uint64, overflow bool) {
	st := b.checkers[d.Checker]
	if st == nil {
		st = &checkerStats{}
		b.checkers[d.Checker] = st
	}
	st.delivered += n
	if !b.windowOpen {
		b.windowOpen = true
		b.windowStart = first
	}
	k := Key{Checker: d.Checker, SwitchID: d.SwitchID, ArgsHash: d.ArgsHash}
	agg := b.live[k]
	switch {
	case overflow:
		agg = nil
	case agg != nil:
	case len(b.live) < b.cfg.MaxKeys:
		agg = &Aggregate{Checker: d.Checker, SwitchID: d.SwitchID, ArgsHash: d.ArgsHash,
			Args: slices.Clone(d.Args[:d.NArgs:d.NArgs]), FirstAt: first, LastAt: d.At}
		if agg.Args == nil {
			agg.Args = []uint64{}
		}
		b.live[k] = agg
	}
	if agg == nil {
		ok := Key{Checker: d.Checker, SwitchID: d.SwitchID}
		if agg = b.ovf[ok]; agg == nil {
			agg = &Aggregate{Checker: d.Checker, SwitchID: d.SwitchID, FirstAt: first, LastAt: d.At, Overflow: true}
			b.ovf[ok] = agg
		}
		st.overflowDigests += n
	}
	agg.Count += n
	agg.FirstAt, agg.LastAt = min(agg.FirstAt, first), max(agg.LastAt, d.At)
	b.liveDigests += n
	b.maxLive = max(b.maxLive, len(b.live)+len(b.ovf))
}

func refCompare(a, c *Aggregate) int {
	return cmp.Or(strings.Compare(a.Checker, c.Checker), cmp.Compare(a.SwitchID, c.SwitchID),
		slices.Compare(a.Args, c.Args), cmp.Compare(a.ArgsHash, c.ArgsHash))
}

func (b *refBus) closeWindow(now int64, force bool) []Aggregate {
	var out []Aggregate
	for _, m := range []map[Key]*Aggregate{b.live, b.ovf} {
		aggs := make([]*Aggregate, 0, len(m))
		for _, agg := range m {
			aggs = append(aggs, agg)
		}
		slices.SortFunc(aggs, refCompare)
		for _, agg := range aggs {
			bk := b.buckets[agg.Checker]
			if bk == nil {
				bk = &bucket{tokens: float64(b.cfg.Burst), last: now}
				b.buckets[agg.Checker] = bk
			}
			st := b.checkers[agg.Checker]
			if !force && !bk.take(now, b.cfg.Rate, float64(b.cfg.Burst)) {
				agg.Deferred++
				st.suppressed++
				continue
			}
			out = append(out, *agg)
			st.emittedAggregates++
			st.emittedDigests += agg.Count
			b.liveDigests -= agg.Count
			delete(m, Key{Checker: agg.Checker, SwitchID: agg.SwitchID, ArgsHash: agg.ArgsHash})
		}
	}
	b.windowOpen = len(b.live)+len(b.ovf) > 0
	b.windowStart = now
	return out
}

func (b *refBus) export(aggs []Aggregate) {
	if len(aggs) > 0 {
		b.batches = append(b.batches, aggs)
	}
}

func (b *refBus) sweep(now int64, force bool) {
	var drained []Digest
	for _, p := range b.producers {
		drained = append(drained, p.queue...)
		p.queue = p.queue[:0]
	}
	for _, d := range drained {
		b.fold(d)
	}
	for _, p := range b.producers {
		for _, s := range p.spill {
			b.foldN(s.d, s.first, s.n, true)
			for range s.n {
				drained = append(drained, s.d)
			}
		}
		p.spill = nil
	}
	var emitted []Aggregate
	if force {
		emitted = b.closeWindow(now, true)
	} else if b.windowOpen && now-b.windowStart >= int64(b.cfg.Window) {
		emitted = b.closeWindow(now, false)
	}
	b.taps = append(b.taps, drained...)
	b.export(emitted)
}

func (b *refBus) metrics() Metrics {
	m := Metrics{Checkers: map[string]CheckerMetrics{}, LiveAggregates: len(b.live) + len(b.ovf),
		MaxLiveAggregates: b.maxLive, LiveDigests: b.liveDigests}
	for _, p := range b.producers {
		m.Producers = append(m.Producers, ProducerMetrics{Name: p.name, Enqueued: p.enqueued, Spilled: p.spilled, QueueDepth: len(p.queue)})
		m.Published += p.enqueued
		m.Spilled += p.spilled
	}
	for name, st := range b.checkers {
		m.Checkers[name] = CheckerMetrics{Delivered: st.delivered,
			EmittedAggregates: st.emittedAggregates, EmittedDigests: st.emittedDigests,
			Suppressed: st.suppressed, OverflowDigests: st.overflowDigests}
		m.Delivered += st.delivered
		m.EmittedDigests += st.emittedDigests
	}
	return m
}

// batchExporter copies every batch on receipt, its Args included, as the
// Exporter contract asks. The bus fills the storage of a returned batch
// again for a later window, so an exporter that kept a lent batch — a
// copy that shared its Args, say — shows when runBusOps compares every
// batch again at the end.
// It counts the lent aggregates whose Args have room past their words.
type batchExporter struct {
	batches [][]Aggregate
	roomy   int
}

func (e *batchExporter) ExportAggregates(aggs []Aggregate) {
	kept := slices.Clone(aggs)
	for i := range kept {
		if a := &kept[i]; a.Args != nil {
			if cap(a.Args) != len(a.Args) {
				e.roomy++
			}
			a.Args = append(make([]uint64, 0, len(a.Args)), a.Args...)
		}
	}
	e.batches = append(e.batches, kept)
}

var (
	modelCheckers = [3]string{"acl", "loop", "waypoint"}
	modelSwitches = [3]uint32{0, 5, 0xffffffff}
	modelWords    = [4]uint64{0, 1, 2, 1 << 63}
)

// runBusOps drives a Bus and the reference with one op stream and
// compares them after every op: the exported batches in order, field by
// field (a live aggregate's Args non-nil, an overflow bucket's nil), the
// tapped digests, and Metrics; and Unaccounted() == 0 wherever the rings
// are empty. data[0] picks MaxKeys (1–6), the storm budget and the ring
// size (4, 1, 2 or 3); then each op is three bytes.
func runBusOps(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	cfg := Config{Window: 100, RingSize: [4]int{4, 1, 2, 3}[data[0]/54%4], MaxKeys: 1 + int(data[0])%6}
	switch data[0] / 6 % 3 {
	case 1: // Burst emissions per checker, then next to no refill
		cfg.Rate, cfg.Burst = 1e-9, 1+int(data[0])/18%3
	case 2: // one token per window's length
		cfg.Rate, cfg.Burst = 1e7, 1+int(data[0])/18%3
	}
	clk := &manualClock{}
	cfg.Clock = clk.fn()
	sink := &batchExporter{}
	cfg.Exporters = []Exporter{sink}
	bus, ref := New(cfg), newRefBus(cfg)
	var tapped []Digest
	bus.Tap(func(d Digest) { tapped = append(tapped, d) })
	prods := []*Producer{bus.InlineProducer("inline"), bus.RingProducer("ring0"), bus.RingProducer("ring1")}
	refProds := []*refProducer{ref.producer("inline", false), ref.producer("ring0", true), ref.producer("ring1", true)}

	// seen is the batches and taps already compared; the final check
	// compares every batch again, so a bus that wrote into an emitted
	// batch's storage later shows there.
	var seen struct{ batches, taps int }
	check := func(step string, drained bool) {
		t.Helper()
		if !reflect.DeepEqual(sink.batches[seen.batches:], ref.batches[seen.batches:]) {
			t.Fatalf("%s: batches differ\n bus: %+v\n ref: %+v", step, sink.batches, ref.batches)
		}
		if !slices.Equal(tapped[seen.taps:], ref.taps[seen.taps:]) {
			t.Fatalf("%s: taps differ\n bus: %+v\n ref: %+v", step, tapped, ref.taps)
		}
		if sink.roomy > 0 {
			t.Fatalf("%s: %d lent aggregates' Args have room past their words, an exporter's append would write over the next one's", step, sink.roomy)
		}
		seen.batches, seen.taps = len(ref.batches), len(ref.taps)
		m := bus.Metrics()
		if want := ref.metrics(); !reflect.DeepEqual(m, want) {
			t.Fatalf("%s: metrics differ\n bus: %+v\n ref: %+v", step, m, want)
		}
		if drained && m.Unaccounted() != 0 {
			t.Fatalf("%s: %d digests unaccounted", step, m.Unaccounted())
		}
	}
	for pc := 1; pc+2 < len(data); pc += 3 {
		op, sel, val := data[pc], data[pc+1], data[pc+2]
		step := fmt.Sprintf("op %d (%d %d %d)", (pc-1)/3, op, sel, val)
		drained := false
		publish := func(pi int, sel, val byte) {
			t.Helper()
			args := make([]pipeline.Value, int(sel/9)%9)
			for i := range args {
				args[i] = pipeline.B(64, modelWords[val>>(2*(i%4))&3])
			}
			at := clk.read() - int64(val%5)
			d := DigestFrom(modelCheckers[sel%3], modelSwitches[sel/3%3], at, pipeline.Report{Args: args})
			if op>>6 == 3 {
				d.ArgsHash = uint64(val % 4) // distinct words may share a hash
			}
			if got, want := prods[pi].Publish(d), ref.publish(refProds[pi], d); got != want {
				t.Fatalf("%s: Publish = %t, reference %t", step, got, want)
			}
		}
		switch kind := op % 16; {
		case kind < 9 && op>>4&3 == 3:
			// A burst into one ring: past a small ring's capacity, over
			// checkers and switches that repeat.
			for i := range 2 + int(val%11) {
				publish(1+int(sel&1), sel+byte(i%3)*9, val+byte(i/2))
			}
		case kind < 9:
			publish(int(op>>4&3), sel, val)
		case kind < 12:
			clk.set(clk.read() + int64(val))
		case kind == 12:
			bus.sweep(false)
			ref.sweep(clk.read(), false)
			drained = true
		case kind == 13:
			bus.Flush()
			ref.sweep(clk.read(), true)
			drained = true
		case kind == 14:
			bus.Close()
			ref.sweep(clk.read(), true)
			drained = true
		default:
			clk.set(clk.read() + int64(val%8))
			bus.sweep(false)
			ref.sweep(clk.read(), false)
			drained = true
		}
		check(step, drained)
	}
	bus.Close()
	ref.sweep(clk.read(), true)
	seen.batches, seen.taps = 0, 0
	check("final Close", true)
	if m := bus.Metrics(); m.LiveDigests != 0 || m.LiveAggregates != 0 {
		t.Fatalf("after Close: %d digests in %d aggregates still live", m.LiveDigests, m.LiveAggregates)
	}
}

// TestBusModel runs long random op streams against the reference for
// every key cap, storm budget and ring size.
func TestBusModel(t *testing.T) {
	for c := 0; c < 4*54; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		data := make([]byte, 1+3*600)
		rng.Read(data)
		data[0] = byte(c)
		t.Run(fmt.Sprintf("cfg%d", c), func(t *testing.T) { runBusOps(t, data) })
	}
}

// FuzzBusOps is TestBusModel's driver under the fuzzer. The named seeds
// under testdata/fuzz/FuzzBusOps are regression inputs: seed_ring_burst_*
// spill past rings of 1 and 2 slots.
func FuzzBusOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0x10, 9, 2, 9, 0, 150, 0, 0, 1, 12, 0, 0})
	f.Add([]byte{13, 0xc0, 80, 3, 0xc0, 81, 2, 0x20, 1, 5, 9, 0, 200, 15, 0, 9, 14, 0, 0})
	f.Fuzz(runBusOps)
}
