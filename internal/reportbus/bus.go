package reportbus

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Bus is one violation-digest pipeline: a set of producers feeding a
// windowed, storm-controlled aggregation table that emits to exporters.
//
// Two ingest disciplines coexist on one bus. Ring producers are for
// concurrent sources (engine shards): each owns an SPSC ring drained by
// the collector goroutine (Start) or by explicit Flush/Close. Inline
// producers are for single-threaded embedders (the netsim event loop
// via the control plane): Publish delivers under the bus mutex and the
// per-digest taps fire before it returns, so a simulation's reactive
// control logic sees a report at the instant it is raised.
type Bus struct {
	cfg Config

	mu        sync.Mutex
	producers []*Producer
	// live is the aggregate table of the open window plus storm-deferred
	// carryover: dense, in arrival order, at most MaxKeys entries, its
	// storage allocated once. index is an open-addressing table over it
	// (position+1, 0 empty), twice MaxKeys rounded up to a power of two,
	// probed from a hash of the seeded ArgsHash and the switch — never of
	// the raw words, so chosen header fields cannot build a probe run.
	// ovf holds the per-(checker, switch) overflow buckets that absorb
	// digests once live is full.
	live  []entry
	index []int32
	shift uint
	ovf   []entry
	// checkers holds each checker's counters and storm bucket; ranked is
	// the same records in name order (checkerStats.rank), and last is the
	// record the previous digest hit, so a run of one checker's digests
	// skips the map.
	checkers    map[string]*checkerStats
	ranked      []*checkerStats
	last        *checkerStats
	keys        []sortKey
	windowStart int64
	windowOpen  bool
	liveDigests uint64
	maxLive     int

	// taps observe every delivered digest pre-aggregation (Tap).
	// Append-only.
	taps []func(Digest)

	started bool
	stop    chan struct{}
	done    chan struct{}
	// wake is the one-slot channel a ring at half full sends on (ring.push)
	// and the collector sweeps on.
	wake chan struct{}

	// spare is the batch the next closing window fills: the bus lends it
	// to the exporters and export puts it back. One in steady state; a
	// close that finds none (a concurrent or re-entrant export holds it)
	// makes another, and whichever comes back last stays.
	spare atomic.Pointer[batch]

	// sweepMu serializes whole sweeps; scratch and spilled are the drain
	// buffers they share. Held across the post-mutex tap/export phase so
	// drained digests are not clobbered by the next sweep mid-tap.
	sweepMu sync.Mutex
	scratch []Digest
	spilled []Aggregate
}

// batch is one closed window's emission, lent to the exporters until
// they return: the aggregates and the arena their Args are carved from,
// each grown to its high-water mark and reused by later windows.
type batch struct {
	aggs  []Aggregate
	arena []uint64
}

// entry is one aggregate in the table, its argument words inline; the
// emitted Aggregate's Args are carved from the window's arena. Count 0
// marks an entry emitted by the closing window.
type entry struct {
	Aggregate
	st    *checkerStats
	nargs uint8
	args  [MaxArgs]uint64
}

// add folds n digests raised between first and last into a.
func (a *Aggregate) add(first, last int64, n uint64) {
	a.Count += n
	a.FirstAt = min(a.FirstAt, first)
	a.LastAt = max(a.LastAt, last)
}

// sortKey is an entry's place in emission order, compact: checker rank
// and switch, then the first argument word (0 when there is none); pos
// is the entry's index. Equal keys are ordered by compareEntries.
type sortKey struct {
	hi, arg0 uint64
	pos      int32
}

func (e *entry) sortKey(pos int) sortKey {
	k := sortKey{hi: uint64(e.st.rank)<<32 | uint64(e.SwitchID), pos: int32(pos)}
	if e.nargs > 0 {
		k.arg0 = e.args[0]
	}
	return k
}

type checkerStats struct {
	name string
	rank int
	// bk is the checker's storm-control token bucket, set up the first
	// time one of its aggregates comes up for emission.
	bk                bucket
	hasBucket         bool
	delivered         uint64
	emittedAggregates uint64
	emittedDigests    uint64
	suppressed        uint64
	overflowDigests   uint64
}

// bucket is a token bucket over bus-clock nanoseconds.
type bucket struct {
	tokens float64
	last   int64
}

func (bk *bucket) take(now int64, rate, burst float64) bool {
	if rate <= 0 {
		return true
	}
	if el := now - bk.last; el > 0 {
		bk.tokens += float64(el) * rate / 1e9
		if bk.tokens > burst {
			bk.tokens = burst
		}
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return true
	}
	return false
}

// New builds a bus; see Config for defaults.
func New(cfg Config) *Bus {
	cfg = cfg.withDefaults()
	slots := 2
	for slots < 2*cfg.MaxKeys {
		slots <<= 1
	}
	return &Bus{
		cfg:      cfg,
		live:     make([]entry, 0, cfg.MaxKeys),
		index:    make([]int32, slots),
		shift:    uint(64 - bits.TrailingZeros(uint(slots))),
		keys:     make([]sortKey, 0, cfg.MaxKeys),
		checkers: map[string]*checkerStats{},
		wake:     make(chan struct{}, 1),
	}
}

// Tap registers a per-digest observer. Every digest reaches every tap
// exactly once. It runs outside the bus mutex, on the publisher
// goroutine (inline producers) or on the goroutine that drains the
// rings (ring producers: the collector, Flush or Close). A digest that
// spilled past a full ring reaches the taps from the sweep that folds
// its spill entry, carrying only its checker, its switch and the
// entry's last At: its words are gone (Metrics.Spilled counts these).
// Register taps before publishing begins; digests already in flight may
// miss a late tap.
func (b *Bus) Tap(fn func(Digest)) {
	b.mu.Lock()
	b.taps = append(b.taps, fn)
	b.mu.Unlock()
}

// Now reads the bus clock.
func (b *Bus) Now() int64 { return b.cfg.Clock() }

// ---------------------------------------------------------------------------
// Producers

// Producer is one registered digest source.
type Producer struct {
	bus  *Bus
	name string
	// r is nil for inline producers. A ring producer's enqueued count is
	// its ring's tail plus its spill's; an inline producer's is enqueued,
	// under the bus mutex.
	r        *ring
	enqueued uint64
	// spill takes what a full ring cannot. The path is cold (it only runs
	// once the bounded ring is already full), so a mutex is fine there.
	spillMu sync.Mutex
	spill   spill
}

// spill is a ring producer's fold for the digests its full ring turns
// away, until the next sweep takes it: one overflow aggregate per
// (checker, switch), with the count and the first and last At. The
// argument words are gone, as in the bus's own overflow buckets, where
// the sweep folds these. A table of 64 whole digests in front of these
// kept 2–7 % of engine-storm's spilled digests with their words, since
// nearly every storm digest has a key of its own (E45), so there is
// none. The entries keep their storage across sweeps: spilling
// allocates nothing once each (checker, switch) has spilled.
type spill struct {
	aggs []Aggregate
	// total is every digest ever spilled; it counts in Published.
	total uint64
}

func (s *spill) fold(d *Digest) {
	s.total++
	for i := range s.aggs {
		if a := &s.aggs[i]; a.SwitchID == d.SwitchID && a.Checker == d.Checker {
			a.add(d.At, d.At, 1)
			return
		}
	}
	s.aggs = append(s.aggs, Aggregate{Checker: d.Checker, SwitchID: d.SwitchID, Count: 1, FirstAt: d.At, LastAt: d.At, Overflow: true})
}

// ProducerMetrics is one producer's ingest accounting.
type ProducerMetrics struct {
	Name string
	// Enqueued counts every digest the producer published, Spilled ones
	// included; Spilled are those its full ring turned into its spill,
	// which lost their words. Dropped is always 0: a full ring spills, it
	// does not drop.
	Enqueued uint64
	Spilled  uint64
	Dropped  uint64
	// QueueDepth is a racy snapshot of digests waiting in the ring
	// (always 0 for inline producers).
	QueueDepth int
}

// RingProducer registers a producer with its own bounded SPSC ring.
// Publish must stay single-goroutine per producer; the collector is the
// only consumer.
func (b *Bus) RingProducer(name string) *Producer {
	p := &Producer{bus: b, name: name, r: newRing(b.cfg.RingSize, b.wake)}
	b.mu.Lock()
	b.producers = append(b.producers, p)
	b.mu.Unlock()
	return p
}

// InlineProducer registers a producer that delivers synchronously under
// the bus mutex — safe from any goroutine, intended for single-threaded
// embedders that need the per-digest tap to fire before Publish returns.
func (b *Bus) InlineProducer(name string) *Producer {
	p := &Producer{bus: b, name: name}
	b.mu.Lock()
	b.producers = append(b.producers, p)
	b.mu.Unlock()
	return p
}

// Publish hands one digest to the bus; no digest is lost. An inline
// producer folds it before returning, and every tap has seen it. A ring
// producer enqueues it; when the ring is full the digest spills into
// the producer's spill instead, without its words, and Publish reports
// false. The next sweep takes the spill and fires the taps once per
// spilled digest (see Tap).
func (p *Producer) Publish(d Digest) bool {
	b := p.bus
	if p.r == nil {
		b.mu.Lock()
		p.enqueued++
		b.fold(&d)
		emitted := b.maybeCloseWindow(d.At)
		taps := b.taps
		b.mu.Unlock()
		for _, tap := range taps {
			tap(d)
		}
		b.export(emitted)
		return true
	}
	if !p.r.push(&d) {
		p.spillMu.Lock()
		p.spill.fold(&d)
		p.spillMu.Unlock()
		return false
	}
	return true
}

// metrics is p's ingest accounting. Caller holds b.mu.
func (p *Producer) metrics() ProducerMetrics {
	if p.r == nil {
		return ProducerMetrics{Name: p.name, Enqueued: p.enqueued}
	}
	p.spillMu.Lock()
	spilled := p.spill.total
	p.spillMu.Unlock()
	return ProducerMetrics{Name: p.name, Enqueued: p.r.tail.Load() + spilled, Spilled: spilled, QueueDepth: p.r.depth()}
}

// ---------------------------------------------------------------------------
// Collection

// fold merges one digest into the aggregate table: its key's entry, a
// new entry while the table has room, else its (checker, switch)
// overflow bucket. Caller holds b.mu.
func (b *Bus) fold(d *Digest) {
	st := b.open(d.Checker, d.At, 1)
	mask := len(b.index) - 1
	for i := b.slot(d.SwitchID, d.ArgsHash); ; i = (i + 1) & mask {
		pos := b.index[i]
		if pos == 0 {
			if len(b.live) < b.cfg.MaxKeys {
				b.index[i] = int32(len(b.live) + 1)
				b.live = append(b.live, entry{
					Aggregate: Aggregate{Checker: d.Checker, SwitchID: d.SwitchID, ArgsHash: d.ArgsHash,
						Count: 1, FirstAt: d.At, LastAt: d.At},
					st: st, nargs: d.NArgs, args: d.Args,
				})
				b.maxLive = max(b.maxLive, len(b.live)+len(b.ovf))
			} else {
				b.overflow(st, d.SwitchID, d.At, d.At, 1)
			}
			break
		}
		if e := &b.live[pos-1]; e.st == st && e.SwitchID == d.SwitchID && e.ArgsHash == d.ArgsHash {
			e.add(d.At, d.At, 1)
			break
		}
	}
}

// foldSpilled merges one spill entry, with its count, into its
// (checker, switch) overflow bucket. Caller holds b.mu.
func (b *Bus) foldSpilled(a *Aggregate) {
	b.overflow(b.open(a.Checker, a.FirstAt, a.Count), a.SwitchID, a.FirstAt, a.LastAt, a.Count)
}

// open accounts n digests of checker arriving, the earliest at first,
// and returns the checker's record. Caller holds b.mu.
func (b *Bus) open(checker string, first int64, n uint64) *checkerStats {
	st := b.stats(checker)
	st.delivered += n
	if !b.windowOpen {
		b.windowOpen = true
		b.windowStart = first
	}
	b.liveDigests += n
	return st
}

// slot is the index slot a key's probe starts at.
func (b *Bus) slot(switchID uint32, argsHash uint64) int {
	return int((argsHash ^ uint64(switchID)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9 >> b.shift)
}

// overflow folds n digests of st's checker on switchID, raised between
// first and last, into their (checker, switch) bucket: once the live-key
// budget is spent, or when they spilled. Counts stay exact; args are
// gone.
func (b *Bus) overflow(st *checkerStats, switchID uint32, first, last int64, n uint64) {
	st.overflowDigests += n
	for i := range b.ovf {
		if e := &b.ovf[i]; e.SwitchID == switchID && e.st == st {
			e.add(first, last, n)
			return
		}
	}
	b.ovf = append(b.ovf, entry{
		Aggregate: Aggregate{Checker: st.name, SwitchID: switchID, Count: n, FirstAt: first, LastAt: last, Overflow: true},
		st:        st,
	})
	b.maxLive = max(b.maxLive, len(b.live)+len(b.ovf))
}

// stats returns the named checker's record, creating it (and placing it
// in name order) on its first digest.
func (b *Bus) stats(name string) *checkerStats {
	if st := b.last; st != nil && st.name == name {
		return st
	}
	st := b.checkers[name]
	if st == nil {
		st = &checkerStats{name: name}
		b.checkers[name] = st
		at, _ := slices.BinarySearchFunc(b.ranked, name, func(s *checkerStats, n string) int { return strings.Compare(s.name, n) })
		b.ranked = slices.Insert(b.ranked, at, st)
		for r := at; r < len(b.ranked); r++ {
			b.ranked[r].rank = r
		}
	}
	b.last = st
	return st
}

// maybeCloseWindow closes the window if it has run its length, and
// returns the emitted batch (nil when the window stays open). Caller
// holds b.mu.
func (b *Bus) maybeCloseWindow(now int64) *batch {
	if !b.windowOpen || now-b.windowStart < int64(b.cfg.Window) {
		return nil
	}
	return b.closeWindow(now, false)
}

// closeWindow runs the emission pass: every aggregate that clears its
// checker's token bucket is emitted and cleared; the rest carry forward
// into the next window with Deferred incremented — storm control delays
// and coalesces, it never loses counts. force bypasses the buckets
// (final flush). Live entries go first, then the overflow buckets, each
// in emission order (compareEntries). The batch is the bus's spare, or a
// new one when an export still holds that: its aggregates and the arena
// their Args are carved from are reused window after window, which is
// why an exporter may not keep them. It returns nil, and keeps the
// batch, when the window emits nothing. Caller holds b.mu.
func (b *Bus) closeWindow(now int64, force bool) *batch {
	b.windowStart = now
	if len(b.live)+len(b.ovf) == 0 {
		b.windowOpen = false
		return nil
	}
	bt := b.spare.Swap(nil)
	if bt == nil {
		bt = &batch{}
	}
	out := slices.Grow(bt.aggs[:0], len(b.live)+len(b.ovf))
	words := 0
	keys := b.keys[:0]
	for i := range b.live {
		words += int(b.live[i].nargs)
		keys = append(keys, b.live[i].sortKey(i))
	}
	slices.SortFunc(keys, func(x, y sortKey) int {
		if x.hi != y.hi {
			return cmp.Compare(x.hi, y.hi)
		}
		if x.arg0 != y.arg0 {
			return cmp.Compare(x.arg0, y.arg0)
		}
		return compareEntries(&b.live[x.pos], &b.live[y.pos])
	})
	// A live aggregate's Args is never nil, even with no words.
	if cap(bt.arena) < words || bt.arena == nil {
		bt.arena = make([]uint64, max(words, 2*cap(bt.arena)))
	}
	arena := bt.arena[:words]
	for _, k := range keys {
		e := &b.live[k.pos]
		if b.emit(e, now, force) {
			agg := e.Aggregate
			agg.Args = arena[:e.nargs:e.nargs]
			copy(agg.Args, e.args[:e.nargs])
			arena = arena[e.nargs:]
			out = append(out, agg)
			e.Count = 0
		}
	}
	b.keys = keys
	slices.SortFunc(b.ovf, func(x, y entry) int { return compareEntries(&x, &y) })
	for i := range b.ovf {
		if e := &b.ovf[i]; b.emit(e, now, force) {
			out = append(out, e.Aggregate)
			e.Count = 0
		}
	}
	b.ovf = keepDeferred(b.ovf)
	if kept := keepDeferred(b.live); len(kept) < len(b.live) {
		b.live = kept
		b.reindex()
	}
	b.windowOpen = len(b.live)+len(b.ovf) > 0
	bt.aggs = out
	if len(out) == 0 {
		b.spare.Store(bt)
		return nil
	}
	return bt
}

// emit takes e's emission decision: true when its checker's bucket has
// a token (or force), with e's digests counted out of the table; false
// when storm control defers it. Caller holds b.mu.
func (b *Bus) emit(e *entry, now int64, force bool) bool {
	st := e.st
	if !st.hasBucket {
		st.bk, st.hasBucket = bucket{tokens: float64(b.cfg.Burst), last: now}, true
	}
	if !force && !st.bk.take(now, b.cfg.Rate, float64(b.cfg.Burst)) {
		e.Deferred++
		st.suppressed++
		return false
	}
	st.emittedAggregates++
	st.emittedDigests += e.Count
	b.liveDigests -= e.Count
	return true
}

// keepDeferred moves the entries a window deferred (Count > 0) to the
// front of es, in order, and clears the rest.
func keepDeferred(es []entry) []entry {
	n := 0
	for i := range es {
		if es[i].Count > 0 {
			es[n] = es[i]
			n++
		}
	}
	clear(es[n:])
	return es[:n]
}

// reindex rebuilds the index over live.
func (b *Bus) reindex() {
	clear(b.index)
	mask := len(b.index) - 1
	for pos := range b.live {
		i := b.slot(b.live[pos].SwitchID, b.live[pos].ArgsHash)
		for b.index[i] != 0 {
			i = (i + 1) & mask
		}
		b.index[i] = int32(pos + 1)
	}
}

// export lends a batch to the exporters, outside the bus mutex, and
// takes it back for the next window once they return.
func (b *Bus) export(bt *batch) {
	if bt == nil {
		return
	}
	for _, e := range b.cfg.Exporters {
		e.ExportAggregates(bt.aggs)
	}
	b.spare.Store(bt)
}

// sweep drains every ring, then takes every spill, into the aggregate
// table, and runs the window check; taps and exports fire after the bus
// mutex is released, the drained digests first, then each spill entry's
// wordless digest once per digest it counts. sweepMu serializes sweeps (collector tick vs
// Flush/Close) — they share the scratch buffers and the rings' consumer
// side.
func (b *Bus) sweep(forceClose bool) {
	b.sweepMu.Lock()
	defer b.sweepMu.Unlock()
	b.mu.Lock()
	b.scratch, b.spilled = b.scratch[:0], b.spilled[:0]
	for _, p := range b.producers {
		if p.r != nil {
			b.scratch = p.r.drainInto(b.scratch)
			p.spillMu.Lock()
			b.spilled = append(b.spilled, p.spill.aggs...)
			p.spill.aggs = p.spill.aggs[:0]
			p.spillMu.Unlock()
		}
	}
	for i := range b.scratch {
		b.fold(&b.scratch[i])
	}
	for i := range b.spilled {
		b.foldSpilled(&b.spilled[i])
	}
	now := b.Now()
	var emitted *batch
	if forceClose {
		emitted = b.closeWindow(now, true)
	} else {
		emitted = b.maybeCloseWindow(now)
	}
	drained, spilled := b.scratch, b.spilled
	taps := b.taps
	b.mu.Unlock()

	for _, tap := range taps {
		for i := range drained {
			tap(drained[i])
		}
		for i := range spilled {
			a := &spilled[i]
			for range a.Count {
				tap(Digest{Checker: a.Checker, SwitchID: a.SwitchID, At: a.LastAt})
			}
		}
	}
	b.export(emitted)
}

// Start launches the collector goroutine, sweeping rings every
// Window/4 and whenever a ring reaches half full. Inline producers work
// with or without Start.
func (b *Bus) Start() {
	b.mu.Lock()
	if b.started {
		b.mu.Unlock()
		return
	}
	b.started = true
	b.stop = make(chan struct{})
	b.done = make(chan struct{})
	b.mu.Unlock()
	go func() {
		defer close(b.done)
		t := time.NewTicker(b.cfg.Window / 4)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-t.C:
				b.sweep(false)
			case <-b.wake:
				b.sweep(false)
			}
		}
	}()
}

// Flush drains every ring and force-closes the window, emitting all
// live aggregates regardless of storm budget. The bus remains usable.
func (b *Bus) Flush() { b.sweep(true) }

// Close stops the collector (if started) and flushes. After Close
// every raised digest is accounted: emitted counts equal publishes
// exactly (Metrics.Unaccounted() == 0). Producers must have stopped
// publishing to rings before Close.
func (b *Bus) Close() {
	b.mu.Lock()
	started := b.started
	b.started = false
	b.mu.Unlock()
	if started {
		close(b.stop)
		<-b.done
	}
	b.Flush()
}

// compareEntries is the emission order: checker, switch, argument
// words, then ArgsHash — which only splits truncated digests whose kept
// words agree. Under a storm budget the order decides which aggregates a
// window defers, and so which keys stay live and what later overflows;
// ArgsHash's seed is drawn per process, so it may not decide that.
func compareEntries(a, c *entry) int {
	if r := strings.Compare(a.Checker, c.Checker); r != 0 {
		return r
	}
	if a.SwitchID != c.SwitchID {
		return cmp.Compare(a.SwitchID, c.SwitchID)
	}
	if r := slices.Compare(a.args[:a.nargs], c.args[:c.nargs]); r != 0 {
		return r
	}
	return cmp.Compare(a.ArgsHash, c.ArgsHash)
}

// ---------------------------------------------------------------------------
// Metrics

// CheckerMetrics is one checker's digest accounting.
type CheckerMetrics struct {
	// Delivered digests reached the aggregation table: once every ring
	// and spill is drained, every digest the checker raised.
	Delivered uint64
	// EmittedDigests sums the counts of emitted aggregates; Suppressed
	// counts storm-control deferrals (aggregate-windows held back — the
	// digests themselves are carried, not lost).
	EmittedAggregates uint64
	EmittedDigests    uint64
	Suppressed        uint64
	// OverflowDigests were folded into overflow buckets (counted
	// exactly, args dropped): after the live-key budget filled, or
	// because they spilled (Metrics.Spilled).
	OverflowDigests uint64
}

// Metrics is a point-in-time snapshot of the bus.
type Metrics struct {
	Producers []ProducerMetrics
	Checkers  map[string]CheckerMetrics
	// LiveAggregates / LiveDigests measure the collector's current
	// memory; MaxLiveAggregates is the high-water mark, bounded by
	// Config.MaxKeys plus the overflow buckets.
	LiveAggregates    int
	MaxLiveAggregates int
	LiveDigests       uint64
	// Totals across producers and checkers. Spilled digests reached the
	// aggregation table through a producer's spill, without their words;
	// a run whose rings kept up reads 0. Dropped is always 0: nothing is
	// dropped.
	Published      uint64
	Spilled        uint64
	Dropped        uint64
	Delivered      uint64
	EmittedDigests uint64
}

// Unaccounted is the digest conservation check: publishes minus
// emissions and still-live counts. It is 0 whenever the rings and
// spills are drained — after a sweep, Flush or Close — since nothing is
// lost.
func (m Metrics) Unaccounted() int64 {
	return int64(m.Published) - int64(m.EmittedDigests) - int64(m.LiveDigests)
}

// Metrics snapshots the bus counters.
func (b *Bus) Metrics() Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := Metrics{
		Checkers:          make(map[string]CheckerMetrics, len(b.checkers)),
		LiveAggregates:    len(b.live) + len(b.ovf),
		MaxLiveAggregates: b.maxLive,
		LiveDigests:       b.liveDigests,
	}
	for _, p := range b.producers {
		pm := p.metrics()
		m.Producers = append(m.Producers, pm)
		m.Published += pm.Enqueued
		m.Spilled += pm.Spilled
	}
	for name, st := range b.checkers {
		cm := CheckerMetrics{
			Delivered:         st.delivered,
			EmittedAggregates: st.emittedAggregates,
			EmittedDigests:    st.emittedDigests,
			Suppressed:        st.suppressed,
			OverflowDigests:   st.overflowDigests,
		}
		m.Checkers[name] = cm
		m.Delivered += cm.Delivered
		m.EmittedDigests += cm.EmittedDigests
	}
	return m
}
