package reportbus

import (
	"cmp"
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
	// live is the aggregate table: the open window plus storm-deferred
	// carryover. ovf holds the per-(checker, switch) overflow buckets
	// that absorb digests once live hits MaxKeys.
	live map[Key]*Aggregate
	ovf  map[ovfKey]*Aggregate
	// buckets are the per-checker storm-control token buckets.
	buckets     map[string]*bucket
	checkers    map[string]*checkerStats
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

	// sweepMu serializes whole sweeps; scratch is the drain buffer they
	// share. Held across the post-mutex tap/export phase so drained
	// digests are not clobbered by the next sweep mid-tap.
	sweepMu sync.Mutex
	scratch []Digest
}

type ovfKey struct {
	Checker  string
	SwitchID uint32
}

type checkerStats struct {
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
	return &Bus{
		cfg:      cfg.withDefaults(),
		live:     map[Key]*Aggregate{},
		ovf:      map[ovfKey]*Aggregate{},
		buckets:  map[string]*bucket{},
		checkers: map[string]*checkerStats{},
	}
}

// Tap registers a per-digest observer. It runs outside the bus mutex,
// on the publisher goroutine (inline producers) or on the goroutine
// that drains the rings (ring producers: the collector, Flush or
// Close). Register taps before publishing begins; digests already in
// flight may miss a late tap.
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
	// r is nil for inline producers.
	r        *ring
	enqueued atomic.Uint64
	// drops is the ring-full account, by checker; the drop path is cold
	// (it only runs once the bounded ring is already full), so a mutex
	// and map are fine there.
	dropMu sync.Mutex
	drops  map[string]uint64
}

// ProducerMetrics is one producer's ingest accounting.
type ProducerMetrics struct {
	Name     string
	Enqueued uint64
	Dropped  uint64
	// QueueDepth is a racy snapshot of digests waiting in the ring
	// (always 0 for inline producers).
	QueueDepth int
}

// RingProducer registers a producer with its own bounded SPSC ring.
// Publish must stay single-goroutine per producer; the collector is the
// only consumer.
func (b *Bus) RingProducer(name string) *Producer {
	p := &Producer{bus: b, name: name, r: newRing(b.cfg.RingSize), drops: map[string]uint64{}}
	b.mu.Lock()
	b.producers = append(b.producers, p)
	b.mu.Unlock()
	return p
}

// InlineProducer registers a producer that delivers synchronously under
// the bus mutex — safe from any goroutine, intended for single-threaded
// embedders that need the per-digest tap to fire before Publish returns.
func (b *Bus) InlineProducer(name string) *Producer {
	p := &Producer{bus: b, name: name, drops: map[string]uint64{}}
	b.mu.Lock()
	b.producers = append(b.producers, p)
	b.mu.Unlock()
	return p
}

// Publish enqueues one digest. It reports false — after accounting the
// drop — when the producer's ring is full; inline producers never drop.
func (p *Producer) Publish(d Digest) bool {
	b := p.bus
	if p.r == nil {
		p.enqueued.Add(1)
		b.mu.Lock()
		b.fold(d)
		emitted := b.maybeCloseWindow(d.At)
		taps := b.taps
		b.mu.Unlock()
		for _, tap := range taps {
			tap(d)
		}
		b.export(emitted)
		return true
	}
	if !p.r.push(d) {
		p.dropMu.Lock()
		p.drops[d.Checker]++
		p.dropMu.Unlock()
		return false
	}
	p.enqueued.Add(1)
	return true
}

func (p *Producer) droppedTotal() uint64 {
	p.dropMu.Lock()
	defer p.dropMu.Unlock()
	var n uint64
	for _, v := range p.drops {
		n += v
	}
	return n
}

// ---------------------------------------------------------------------------
// Collection

// fold merges one digest into the aggregate table. Caller holds b.mu.
func (b *Bus) fold(d Digest) {
	st := b.checkers[d.Checker]
	if st == nil {
		st = &checkerStats{}
		b.checkers[d.Checker] = st
	}
	st.delivered++
	if !b.windowOpen {
		b.windowOpen = true
		b.windowStart = d.At
	}
	k := Key{Checker: d.Checker, SwitchID: d.SwitchID, ArgsHash: d.ArgsHash}
	if agg, ok := b.live[k]; ok {
		bumpAgg(agg, d)
	} else if len(b.live) < b.cfg.MaxKeys {
		args := make([]uint64, d.NArgs)
		copy(args, d.Args[:d.NArgs])
		b.live[k] = &Aggregate{
			Checker: d.Checker, SwitchID: d.SwitchID, ArgsHash: d.ArgsHash,
			Args: args, Count: 1, FirstAt: d.At, LastAt: d.At,
		}
	} else {
		// Live-key budget exhausted: fold into the per-(checker, switch)
		// overflow bucket. Counts stay exact; args are gone.
		ok := ovfKey{Checker: d.Checker, SwitchID: d.SwitchID}
		agg := b.ovf[ok]
		if agg == nil {
			agg = &Aggregate{
				Checker: d.Checker, SwitchID: d.SwitchID,
				FirstAt: d.At, LastAt: d.At, Overflow: true,
			}
			b.ovf[ok] = agg
		}
		agg.Count++
		if d.At < agg.FirstAt {
			agg.FirstAt = d.At
		}
		if d.At > agg.LastAt {
			agg.LastAt = d.At
		}
		st.overflowDigests++
	}
	b.liveDigests++
	if n := len(b.live) + len(b.ovf); n > b.maxLive {
		b.maxLive = n
	}
}

func bumpAgg(agg *Aggregate, d Digest) {
	agg.Count++
	if d.At < agg.FirstAt {
		agg.FirstAt = d.At
	}
	if d.At > agg.LastAt {
		agg.LastAt = d.At
	}
}

// maybeCloseWindow closes the window if it has run its length, and
// returns the emitted batch (nil when the window stays open). Caller
// holds b.mu.
func (b *Bus) maybeCloseWindow(now int64) []Aggregate {
	if !b.windowOpen || now-b.windowStart < int64(b.cfg.Window) {
		return nil
	}
	return b.closeWindow(now, false)
}

// closeWindow runs the emission pass: every live aggregate that clears
// its checker's token bucket is emitted and cleared; the rest carry
// forward into the next window with Deferred incremented — storm
// control delays and coalesces, it never loses counts. force bypasses
// the buckets (final flush). Caller holds b.mu.
func (b *Bus) closeWindow(now int64, force bool) []Aggregate {
	live, ovf := sortedAggregates(b.live), sortedAggregates(b.ovf)

	var out []Aggregate
	emit := func(agg *Aggregate) bool {
		bk := b.buckets[agg.Checker]
		if bk == nil {
			bk = &bucket{tokens: float64(b.cfg.Burst), last: now}
			b.buckets[agg.Checker] = bk
		}
		st := b.checkers[agg.Checker]
		if !force && !bk.take(now, b.cfg.Rate, float64(b.cfg.Burst)) {
			agg.Deferred++
			st.suppressed++
			return false
		}
		out = append(out, *agg)
		st.emittedAggregates++
		st.emittedDigests += agg.Count
		b.liveDigests -= agg.Count
		return true
	}
	for _, agg := range live {
		if emit(agg) {
			delete(b.live, Key{Checker: agg.Checker, SwitchID: agg.SwitchID, ArgsHash: agg.ArgsHash})
		}
	}
	for _, agg := range ovf {
		if emit(agg) {
			delete(b.ovf, ovfKey{Checker: agg.Checker, SwitchID: agg.SwitchID})
		}
	}
	b.windowOpen = len(b.live)+len(b.ovf) > 0
	b.windowStart = now
	return out
}

// export hands a batch to the exporters, outside the bus mutex.
func (b *Bus) export(aggs []Aggregate) {
	if len(aggs) == 0 {
		return
	}
	for _, e := range b.cfg.Exporters {
		e.ExportAggregates(aggs)
	}
}

// sweep drains every ring into the aggregate table, then runs the
// window check; taps and exports fire after the bus mutex is released.
// sweepMu serializes sweeps (collector tick vs Flush/Close) — they
// share the scratch buffer and the rings' consumer side.
func (b *Bus) sweep(forceClose bool) {
	b.sweepMu.Lock()
	defer b.sweepMu.Unlock()
	b.mu.Lock()
	b.scratch = b.scratch[:0]
	for _, p := range b.producers {
		if p.r != nil {
			b.scratch = p.r.drainInto(b.scratch)
		}
	}
	for i := range b.scratch {
		b.fold(b.scratch[i])
	}
	now := b.Now()
	var emitted []Aggregate
	if forceClose {
		emitted = b.closeWindow(now, true)
	} else {
		emitted = b.maybeCloseWindow(now)
	}
	drained := b.scratch
	taps := b.taps
	b.mu.Unlock()

	for _, tap := range taps {
		for i := range drained {
			tap(drained[i])
		}
	}
	b.export(emitted)
}

// Start launches the collector goroutine, sweeping rings every
// Window/4. Inline producers work with or without Start.
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
			}
		}
	}()
}

// Flush drains every ring and force-closes the window, emitting all
// live aggregates regardless of storm budget. The bus remains usable.
func (b *Bus) Flush() { b.sweep(true) }

// Close stops the collector (if started) and flushes. After Close
// every raised digest is accounted: emitted counts plus ring drops
// equal publishes exactly (Metrics.Unaccounted() == 0). Producers must
// have stopped publishing to rings before Close.
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

// sortedAggregates returns m's aggregates in emission order.
func sortedAggregates[K comparable](m map[K]*Aggregate) []*Aggregate {
	out := make([]*Aggregate, 0, len(m))
	for _, agg := range m {
		out = append(out, agg)
	}
	slices.SortFunc(out, compareAggregates)
	return out
}

// compareAggregates is the emission order: checker, switch, argument
// words, then ArgsHash — which only splits truncated digests whose kept
// words agree. Under a storm budget the order decides which aggregates a
// window defers, and so which keys stay live and what later overflows;
// ArgsHash's seed is drawn per process, so it may not decide that.
func compareAggregates(a, c *Aggregate) int {
	return cmp.Or(strings.Compare(a.Checker, c.Checker), cmp.Compare(a.SwitchID, c.SwitchID),
		slices.Compare(a.Args, c.Args), cmp.Compare(a.ArgsHash, c.ArgsHash))
}

// ---------------------------------------------------------------------------
// Metrics

// CheckerMetrics is one checker's digest accounting.
type CheckerMetrics struct {
	// Delivered digests reached the aggregation table; Dropped were
	// rejected by full ingest rings. Delivered+Dropped is every digest
	// the checker raised.
	Delivered uint64
	Dropped   uint64
	// EmittedDigests sums the counts of emitted aggregates; Suppressed
	// counts storm-control deferrals (aggregate-windows held back — the
	// digests themselves are carried, not lost).
	EmittedAggregates uint64
	EmittedDigests    uint64
	Suppressed        uint64
	// OverflowDigests were folded into overflow buckets (counted
	// exactly, args dropped) after the live-key budget filled.
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
	// Totals across producers and checkers.
	Published      uint64
	Dropped        uint64
	Delivered      uint64
	EmittedDigests uint64
}

// Unaccounted is the digest conservation check: publishes minus drops,
// emissions, and still-live counts. It is 0 after Close — nothing is
// silently lost.
func (m Metrics) Unaccounted() int64 {
	return int64(m.Published) - int64(m.Dropped) - int64(m.EmittedDigests) - int64(m.LiveDigests)
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
	drops := map[string]uint64{}
	for _, p := range b.producers {
		pm := ProducerMetrics{Name: p.name, Enqueued: p.enqueued.Load(), Dropped: p.droppedTotal()}
		if p.r != nil {
			pm.QueueDepth = p.r.depth()
		}
		p.dropMu.Lock()
		for c, n := range p.drops {
			drops[c] += n
		}
		p.dropMu.Unlock()
		m.Producers = append(m.Producers, pm)
		m.Published += pm.Enqueued + pm.Dropped
		m.Dropped += pm.Dropped
	}
	for name, st := range b.checkers {
		cm := CheckerMetrics{
			Delivered:         st.delivered,
			Dropped:           drops[name],
			EmittedAggregates: st.emittedAggregates,
			EmittedDigests:    st.emittedDigests,
			Suppressed:        st.suppressed,
			OverflowDigests:   st.overflowDigests,
		}
		m.Checkers[name] = cm
		m.Delivered += cm.Delivered
		m.EmittedDigests += cm.EmittedDigests
	}
	// Checkers that only ever dropped (ring always full) still publish.
	for name, n := range drops {
		if _, ok := b.checkers[name]; !ok {
			m.Checkers[name] = CheckerMetrics{Dropped: n}
		}
	}
	return m
}
