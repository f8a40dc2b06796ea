package reportbus

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/pipeline"
)

// manualClock is a test clock: a plain atomic nanosecond counter, safe
// for collector-goroutine reads.
type manualClock struct{ now atomic.Int64 }

func (c *manualClock) read() int64      { return c.now.Load() }
func (c *manualClock) set(t int64)      { c.now.Store(t) }
func (c *manualClock) fn() func() int64 { return c.read }

func rep(args ...uint64) pipeline.Report {
	vals := make([]pipeline.Value, len(args))
	for i, a := range args {
		vals[i] = pipeline.B(64, a)
	}
	return pipeline.Report{Args: vals}
}

func TestRingPushDrain(t *testing.T) {
	r := newRing(5, make(chan struct{}, 1)) // rounds up to 8
	if got := len(r.buf); got != 8 {
		t.Fatalf("ring size = %d, want 8 (rounded up)", got)
	}
	for i := 0; i < 8; i++ {
		if !r.push(&Digest{At: int64(i)}) {
			t.Fatalf("push %d rejected before full", i)
		}
	}
	if r.push(&Digest{At: 99}) {
		t.Fatal("push accepted on a full ring")
	}
	if d := r.depth(); d != 8 {
		t.Fatalf("depth = %d, want 8", d)
	}
	out := r.drainInto(nil)
	if len(out) != 8 {
		t.Fatalf("drained %d, want 8", len(out))
	}
	for i, d := range out {
		if d.At != int64(i) {
			t.Fatalf("drain order broken: out[%d].At = %d", i, d.At)
		}
	}
	if d := r.depth(); d != 0 {
		t.Fatalf("depth after drain = %d, want 0", d)
	}
	// The ring is reusable after a full wrap.
	for i := 0; i < 12; i++ {
		if !r.push(&Digest{At: int64(100 + i)}) {
			out = r.drainInto(out[:0])
			if !r.push(&Digest{At: int64(100 + i)}) {
				t.Fatal("push rejected right after drain")
			}
		}
	}
}

func TestDigestFromTruncation(t *testing.T) {
	short := DigestFrom("c", 1, 7, rep(1, 2, 3))
	if short.NArgs != 3 || short.Truncated {
		t.Fatalf("short digest: NArgs=%d Truncated=%v", short.NArgs, short.Truncated)
	}
	if short.Args[0] != 1 || short.Args[2] != 3 {
		t.Fatalf("short digest args = %v", short.Args)
	}
	longA := DigestFrom("c", 1, 7, rep(1, 2, 3, 4, 5, 6, 7))
	longB := DigestFrom("c", 1, 7, rep(1, 2, 3, 4, 5, 6, 8))
	if longA.NArgs != MaxArgs || !longA.Truncated {
		t.Fatalf("long digest: NArgs=%d Truncated=%v", longA.NArgs, longA.Truncated)
	}
	// The stored args are identical, but the hash covers the truncated
	// tail, so the two digests must aggregate separately.
	if longA.Args != longB.Args {
		t.Fatalf("stored args differ: %v vs %v", longA.Args, longB.Args)
	}
	if longA.ArgsHash == longB.ArgsHash {
		t.Fatal("hash ignores truncated tail words")
	}
	same := DigestFrom("c", 1, 9, rep(1, 2, 3))
	if same.ArgsHash != short.ArgsHash {
		t.Fatal("hash not stable for identical args")
	}
}

func TestInlineAggregationWindows(t *testing.T) {
	clk := &manualClock{}
	sink := &CollectExporter{}
	b := New(Config{Window: 100, Clock: clk.fn(), Exporters: []Exporter{sink}})
	p := b.InlineProducer("sim")

	// Three digests for key A and one for key B inside the first window.
	for i := 0; i < 3; i++ {
		p.Publish(DigestFrom("loop", 1, int64(10+i), rep(0xA)))
	}
	p.Publish(DigestFrom("loop", 1, 20, rep(0xB)))
	if got := sink.Aggregates(); len(got) != 0 {
		t.Fatalf("window emitted early: %d aggregates", len(got))
	}
	// A digest past the window boundary closes it; the closer itself is
	// folded first, so it rides along in the emitted batch.
	p.Publish(DigestFrom("loop", 2, 150, rep(0xA)))

	aggs := sink.Aggregates()
	if len(aggs) != 3 {
		t.Fatalf("emitted %d aggregates, want 3", len(aggs))
	}
	byKey := map[Key]Aggregate{}
	for _, a := range aggs {
		byKey[Key{Checker: a.Checker, SwitchID: a.SwitchID, ArgsHash: a.ArgsHash}] = a
	}
	keyA := Key{Checker: "loop", SwitchID: 1, ArgsHash: DigestFrom("loop", 1, 0, rep(0xA)).ArgsHash}
	a := byKey[keyA]
	if a.Count != 3 || a.FirstAt != 10 || a.LastAt != 12 {
		t.Fatalf("key A aggregate = %+v, want count 3 span [10,12]", a)
	}
	if a.Args[0] != 0xA {
		t.Fatalf("key A args = %v", a.Args)
	}

	m := b.Metrics()
	if m.Published != 5 || m.Delivered != 5 || m.Dropped != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d", m.Unaccounted())
	}
	b.Close()
	if m := b.Metrics(); m.EmittedDigests != 5 || m.LiveDigests != 0 || m.Unaccounted() != 0 {
		t.Fatalf("post-close metrics = %+v", m)
	}
}

// TestWindowReopensAfterEmptyingClose pins that a close which empties the
// table leaves no window open: the next digest opens a fresh one at its
// own time, so three digests of one key 10 apart aggregate as one, not
// split by a window still counting from the emptying close.
func TestWindowReopensAfterEmptyingClose(t *testing.T) {
	clk := &manualClock{}
	sink := &CollectExporter{}
	b := New(Config{Window: 100, Clock: clk.fn(), Exporters: []Exporter{sink}})
	p := b.InlineProducer("sim")

	p.Publish(DigestFrom("loop", 1, 10, rep(0xA)))
	p.Publish(DigestFrom("loop", 1, 150, rep(0xB))) // closes the window, emptying the table
	if n := len(sink.Aggregates()); n != 2 {
		t.Fatalf("first close emitted %d aggregates, want 2", n)
	}
	for _, at := range []int64{500, 510, 520} {
		p.Publish(DigestFrom("loop", 1, at, rep(0xA)))
	}
	p.Publish(DigestFrom("loop", 1, 650, rep(0xB)))

	var counts []uint64
	for _, a := range sink.Aggregates()[2:] {
		if a.Args[0] == 0xA {
			counts = append(counts, a.Count)
		}
	}
	if !slices.Equal(counts, []uint64{3}) {
		t.Fatalf("key A emitted with counts %v after the emptying close, want one aggregate of 3", counts)
	}
}

func TestStormControlDefersWithoutLoss(t *testing.T) {
	clk := &manualClock{}
	sink := &CollectExporter{}
	// Burst 1, effectively no refill: each non-forced window close may
	// emit one aggregate per checker; the rest carry forward.
	b := New(Config{Window: 100, Clock: clk.fn(), Rate: 1e-9, Burst: 1, Exporters: []Exporter{sink}})
	p := b.InlineProducer("sim")

	p.Publish(DigestFrom("storm", 1, 1, rep(0xA)))
	p.Publish(DigestFrom("storm", 1, 2, rep(0xB)))
	p.Publish(DigestFrom("storm", 1, 3, rep(0xC)))
	clk.set(150)
	b.sweep(false) // non-forced close: token budget applies

	first := sink.Aggregates()
	if len(first) != 1 {
		t.Fatalf("storm window emitted %d aggregates, want 1", len(first))
	}
	m := b.Metrics()
	if st := m.Checkers["storm"]; st.Suppressed != 2 {
		t.Fatalf("suppressed = %d, want 2", st.Suppressed)
	}
	if m.LiveDigests != 2 || m.Unaccounted() != 0 {
		t.Fatalf("deferral lost digests: %+v", m)
	}

	// New digests for a deferred key merge into the carried aggregate.
	deferredKey := Key{Checker: "storm", SwitchID: 1}
	p.Publish(DigestFrom("storm", 1, 160, rep(0xB)))
	b.Close() // force-flushes the carryover

	counts := sink.CountsByKey()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("total emitted digests = %d, want 4", total)
	}
	var sawDeferred bool
	for _, a := range sink.Aggregates() {
		if a.Deferred > 0 {
			sawDeferred = true
			if a.Checker != deferredKey.Checker {
				t.Fatalf("deferred aggregate from %q", a.Checker)
			}
		}
	}
	if !sawDeferred {
		t.Fatal("no aggregate carries a Deferred count")
	}
	if m := b.Metrics(); m.Unaccounted() != 0 {
		t.Fatalf("post-close unaccounted = %d", m.Unaccounted())
	}
}

func TestMaxKeysOverflowBuckets(t *testing.T) {
	clk := &manualClock{}
	sink := &CollectExporter{}
	b := New(Config{Window: 1000, Clock: clk.fn(), MaxKeys: 2, Exporters: []Exporter{sink}})
	p := b.InlineProducer("sim")

	// Keys A and B claim the two live slots; C, D, E (same checker and
	// switch) fold into one overflow bucket with exact counts.
	for i, arg := range []uint64{0xA, 0xB, 0xC, 0xD, 0xE, 0xC} {
		p.Publish(DigestFrom("ovf", 1, int64(i), rep(arg)))
	}
	m := b.Metrics()
	if m.LiveAggregates != 3 { // 2 live keys + 1 overflow bucket
		t.Fatalf("live aggregates = %d, want 3", m.LiveAggregates)
	}
	if st := m.Checkers["ovf"]; st.OverflowDigests != 4 {
		t.Fatalf("overflow digests = %d, want 4", st.OverflowDigests)
	}
	b.Close()

	var ovfAgg *Aggregate
	for _, a := range sink.Aggregates() {
		if a.Overflow {
			if ovfAgg != nil {
				t.Fatal("more than one overflow bucket for one (checker, switch)")
			}
			c := a
			ovfAgg = &c
		}
	}
	if ovfAgg == nil {
		t.Fatal("no overflow aggregate emitted")
	}
	if ovfAgg.Count != 4 || len(ovfAgg.Args) != 0 {
		t.Fatalf("overflow aggregate = %+v, want count 4 and no args", ovfAgg)
	}
	if ovfAgg.FirstAt != 2 || ovfAgg.LastAt != 5 {
		t.Fatalf("overflow span = [%d,%d], want [2,5]", ovfAgg.FirstAt, ovfAgg.LastAt)
	}
	if m := b.Metrics(); m.EmittedDigests != 6 || m.Unaccounted() != 0 {
		t.Fatalf("post-close metrics = %+v", m)
	}
}

// TestEmissionIgnoresArgsHash feeds one digest multiset twice through a
// bus whose storm budget and key cap both bite, the second time with
// every argument list's ArgsHash permuted (reversed). Which aggregates a
// window emits decides which keys stay live, and so which later digests
// overflow: both must follow the argument words, not the hash, whose
// seed DigestFrom draws per process.
func TestEmissionIgnoresArgsHash(t *testing.T) {
	run := func(hash func(args [2]uint64) uint64) ([]Aggregate, Metrics) {
		sink := &CollectExporter{}
		b := New(Config{Window: 100, Clock: (&manualClock{}).fn(), Rate: 1e-9, Burst: 2, MaxKeys: 4, Exporters: []Exporter{sink}})
		p := b.InlineProducer("sim")
		at := int64(0)
		for round := 0; round < 4; round++ {
			for _, sw := range []uint32{2, 1} {
				for i := uint64(0); i < 6; i++ {
					args := [2]uint64{i % 3, 10 - i}
					d := Digest{Checker: "storm", SwitchID: sw, At: at, NArgs: 2, ArgsHash: hash(args)}
					copy(d.Args[:], args[:])
					p.Publish(d)
					at++
				}
			}
			at += 100 // the next round's first digest closes the window
		}
		b.Close()
		aggs := sink.Aggregates()
		for i := range aggs {
			aggs[i].ArgsHash = 0
		}
		return aggs, b.Metrics()
	}
	up, upM := run(func(a [2]uint64) uint64 { return a[0]<<32 | a[1] })
	down, downM := run(func(a [2]uint64) uint64 { return ^(a[0]<<32 | a[1]) })
	if !reflect.DeepEqual(up, down) {
		t.Errorf("emissions depend on ArgsHash:\n%+v\n%+v", up, down)
	}
	if !reflect.DeepEqual(upM, downM) {
		t.Errorf("metrics depend on ArgsHash:\n%+v\n%+v", upM, downM)
	}
	if st := upM.Checkers["storm"]; st.OverflowDigests == 0 || st.Suppressed == 0 || upM.Unaccounted() != 0 {
		t.Fatalf("the budget or the key cap never bit, or digests were lost: %+v", upM)
	}
}

// TestRingWakesAtHalf: on a bus whose collector is not running, a ring
// producer leaves exactly one pending wake-up once RingSize/2 digests
// are queued, none before, and no second one while the ring stays past
// half — however full it gets, publishes past full included — until a
// sweep drains it.
func TestRingWakesAtHalf(t *testing.T) {
	clk := &manualClock{}
	b := New(Config{Window: 100, Clock: clk.fn(), RingSize: 64})
	p := b.RingProducer("shard:0")
	publish := func(n int) {
		for i := 0; i < n; i++ {
			p.Publish(DigestFrom("noisy", 1, 0, rep(uint64(i))))
		}
	}
	for round := 0; round < 2; round++ {
		publish(31)
		if len(b.wake) != 0 {
			t.Fatalf("round %d: a wake-up pending at 31 of 64", round)
		}
		publish(1)
		if len(b.wake) != 1 {
			t.Fatalf("round %d: %d wake-ups pending at 32 of 64, want 1", round, len(b.wake))
		}
		<-b.wake
		publish(40) // past full: 32 land, 8 fold at once
		if len(b.wake) != 0 {
			t.Fatalf("round %d: a second wake-up before the ring was drained", round)
		}
		b.Flush()
	}
	if m := b.Metrics(); m.Dropped != 0 || m.Published != 2*72 || m.Unaccounted() != 0 {
		t.Fatalf("dropped=%d published=%d unaccounted=%d, want 0/144/0", m.Dropped, m.Published, m.Unaccounted())
	}
}

// TestFullRingFoldsWhole: a ring of 4 takes ten distinct digests' first
// four; the publisher folds the last six itself, at once and with their
// words, and the taps see them before Publish returns — so ahead of the
// four still queued. Every Publish returns true, nothing overflows, and
// the exporter receives ten aggregates with their words.
func TestFullRingFoldsWhole(t *testing.T) {
	clk := &manualClock{}
	sink := &CollectExporter{}
	b := New(Config{Window: 100, Clock: clk.fn(), RingSize: 4, Exporters: []Exporter{sink}})
	var tapped []Digest
	b.Tap(func(d Digest) { tapped = append(tapped, d) })
	p := b.RingProducer("shard:0")

	var published []Digest
	for i := 0; i < 10; i++ {
		d := DigestFrom("noisy", 1, int64(i), rep(uint64(i), uint64(100+i)))
		published = append(published, d)
		if !p.Publish(d) {
			t.Fatalf("publish %d returned false", i)
		}
	}
	if m := b.Metrics(); m.Published != 10 || m.Delivered != 6 || m.Producers[0].QueueDepth != 4 || m.Dropped != 0 {
		t.Fatalf("before a sweep: published=%d delivered=%d queued=%d dropped=%d, want 10/6/4/0",
			m.Published, m.Delivered, m.Producers[0].QueueDepth, m.Dropped)
	}
	if !slices.Equal(tapped, published[4:]) {
		t.Fatalf("before a sweep the taps saw\n %+v\nwant the six past full\n %+v", tapped, published[4:])
	}
	b.Close()
	m := b.Metrics()
	if m.EmittedDigests != 10 || m.Delivered != 10 || m.Unaccounted() != 0 || m.Producers[0].QueueDepth != 0 {
		t.Fatalf("post-close metrics: %+v", m)
	}
	if st := m.Checkers["noisy"]; st.OverflowDigests != 0 {
		t.Fatalf("overflow digests = %d, want 0", st.OverflowDigests)
	}
	if want := append(slices.Clone(published[4:]), published[:4]...); !slices.Equal(tapped, want) {
		t.Fatalf("taps saw\n %+v\nwant\n %+v", tapped, want)
	}
	aggs := sink.Aggregates()
	if len(aggs) != 10 {
		t.Fatalf("exported %d aggregates, want 10", len(aggs))
	}
	for i, a := range aggs {
		d := published[i]
		if a.Overflow || a.Count != 1 || a.FirstAt != d.At || a.LastAt != d.At || !slices.Equal(a.Args, d.Args[:d.NArgs]) {
			t.Fatalf("aggregate %d = %+v, want digest %+v's one count and words", i, a, d)
		}
	}
}

// TestFullRingNeverWaitsOnExport: while a sweep is held in a blocked
// exporter, a ring producer publishes well past its ring's capacity, and
// every Publish returns; a ring publisher waits on no exporter.
func TestFullRingNeverWaitsOnExport(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	blocking := exporterFunc(func([]Aggregate) {
		once.Do(func() { close(entered) })
		<-release
	})
	clk := &manualClock{}
	b := New(Config{Window: 100, Clock: clk.fn(), RingSize: 4, Exporters: []Exporter{blocking}})
	p := b.RingProducer("shard:0")
	p.Publish(DigestFrom("c", 1, 0, rep(1)))
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		b.Flush()
	}()
	<-entered
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := range uint64(20) {
			p.Publish(DigestFrom("c", 1, 1, rep(i)))
		}
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a publish past a full ring waited on the blocked exporter")
	}
	close(release)
	<-flushed
	b.Close()
	if m := b.Metrics(); m.Published != 21 || m.EmittedDigests != 21 || m.Unaccounted() != 0 {
		t.Fatalf("published=%d emitted=%d unaccounted=%d, want 21/21/0", m.Published, m.EmittedDigests, m.Unaccounted())
	}
}

func TestInlineTapRunsBeforePublishReturns(t *testing.T) {
	clk := &manualClock{}
	b := New(Config{Window: 1000, Clock: clk.fn()})
	var tapped []Digest
	b.Tap(func(d Digest) { tapped = append(tapped, d) })
	p := b.InlineProducer("sim")
	d := DigestFrom("c", 3, 42, rep(7, 8))
	p.Publish(d)
	if len(tapped) != 1 || tapped[0] != d {
		t.Fatalf("tap saw %v, want exactly [%v]", tapped, d)
	}
}

// TestConcurrentProducersExactAccounting is the race-detector storm
// test: many ring producers against a live collector goroutine, with a
// concurrent metrics poller, must conserve every digest — nothing is
// dropped, published equals emitted exactly, and the taps see every
// published digest once, whole (switch, At and words), those folded past
// a full ring included.
func TestConcurrentProducersExactAccounting(t *testing.T) {
	const (
		producers = 4
		perProd   = 20_000
	)
	sink := &CollectExporter{}
	b := New(Config{
		Window:    500 * time.Microsecond,
		RingSize:  256, // small enough to fill under load
		Exporters: []Exporter{sink},
	})
	type seen struct {
		sw   uint32
		at   int64
		args [MaxArgs]uint64
	}
	var mu sync.Mutex
	tapped := map[seen]int{}
	b.Tap(func(d Digest) {
		mu.Lock()
		tapped[seen{d.SwitchID, d.At, d.Args}]++
		mu.Unlock()
	})
	b.Start()

	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		p := b.RingProducer("shard")
		wg.Add(1)
		go func(pi int, p *Producer) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				p.Publish(DigestFrom("stress", uint32(pi), int64(i), rep(uint64(i%17))))
			}
		}(pi, p)
	}
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 100; i++ {
			m := b.Metrics()
			if m.Unaccounted() < 0 {
				t.Errorf("mid-run unaccounted went negative: %d", m.Unaccounted())
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	<-pollDone
	b.Close()

	m := b.Metrics()
	if m.Published != producers*perProd {
		t.Fatalf("published = %d, want %d", m.Published, producers*perProd)
	}
	if m.Dropped != 0 || m.Unaccounted() != 0 || m.LiveDigests != 0 {
		t.Fatalf("post-close accounting: dropped=%d unaccounted=%d live=%d emitted=%d",
			m.Dropped, m.Unaccounted(), m.LiveDigests, m.EmittedDigests)
	}
	for pi := range uint32(producers) {
		for i := range int64(perProd) {
			d := DigestFrom("stress", pi, i, rep(uint64(i%17)))
			tapped[seen{d.SwitchID, d.At, d.Args}]--
		}
	}
	for k, n := range tapped {
		if n != 0 {
			t.Fatalf("switch %d, At %d, words %v: the taps saw it %+d times more than it was published", k.sw, k.at, k.args, n)
		}
	}
	var exported uint64
	for _, c := range sink.CountsByKey() {
		exported += c
	}
	if exported != m.EmittedDigests {
		t.Fatalf("exporter saw %d digests, metrics say %d", exported, m.EmittedDigests)
	}
}

// TestCloseIsIdempotentAndFlushKeepsBusUsable covers the lifecycle
// edges: Flush mid-run, publish after Flush, double Close.
func TestCloseIsIdempotentAndFlushKeepsBusUsable(t *testing.T) {
	clk := &manualClock{}
	sink := &CollectExporter{}
	b := New(Config{Window: 100, Clock: clk.fn(), Exporters: []Exporter{sink}})
	p := b.InlineProducer("sim")
	p.Publish(DigestFrom("c", 1, 1, rep(1)))
	b.Flush()
	if n := len(sink.Aggregates()); n != 1 {
		t.Fatalf("flush emitted %d aggregates, want 1", n)
	}
	p.Publish(DigestFrom("c", 1, 2, rep(1)))
	b.Close()
	b.Close()
	counts := sink.CountsByKey()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 2 {
		t.Fatalf("digest total = %d, want 2", total)
	}
	if m := b.Metrics(); m.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d", m.Unaccounted())
	}
}

// TestCollectorAllocs is the collector's allocation budget. At steady
// state (the checker's record exists) folding a digest allocates
// nothing, whether it opens a key, repeats one or lands in an overflow
// bucket; so does a publish past a full ring, whatever the digest's
// words; and a close that reuses the bus's batch allocates nothing,
// whether it emits 64 aggregates or 4096.
func TestCollectorAllocs(t *testing.T) {
	b := New(Config{Clock: (&manualClock{}).fn()})
	d := DigestFrom("acl", 1, 0, rep(1, 2))
	fold := func() {
		b.mu.Lock()
		b.fold(&d)
		b.mu.Unlock()
	}
	newKey := func() {
		d.Args[0]++
		d.ArgsHash++
		fold()
	}
	fold()
	if n := testing.AllocsPerRun(100, fold); n != 0 {
		t.Errorf("a repeated key: %.2f allocs per digest, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, newKey); n != 0 {
		t.Errorf("a new key: %.2f allocs per digest, want 0", n)
	}
	for len(b.live) < b.cfg.MaxKeys {
		newKey()
	}
	if n := testing.AllocsPerRun(100, newKey); n != 0 {
		t.Errorf("an overflow: %.2f allocs per digest, want 0", n)
	}

	p := b.RingProducer("shard")
	for p.r.depth() < len(p.r.buf) {
		p.Publish(d)
	}
	pastFull := func() {
		d.Args[0]++
		d.ArgsHash++
		p.Publish(d)
	}
	if n := testing.AllocsPerRun(100, pastFull); n != 0 || p.folded != 101 {
		t.Errorf("a publish past a full ring: %.2f allocs per digest, %d folded by the publisher; want 0 and 101", n, p.folded)
	}

	closing := func(keys int) float64 {
		b := New(Config{Clock: (&manualClock{}).fn()})
		d := DigestFrom("acl", 1, 0, rep(1, 2))
		emitted := 0
		n := testing.AllocsPerRun(10, func() {
			b.mu.Lock()
			for i := 0; i < keys; i++ {
				d.Args[0], d.ArgsHash = uint64(i), uint64(i)
				b.fold(&d)
			}
			bt := b.closeWindow(0, true)
			b.mu.Unlock()
			emitted = len(bt.aggs)
			b.export(bt)
		})
		if emitted != keys {
			t.Fatalf("a window of %d keys emitted %d aggregates", keys, emitted)
		}
		return n
	}
	if small, large := closing(64), closing(4096); small != 0 || large != 0 {
		t.Errorf("closing a window into a reused batch: %.2f allocs for 64 aggregates, %.2f for 4096; want 0", small, large)
	}
}

// countingExporter counts the digests it is lent and keeps nothing.
type countingExporter struct{ digests uint64 }

func (e *countingExporter) ExportAggregates(aggs []Aggregate) {
	for i := range aggs {
		e.digests += aggs[i].Count
	}
}

// TestCloseBytes is the report path's byte budget: 1 000 windows of
// 4 096 aggregates each, published to a ring and closed by Flush, with
// an exporter that keeps nothing, allocate fewer bytes between them
// than one batch of 4 096 aggregates and their words. A bus that made
// each window's batch afresh would allocate a thousand.
func TestCloseBytes(t *testing.T) {
	const keys, windows = 4096, 1000
	sink := &countingExporter{}
	b := New(Config{Clock: (&manualClock{}).fn(), Exporters: []Exporter{sink}})
	p := b.RingProducer("shard")
	digests := make([]Digest, keys)
	for i := range digests {
		digests[i] = DigestFrom("acl", uint32(i%8), 0, rep(uint64(i), 2))
	}
	window := func() {
		for i := range digests {
			p.Publish(digests[i])
		}
		if d := p.r.depth(); d != keys {
			t.Fatalf("%d of a window's %d digests queued; the ring holds a window", d, keys)
		}
		b.Flush()
	}
	window()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range windows {
		window()
	}
	runtime.ReadMemStats(&after)
	batch := keys * (unsafe.Sizeof(Aggregate{}) + 2*unsafe.Sizeof(uint64(0)))
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(batch) {
		t.Errorf("%d windows of %d aggregates allocated %d bytes, want fewer than one batch's %d", windows, keys, got, batch)
	}
	if want := uint64(keys * (windows + 1)); sink.digests != want {
		t.Fatalf("the exporter counted %d digests, want %d", sink.digests, want)
	}
}

// TestReentrantExportGetsItsOwnBatch: an exporter that publishes, and so
// closes a second window while it holds the first, is lent a batch of
// its own; the one it holds is untouched until it returns.
func TestReentrantExportGetsItsOwnBatch(t *testing.T) {
	clk := &manualClock{}
	var p *Producer
	var inner [][]uint64
	outer := exporterFunc(func(aggs []Aggregate) {
		if aggs[0].Args[0] != 1 {
			for _, a := range aggs {
				inner = append(inner, slices.Clone(a.Args))
			}
			return
		}
		held := slices.Clone(aggs)
		heldArgs := slices.Clone(aggs[1].Args)
		p.Publish(DigestFrom("c", 2, 300, rep(7, 7, 7)))
		p.Publish(DigestFrom("c", 2, 500, rep(9, 9, 9)))
		if !reflect.DeepEqual(aggs, held) || !slices.Equal(aggs[1].Args, heldArgs) {
			t.Fatalf("a re-entrant close wrote over the batch its exporter holds: %+v, was %+v", aggs, held)
		}
	})
	b := New(Config{Window: 100, Clock: clk.fn(), Exporters: []Exporter{outer}})
	p = b.InlineProducer("sim")
	p.Publish(DigestFrom("c", 1, 0, rep(1)))
	p.Publish(DigestFrom("c", 1, 150, rep(1, 2)))
	if want := [][]uint64{{7, 7, 7}, {9, 9, 9}}; !reflect.DeepEqual(inner, want) {
		t.Fatalf("the re-entrant close emitted words %v, want %v", inner, want)
	}
}

// TestConcurrentExportsLendDistinctBatches races an inline publisher's
// closes against the collector's on one bus, both on the wall clock with
// short windows, so that two exports are often out at once. Every
// aggregate an exporter is lent must still read as its key wrote it
// (both words equal), and every digest is emitted once; under -race, two
// closes filling one batch would also show as a race.
func TestConcurrentExportsLendDistinctBatches(t *testing.T) {
	var bad, digests atomic.Uint64
	check := exporterFunc(func(aggs []Aggregate) {
		for _, a := range aggs {
			if !a.Overflow && (len(a.Args) != 2 || a.Args[0] != a.Args[1]) {
				bad.Add(1)
			}
			digests.Add(a.Count)
		}
	})
	b := New(Config{Window: 50 * time.Microsecond, RingSize: 64, Exporters: []Exporter{check}})
	b.Start()
	inline, ring := b.InlineProducer("sim"), b.RingProducer("shard")
	const perProd = 20_000
	var wg sync.WaitGroup
	for _, p := range []*Producer{inline, ring} {
		wg.Add(1)
		go func(p *Producer) {
			defer wg.Done()
			for i := range uint64(perProd) {
				k := i % 97
				p.Publish(DigestFrom("race", 1, b.Now(), rep(k, k)))
			}
		}(p)
	}
	wg.Wait()
	b.Close()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d lent aggregates were written over while an exporter held them", n)
	}
	if m := b.Metrics(); digests.Load() != 2*perProd || m.Unaccounted() != 0 {
		t.Fatalf("exported %d digests of %d, %d unaccounted", digests.Load(), 2*perProd, m.Unaccounted())
	}
}

type exporterFunc func([]Aggregate)

func (f exporterFunc) ExportAggregates(aggs []Aggregate) { f(aggs) }

// TestCollectExporterKeepsCopies: what CollectExporter kept from a
// window is unchanged after 100 later windows, which the bus fills into
// the same storage (they carry fewer words, so the arena is not
// outgrown), and each kept aggregate's Args has no room past its words.
func TestCollectExporterKeepsCopies(t *testing.T) {
	clk := &manualClock{}
	sink := &CollectExporter{}
	b := New(Config{Window: 100, Clock: clk.fn(), Exporters: []Exporter{sink}})
	p := b.InlineProducer("sim")
	for i := range uint64(8) {
		p.Publish(DigestFrom("c", uint32(i), 0, rep(i, i+1, i+2)))
	}
	b.Flush()
	first := sink.Aggregates()
	kept := make([]Aggregate, len(first))
	for i, a := range first {
		kept[i] = a
		kept[i].Args = slices.Clone(a.Args)
	}
	for w := range int64(100) {
		for i := range uint64(8) {
			p.Publish(DigestFrom("c", uint32(i), 100*w+1, rep(1000+i, uint64(w))))
		}
	}
	b.Close()
	all := sink.Aggregates()
	if !reflect.DeepEqual(all[:len(kept)], kept) {
		t.Fatalf("kept aggregates changed under later windows:\n %+v\nwere\n %+v", all[:len(kept)], kept)
	}
	for _, a := range all {
		if cap(a.Args) != len(a.Args) {
			t.Fatalf("a kept aggregate's Args has room for %d more words", cap(a.Args)-len(a.Args))
		}
	}
	if len(all) != 8*101 {
		t.Fatalf("collected %d aggregates, want %d", len(all), 8*101)
	}
}
