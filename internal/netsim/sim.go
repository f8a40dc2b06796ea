// Package netsim is a deterministic discrete-event network simulator:
// hosts, programmable switches, and links with bandwidth, propagation
// delay, and drop-tail queues. It is the testbed substrate for the
// paper's case studies (§5) and performance experiments (§6.2): Mininet
// and the Aether hardware pods are replaced by this simulator, with the
// Hydra checker attached to switches exactly where the compiler's
// linking rules place it (init at first-hop ingress, telemetry at every
// egress, checker at last-hop egress).
//
// # Frame ownership
//
// The wire path recycles frame buffers through the simulator's free
// list (AcquireFrame/ReleaseFrame). The contract, enforced by every
// built-in node and expected of custom ones:
//
//   - Link.Send copies the frame: the caller keeps ownership of what it
//     passed in and may reuse it immediately.
//   - Node.Receive transfers ownership of the frame to the receiver.
//     The frame is borrowed storage — a receiver that retains packet
//     data past its callback must copy it (Decoded.Clone), and should
//     hand the buffer back with ReleaseFrame when done. Releasing is
//     optional (an unreleased frame is just garbage-collected), but a
//     released frame must not be referenced again.
//
// Under partitioning (see below) each shard owns its own free list;
// a frame sent across a shard boundary is acquired from the sender's
// pool and released into the receiver's. Buffers therefore migrate
// between pools, which is harmless: both pools are bounded and a
// buffer belongs to exactly one owner at a time — the ownership
// contract above is unchanged.
//
// # Parallel execution
//
// Partition splits the topology into P shards (switches striped in
// registration order, every other node co-located with its first
// switch peer) and runs them as a conservative-lookahead parallel
// discrete-event simulation: links are the only cross-shard edges, so
// the minimum propagation delay of any cross-shard link bounds how far
// one shard's present can influence another's future. Each window the
// coordinator computes the global minimum pending event time `low`,
// runs any control events (root At/After callbacks) scheduled at it,
// and releases every shard to execute events in [low, low+lookahead)
// in parallel; cross-shard Link.Send calls are buffered in per-(src,
// dst) outboxes that the coordinator drains into the destination heaps
// at the next barrier, which the lookahead guarantees is early enough.
//
// Determinism is the hard contract. Every event is keyed
// (at, schedAt, origin, seq): the execution time, the time it was
// scheduled, the stable registration ID of the node whose callback
// scheduled it (0 for external/control context), and a per-origin FIFO
// counter (see evKey). Each component is independent of the shard
// count, a node's events execute in key order on its shard regardless
// of P, so the per-origin counters advance identically at every shard
// count and the induced total order — and with it captures, counters,
// fault RNG draws, and verdicts — is byte-identical from P=1 to P=8.
// The sequential loop (no Partition call) uses the same keys and
// remains the fast path.
package netsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Time is simulation time in nanoseconds since simulation start.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// maxTime is the +infinity sentinel for window arithmetic.
const maxTime = Time(math.MaxInt64)

// Duration converts to a time.Duration for printing.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return t.Duration().String() }

// Seconds returns the time in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// frameSink is the closure-free form of a frame-delivery event: the
// wire path schedules (sink, frame, port) triples instead of capturing
// them in a func, so steady-state forwarding allocates nothing per hop.
type frameSink interface {
	deliverFrame(frame []byte, port int)
}

// Simulator owns an event loop. Unpartitioned it is single-threaded:
// all node callbacks run inside Run, so nodes need no locking of their
// own — and the frame free list below needs no synchronization either.
// After Partition the root Simulator becomes the coordinator of P
// child shard loops (see the package comment); node callbacks then run
// on their shard's goroutine, still one at a time per node.
type Simulator struct {
	now    Time
	events eventQueue

	// frames is the free list backing AcquireFrame/ReleaseFrame.
	frames [][]byte

	// Node registry (root simulator only): stable IDs in registration
	// order drive both event ordering and shard assignment. ID 0 is
	// reserved for external/control context.
	nodes   []Node
	nodeIDs map[Node]int32
	links   []*Link
	caps    []*Capture

	// seqs holds the per-origin FIFO counters, indexed by stable node
	// ID. The backing array is shared with every shard: entry i is only
	// ever touched while an event destined to node i executes, which
	// happens on exactly one shard.
	seqs []uint64

	// curOrigin is the dest of the executing event: the origin stamped
	// on everything the current callback schedules. curEvKey is the
	// executing event's own sort key (captures canonicalize records
	// on it).
	curOrigin int32
	curEvKey  evKey

	// EventCap bounds RunAll as a runaway-loop backstop; zero means the
	// 50M default.
	EventCap uint64

	// EventsRun counts executed events. On a partitioned root it is
	// refreshed at every Run/RunAll return to include all shards.
	EventsRun uint64
	localRun  uint64

	// par is non-nil on a partitioned root; shard/root identify a child.
	par    *partition
	root   *Simulator
	shard  int
	outbox [][]event // child only: cross-shard sends per destination shard
}

// partition is the coordinator state of a partitioned root simulator.
type partition struct {
	children  []*Simulator
	gates     []gate
	shardOf   []int32 // stable node ID -> shard
	lookahead Time
	barriers  uint64
	// nowLow mirrors the coordinator clock for concurrent Now() readers
	// (e.g. a report-bus clock sampled from shard goroutines).
	nowLow atomic.Int64
}

// gate synchronizes the coordinator with one shard worker: windows are
// granted over work and acknowledged over done. Channel send/receive
// pairs give the happens-before edges that make the coordinator's
// between-window access to shard heaps race-free.
type gate struct {
	work chan Time
	done chan struct{}
}

// framePoolMax bounds the free list; frames released beyond it fall to
// the garbage collector.
const framePoolMax = 4096

// frameMinCap is the minimum capacity of a freshly allocated frame
// buffer, so buffers recycle across frame sizes instead of churning.
const frameMinCap = 2048

// defaultEventCap is the RunAll backstop when EventCap is zero.
const defaultEventCap = 50_000_000

// NewSimulator returns an empty simulator at time zero.
func NewSimulator() *Simulator {
	return &Simulator{seqs: make([]uint64, 1, 64)}
}

// Now returns the current simulation time. Inside a node callback this
// is the executing event's time on that node's shard; on a partitioned
// root observed from another goroutine it is the coordinator's window
// base, which trails every shard by at most the lookahead.
func (s *Simulator) Now() Time {
	if s.par != nil {
		return Time(s.par.nowLow.Load())
	}
	return s.now
}

// registerNode assigns the next stable ID. Registration order must be
// a pure function of topology construction — it is both the event
// tie-break order and the shard striping order.
func (s *Simulator) registerNode(n Node) int32 {
	if s.root != nil {
		return s.root.registerNode(n)
	}
	if s.par != nil {
		panic("netsim: cannot add nodes after Partition")
	}
	if id, ok := s.nodeIDs[n]; ok {
		return id
	}
	if s.nodeIDs == nil {
		s.nodeIDs = make(map[Node]int32, 64)
	}
	s.nodes = append(s.nodes, n)
	id := int32(len(s.nodes)) // IDs start at 1; 0 is external/control
	s.nodeIDs[n] = id
	s.seqs = append(s.seqs, 0)
	// Pre-size the event heap and frame free list from the topology:
	// large fabrics otherwise pay repeated append/sift growth in the
	// first busy window. Heuristic: a handful of in-flight events and
	// pooled frames per node.
	s.events.grow(8 * len(s.nodes))
	if c := min(4*len(s.nodes), framePoolMax); cap(s.frames) < c {
		grown := make([][]byte, len(s.frames), c)
		copy(grown, s.frames)
		s.frames = grown
	}
	return id
}

// originOf returns the stable ID of a registered node (0 if unknown).
func (s *Simulator) originOf(n Node) int32 {
	return s.nodeIDs[n]
}

// AcquireFrame returns a frame buffer of length n, reusing the free
// list when possible. The buffer contents are arbitrary: callers are
// expected to overwrite all n bytes.
func (s *Simulator) AcquireFrame(n int) []byte {
	if k := len(s.frames); k > 0 {
		b := s.frames[k-1]
		s.frames[k-1] = nil
		s.frames = s.frames[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this frame: let it go and allocate fresh.
	}
	c := n
	if c < frameMinCap {
		c = frameMinCap
	}
	return make([]byte, n, c)
}

// ReleaseFrame returns a frame buffer to the free list. The caller must
// not touch the buffer afterwards.
func (s *Simulator) ReleaseFrame(b []byte) {
	if cap(b) == 0 || len(s.frames) >= framePoolMax {
		return
	}
	s.frames = append(s.frames, b[:0])
}

// nextSeq advances the FIFO counter of one origin. Safe by ownership:
// origin o's counter is only touched while an event destined to o (or,
// for o == 0, coordinator/external code) executes.
func (s *Simulator) nextSeq(origin int32) uint64 {
	s.seqs[origin]++
	return s.seqs[origin]
}

// schedule keys an event in this loop's context — clamped to now,
// stamped with the scheduling time and its origin's next seq — and
// enqueues it on the loop that owns its destination: this one; a
// shard's, from the coordinator, whose workers are parked between
// windows; or, from a worker, the outbox the coordinator drains into
// that shard at the next barrier.
func (s *Simulator) schedule(e *event, on *Simulator) {
	if e.k.at < s.now {
		e.k.at = s.now
	}
	e.k.schedAt = s.now
	e.k.seq = s.nextSeq(e.k.origin)
	if on == s || s.root == nil {
		on.events.push(e)
		return
	}
	s.outbox[on.shard] = append(s.outbox[on.shard], *e)
}

// runNext pops the earliest event and runs it.
func (s *Simulator) runNext() {
	var e event
	s.events.pop(&e)
	s.now = e.k.at
	s.curOrigin = e.dest
	s.curEvKey = e.k
	if e.sink != nil {
		e.sink.deliverFrame(e.frame, e.port)
	} else {
		e.fn()
	}
	s.localRun++
}

// At schedules fn to run at absolute time t (clamped to now). Called
// from outside any node callback this is external/control context: on
// a partitioned root such events run on the coordinator between
// windows, so fn may safely mutate controller or checker state — but
// it must not send packets or touch node state; schedule through
// AtNode for that.
func (s *Simulator) At(t Time, fn func()) {
	s.schedule(&event{k: evKey{at: t, origin: s.curOrigin}, payload: payload{fn: fn, dest: s.curOrigin}}, s)
}

// After schedules fn to run delay from now.
func (s *Simulator) After(delay Time, fn func()) { s.At(s.now+delay, fn) }

// AtNode schedules fn at absolute time t in node n's execution context:
// it runs on n's shard, ordered with n's other events, and anything it
// schedules inherits n's origin. This is the injection path for
// partitioned runs — a root At callback that touched a node would force
// the coordinator to serialize every window around it, while AtNode
// events flow through the shard loops at full lookahead. Only valid on
// the root simulator, from external or control context.
func (s *Simulator) AtNode(n Node, t Time, fn func()) {
	if s.root != nil {
		panic("netsim: AtNode on a shard loop")
	}
	id := s.originOf(n)
	if id == 0 {
		s.At(t, fn)
		return
	}
	on := s
	if s.par != nil {
		on = s.par.children[s.par.shardOf[id]]
	}
	s.schedule(&event{k: evKey{at: t, origin: s.curOrigin}, payload: payload{fn: fn, dest: id}}, on)
}

// atFrame schedules a closure-free frame delivery: at time t, the sink
// receives (frame, port). Ownership of frame passes to the sink. dest
// is the stable ID of the receiving node.
func (s *Simulator) atFrame(t Time, sink frameSink, frame []byte, port int, dest int32) {
	s.schedule(&event{k: evKey{at: t, origin: s.curOrigin}, payload: payload{sink: sink, frame: frame, port: port, dest: dest}}, s)
}

// sendFrame schedules a link delivery on the loop of the receiving
// endpoint.
func (s *Simulator) sendFrame(t Time, sink *linkSink, frame []byte) {
	s.schedule(&event{k: evKey{at: t, origin: s.curOrigin}, payload: payload{sink: sink, frame: frame, port: sink.to.port, dest: sink.origin}}, sink.sim)
}

// Run processes events until the queue empties or the clock passes
// until; it returns the number of events processed.
func (s *Simulator) Run(until Time) uint64 {
	if s.par != nil {
		return s.runParallel(until, true)
	}
	var n uint64
	for s.events.len() > 0 && s.events.nextAt() <= until {
		s.runNext()
		n++
	}
	if s.now < until {
		s.now = until
	}
	s.finish()
	return n
}

// RunAll drains every pending event, bounded by EventCap as a backstop
// against runaway packet loops.
func (s *Simulator) RunAll() uint64 {
	if s.par != nil {
		return s.runParallel(0, false)
	}
	limit := s.EventCap
	if limit == 0 {
		limit = defaultEventCap
	}
	var n uint64
	for s.events.len() > 0 {
		s.runNext()
		n++
		if n > limit {
			panic(fmt.Sprintf("netsim: event cap exceeded at t=%s — forwarding loop?", s.now))
		}
	}
	s.finish()
	return n
}

// finish runs end-of-run canonicalization on the root: external
// context is restored, per-direction link counters fold into the
// public totals, and captures sort into key order. All steps are
// idempotent, so repeated Run calls stay correct.
func (s *Simulator) finish() {
	s.curOrigin = 0
	s.EventsRun = s.localRun
	if s.par != nil {
		for _, c := range s.par.children {
			s.EventsRun += c.localRun
		}
	}
	for _, l := range s.links {
		l.Frames = l.toA.frames + l.toB.frames
		l.Bytes = l.toA.bytes + l.toB.bytes
	}
	for _, c := range s.caps {
		c.finalize()
	}
}

// Pending reports the number of queued events across all shards.
func (s *Simulator) Pending() int {
	n := s.events.len()
	if s.par != nil {
		for _, c := range s.par.children {
			n += c.events.len()
			for _, box := range c.outbox {
				n += len(box)
			}
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Partitioning

// Partition splits the simulator into p parallel shard loops. It must
// be called on the root after the topology is built (nodes registered,
// links connected) and before — or between — runs; pending events
// migrate to their owning shards. p <= 1 is a no-op: the sequential
// loop is the 1-shard fast path.
//
// Switches are striped round-robin over the shards in registration
// order; every other node joins the shard of the first switch it
// shares a link with (shard 0 if none). Links are then the only
// cross-shard edges, and the minimum PropDelay among cross-shard links
// becomes the lookahead window. A cross-shard link with zero
// propagation delay is an error: it would leave no safe window.
func (s *Simulator) Partition(p int) error {
	if s.root != nil {
		return fmt.Errorf("netsim: Partition on a shard loop")
	}
	if s.par != nil {
		return fmt.Errorf("netsim: already partitioned")
	}
	if p <= 1 {
		return nil
	}

	// Shard assignment: switches striped, everything else co-located.
	shardOf := make([]int32, len(s.nodes)+1)
	for i := range shardOf {
		shardOf[i] = -1
	}
	swIdx := 0
	for _, n := range s.nodes {
		if _, ok := n.(*Switch); ok {
			shardOf[s.nodeIDs[n]] = int32(swIdx % p)
			swIdx++
		}
	}
	if swIdx == 0 {
		return fmt.Errorf("netsim: Partition needs at least one switch to stripe")
	}
	for _, l := range s.links {
		ai, bi := s.nodeIDs[l.a.node], s.nodeIDs[l.b.node]
		if shardOf[ai] >= 0 && shardOf[bi] < 0 {
			shardOf[bi] = shardOf[ai]
		}
		if shardOf[bi] >= 0 && shardOf[ai] < 0 {
			shardOf[ai] = shardOf[bi]
		}
	}
	for i := range shardOf {
		if shardOf[i] < 0 {
			shardOf[i] = 0
		}
	}

	// Lookahead: the tightest cross-shard propagation delay.
	lookahead := maxTime
	for _, l := range s.links {
		if shardOf[s.nodeIDs[l.a.node]] == shardOf[s.nodeIDs[l.b.node]] {
			continue
		}
		if l.PropDelay <= 0 {
			return fmt.Errorf("netsim: cross-shard link %s-%s has no propagation delay (zero lookahead)",
				l.a.node.NodeName(), l.b.node.NodeName())
		}
		if l.PropDelay < lookahead {
			lookahead = l.PropDelay
		}
	}

	par := &partition{
		children:  make([]*Simulator, p),
		gates:     make([]gate, p),
		shardOf:   shardOf,
		lookahead: lookahead,
	}
	perShard := make([]int, p)
	for _, id := range shardOf[1:] {
		perShard[id]++
	}
	for i := range par.children {
		c := &Simulator{
			root:   s,
			shard:  i,
			seqs:   s.seqs, // shared backing; entries are shard-owned
			now:    s.now,
			frames: make([][]byte, 0, min(framePoolMax, max(16, 4*perShard[i]))),
			outbox: make([][]event, p),
		}
		c.events.grow(max(64, 8*perShard[i]))
		par.children[i] = c
		par.gates[i] = gate{work: make(chan Time), done: make(chan struct{})}
	}

	// Re-point every shard-aware component at its owning loop.
	for _, n := range s.nodes {
		c := par.children[shardOf[s.nodeIDs[n]]]
		switch v := n.(type) {
		case *Switch:
			v.sim = c
		case *Host:
			v.sim = c
		}
	}
	for _, l := range s.links {
		sa := par.children[shardOf[s.nodeIDs[l.a.node]]]
		sb := par.children[shardOf[s.nodeIDs[l.b.node]]]
		l.simA, l.simB = sa, sb
		l.toA.sim, l.toB.sim = sa, sb
	}

	// Migrate pending node events (scheduled via AtNode or direct
	// Receive calls before Partition) to their shards, keys intact;
	// control events stay on the coordinator.
	pending := make([]event, s.events.len())
	for i := range pending {
		s.events.pop(&pending[i])
	}
	for i := range pending {
		if e := &pending[i]; e.dest == 0 {
			s.events.push(e)
		} else {
			par.children[shardOf[e.dest]].events.push(e)
		}
	}

	s.par = par
	par.nowLow.Store(int64(s.now))
	return nil
}

// stopWindow is the worker-shutdown sentinel.
const stopWindow = Time(math.MinInt64)

// runWindow executes every local event strictly before we.
func (s *Simulator) runWindow(we Time) {
	for s.events.nextAt() < we {
		s.runNext()
	}
	// Leave the loop in external context: anything the coordinator
	// routes through this shard between windows keys as control.
	s.curOrigin = 0
}

// runParallel is the coordinator loop (see the package comment).
func (s *Simulator) runParallel(until Time, bounded bool) uint64 {
	par := s.par
	limit := s.EventCap
	if limit == 0 {
		limit = defaultEventCap
	}
	before := s.localRun
	for _, c := range par.children {
		before += c.localRun
	}

	var wg sync.WaitGroup
	for i, c := range par.children {
		wg.Add(1)
		go func(c *Simulator, g *gate) {
			defer wg.Done()
			for we := range g.work {
				if we == stopWindow {
					g.done <- struct{}{}
					return
				}
				c.runWindow(we)
				g.done <- struct{}{}
			}
		}(c, &par.gates[i])
	}
	stop := func() {
		for i := range par.gates {
			par.gates[i].work <- stopWindow
		}
		for i := range par.gates {
			<-par.gates[i].done
		}
		wg.Wait()
	}

	total := before
	for {
		// Drain the outboxes filled in the previous window into the
		// destination heaps. Workers are parked, so the coordinator owns
		// every heap here.
		for _, c := range par.children {
			for dst, box := range c.outbox {
				for j := range box {
					par.children[dst].events.push(&box[j])
					box[j] = event{}
				}
				c.outbox[dst] = box[:0]
			}
		}

		// Global minimum pending event time.
		low := maxTime
		for _, c := range par.children {
			if t := c.events.nextAt(); t < low {
				low = t
			}
		}
		if t := s.events.nextAt(); t < low {
			low = t
		}
		if low == maxTime || (bounded && low > until) {
			break
		}

		// Advance every clock to the window base so control callbacks
		// (and the sends they make) observe the same now as the
		// sequential loop would.
		s.now = low
		par.nowLow.Store(int64(low))
		for _, c := range par.children {
			if c.now < low {
				c.now = low
			}
		}

		// Control events at low run first — origin 0 sorts ahead of
		// every node event at the same timestamp, exactly as in the
		// sequential order.
		for s.events.nextAt() == low {
			s.runNext()
		}

		// The safe window: lookahead ahead of low, but never past the
		// next control event or the bounded horizon.
		we := low + par.lookahead
		if we < low {
			we = maxTime // overflow
		}
		if t := s.events.nextAt(); t < we {
			we = t
		}
		if bounded && until+1 < we {
			we = until + 1
		}

		for i := range par.gates {
			par.gates[i].work <- we
		}
		for i := range par.gates {
			<-par.gates[i].done
		}
		par.barriers++

		total = s.localRun
		for _, c := range par.children {
			total += c.localRun
		}
		if total-before > limit {
			stop()
			panic(fmt.Sprintf("netsim: event cap exceeded at t=%s — forwarding loop?", s.now))
		}
	}
	stop()

	end := s.now
	for _, c := range par.children {
		if c.now > end {
			end = c.now
		}
	}
	if bounded && end < until {
		end = until
	}
	s.now = end
	par.nowLow.Store(int64(end))
	s.finish()
	return total - before
}

// SimStats describes one run of the (possibly partitioned) simulator.
type SimStats struct {
	// Shards is the partition width (1 = sequential loop).
	Shards int
	// Lookahead is the safe window, in simulated time (0 when
	// sequential, maximum when no link crosses shards).
	Lookahead Time
	// Barriers counts coordinator windows executed so far.
	Barriers uint64
	// EventsRun is the total executed event count.
	EventsRun uint64
	// ShardEvents is the per-shard event balance (nil when sequential).
	ShardEvents []uint64
}

// Stats snapshots the execution counters. Call between runs.
func (s *Simulator) Stats() SimStats {
	st := SimStats{Shards: 1, EventsRun: s.EventsRun}
	if s.par == nil {
		return st
	}
	st.Shards = len(s.par.children)
	if s.par.lookahead != maxTime {
		st.Lookahead = s.par.lookahead
	}
	st.Barriers = s.par.barriers
	st.ShardEvents = make([]uint64, len(s.par.children))
	for i, c := range s.par.children {
		st.ShardEvents[i] = c.localRun
	}
	return st
}
