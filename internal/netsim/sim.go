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
//     passed in and may reuse it immediately. Built-in nodes do not copy:
//     they serialise a packet once, straight into an AcquireFrame buffer,
//     and hand that buffer to the link, which owns it from then on. A
//     switch whose packet keeps its wire shape rewrites the received
//     frame in place and hands that frame itself on, so it does not
//     release it.
//   - Node.Receive transfers ownership of the frame to the receiver.
//     The frame is borrowed storage — a receiver that retains packet
//     data past its callback must copy it (Decoded.Clone), and should
//     hand the buffer back with ReleaseFrame when done (a built-in
//     switch may hand it on to a link instead). Releasing is optional
//     (an unreleased frame is just garbage-collected), but a frame has
//     one owner: a released or handed-on frame must not be referenced
//     again.
//
// # One event loop
//
// Every event is keyed (at, seq): its execution time, then a
// simulator-wide FIFO counter stamped when it is scheduled. Events of
// one instant therefore run in the order they were scheduled, and a run
// is a pure function of the topology, the traffic and the seeds.
package netsim

import (
	"fmt"
	"math"
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

// maxTime is the +infinity sentinel: the next event time of an empty
// queue, and the horizon of RunAll.
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

// Simulator owns a single-threaded event loop: all node callbacks run
// inside Run, so nodes need no locking of their own — and the frame
// free list below needs no synchronization either.
type Simulator struct {
	now    Time
	events eventQueue
	// seq is the FIFO counter of the event key: the last one stamped.
	seq uint64

	// frames is the free list backing AcquireFrame/ReleaseFrame.
	frames [][]byte

	// nodes counts the switches and hosts built on this simulator; it
	// pre-sizes the event queue and the frame free list.
	nodes int

	// EventCap bounds Run and RunAll as a runaway-loop backstop; zero
	// means the 50M default.
	EventCap uint64

	// ran counts executed events.
	ran uint64
}

// framePoolMax bounds the free list; frames released beyond it fall to
// the garbage collector.
const framePoolMax = 4096

// frameMinCap is the minimum capacity of a freshly allocated frame
// buffer, so buffers recycle across frame sizes instead of churning.
const frameMinCap = 2048

// defaultEventCap is the per-run backstop when EventCap is zero.
const defaultEventCap = 50_000_000

// NewSimulator returns an empty simulator at time zero.
func NewSimulator() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// addNode counts one more node. Large fabrics otherwise pay repeated
// append/sift growth in the first busy burst, so the event queue and the
// frame free list grow with the topology: a handful of in-flight events
// and pooled frames per node.
func (s *Simulator) addNode() {
	s.nodes++
	s.events.grow(8 * s.nodes)
	if c := min(4*s.nodes, framePoolMax); cap(s.frames) < c {
		grown := make([][]byte, len(s.frames), c)
		copy(grown, s.frames)
		s.frames = grown
	}
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

// schedule keys an event — its time clamped to now, the next FIFO
// number — and enqueues it.
func (s *Simulator) schedule(e *event) {
	if e.k.at < s.now {
		e.k.at = s.now
	}
	s.seq++
	e.k.seq = s.seq
	s.events.push(e)
}

// At schedules fn to run at absolute time t (clamped to now).
func (s *Simulator) At(t Time, fn func()) {
	s.schedule(&event{k: evKey{at: t}, payload: payload{fn: fn}})
}

// After schedules fn to run delay from now.
func (s *Simulator) After(delay Time, fn func()) { s.At(s.now+delay, fn) }

// AtNode is At: every event keys the same, whoever it touches. It stays
// because bench/workloads.go calls it; ROADMAP item 1 may drop it.
func (s *Simulator) AtNode(_ Node, t Time, fn func()) { s.At(t, fn) }

// atFrame schedules a closure-free frame delivery: at time t, the sink
// receives (frame, port). Ownership of frame passes to the sink.
func (s *Simulator) atFrame(t Time, sink frameSink, frame []byte, port int) {
	s.schedule(&event{k: evKey{at: t}, payload: payload{sink: sink, frame: frame, port: port}})
}

// Run processes events until the queue empties or the next one lies
// past until, leaves the clock at until if it was earlier, and returns
// the number of events processed.
func (s *Simulator) Run(until Time) uint64 {
	n := s.run(until)
	if s.now < until {
		s.now = until
	}
	return n
}

// RunAll drains every pending event.
func (s *Simulator) RunAll() uint64 { return s.run(maxTime) }

// run is the event loop, bounded by EventCap as a backstop against
// runaway packet loops and self-rescheduling callbacks.
func (s *Simulator) run(until Time) uint64 {
	limit := s.EventCap
	if limit == 0 {
		limit = defaultEventCap
	}
	var n uint64
	var e event
	for s.events.len() > 0 && s.events.nextAt() <= until {
		s.events.pop(&e)
		s.now = e.k.at
		if e.sink != nil {
			e.sink.deliverFrame(e.frame, e.port)
		} else {
			e.fn()
		}
		s.ran++
		n++
		if n > limit {
			panic(fmt.Sprintf("netsim: event cap exceeded at t=%s — forwarding loop?", s.now))
		}
	}
	return n
}

// SimStats describes the simulator's execution so far.
type SimStats struct {
	// EventsRun is the total executed event count.
	EventsRun uint64
}

// Stats snapshots the execution counters.
func (s *Simulator) Stats() SimStats { return SimStats{EventsRun: s.ran} }
