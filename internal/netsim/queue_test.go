package netsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// nullSink is nullNode as a frame sink that is never run.
type nullSink nullNode

func (*nullSink) deliverFrame([]byte, int) {}

// documentedOrder is the queue's order as evKey states it — (at, seq) —
// written out independently of evKey.before.
func documentedOrder(a, b *event) int {
	switch {
	case a.k.at != b.k.at:
		return int(a.k.at - b.k.at)
	case a.k.seq < b.k.seq:
		return -1
	case a.k.seq > b.k.seq:
		return 1
	}
	return 0
}

// sameEvent compares what the queue must give back: the key it was
// handed, ref aside, and the payload.
func sameEvent(a, b *event) bool {
	ak, bk := a.k, b.k
	ak.ref, bk.ref = 0, 0
	return ak == bk && a.port == b.port &&
		(a.fn == nil) == (b.fn == nil) && a.sink == b.sink && unsafe.SliceData(a.frame) == unsafe.SliceData(b.frame)
}

// TestEventQueueModel drives the queue with random interleaved pushes and
// pops — few distinct timestamps, keys stamped by schedule and keys
// pushed with any unique seq, runs of ascending keys and keys below them
// — against a sorted slice, and requires that a popped event's slab slot
// holds no frame or closure.
func TestEventQueueModel(t *testing.T) {
	if s := unsafe.Sizeof(evKey{}); s != 24 {
		t.Fatalf("evKey is %d bytes, want 24", s)
	}
	rng := rand.New(rand.NewSource(7))
	sink := &nullSink{}
	for round := 0; round < 200; round++ {
		s := NewSimulator()
		var model []event
		id := 0
		push := func() {
			id++
			e := event{payload: payload{port: id}}
			if rng.Intn(2) == 0 {
				e.fn = func() {}
			} else {
				e.sink, e.frame = sink, make([]byte, 1)
			}
			if rng.Intn(3) == 0 {
				// Any time, and a seq out of schedule's order.
				e.k = evKey{at: Time(rng.Intn(6)), seq: 1<<32 - uint64(id)}
				s.events.push(&e)
			} else {
				s.now = Time(rng.Intn(3))
				e.k = evKey{at: s.now + Time(rng.Intn(4))}
				s.schedule(&e)
			}
			model = append(model, e)
		}
		pop := func() {
			slices.SortFunc(model, func(a, b event) int { return documentedOrder(&a, &b) })
			var got event
			if at := s.events.nextAt(); at != model[0].k.at {
				t.Fatalf("round %d: nextAt = %d, model %d", round, at, model[0].k.at)
			}
			s.events.pop(&got)
			if !sameEvent(&got, &model[0]) {
				t.Fatalf("round %d: popped %+v, model %+v", round, got, model[0])
			}
			if p := s.events.slab[got.k.ref]; !reflect.DeepEqual(p, payload{}) {
				t.Fatalf("round %d: popped event left %+v in its slab slot", round, p)
			}
			model = model[1:]
		}
		for op := 0; op < 300; op++ {
			if len(model) == 0 || rng.Intn(5) < 3 {
				push()
			} else {
				pop()
			}
			if s.events.len() != len(model) {
				t.Fatalf("round %d: %d pending, model %d", round, s.events.len(), len(model))
			}
		}
		for len(model) > 0 {
			pop()
		}
		if at := s.events.nextAt(); at != maxTime {
			t.Fatalf("round %d: empty queue's nextAt = %d", round, at)
		}
		for i, p := range s.events.slab {
			if !reflect.DeepEqual(p, payload{}) {
				t.Fatalf("round %d: drained queue keeps %+v in slab slot %d", round, p, i)
			}
		}
		if len(s.events.free) != len(s.events.slab) {
			t.Fatalf("round %d: %d of %d slab slots free after draining", round, len(s.events.free), len(s.events.slab))
		}
	}
}

// TestSameInstantFIFO schedules events of one instant through At, AtNode
// and link deliveries, interleaved, then more from the instant's first
// callback, and requires them to run in the order they were scheduled.
func TestSameInstantFIFO(t *testing.T) {
	sim := NewSimulator()
	src, dst := &nullNode{sim: sim}, &orderNode{sim: sim}
	// Infinite line rate: a frame sent on slow at 0 arrives at exactly
	// 100, one sent on fast arrives when it is sent.
	slow := Connect(sim, src, 1, dst, 1, 0, 100)
	fast := Connect(sim, src, 2, dst, 2, 0, 0)
	sw := NewSwitch(sim, 1, "sw")
	mark := func(i byte) func() { return func() { dst.seen = append(dst.seen, i) } }
	const n = 30
	sim.At(100, func() {
		mark(0)()
		sim.At(100, mark(n))
		sim.AtNode(sw, 100, mark(n+1))
		fast.transmit(src, append(sim.AcquireFrame(1)[:0], n+2))
	})
	for i := byte(1); i < n; i++ {
		switch i % 3 {
		case 0:
			sim.At(100, mark(i))
		case 1:
			sim.AtNode(sw, 100, mark(i))
		default:
			slow.transmit(src, append(sim.AcquireFrame(1)[:0], i))
		}
	}
	sim.RunAll()
	want := make([]byte, n+3)
	for i := range want {
		want[i] = byte(i)
	}
	if !slices.Equal(dst.seen, want) {
		t.Fatalf("same-instant events ran in the order %v, want %v", dst.seen, want)
	}
}

// TestEventQueueRunStaysBounded feeds the sorted run as fast as it drains
// — two generators each scheduling their next event from their own
// callback, so the run is never empty — and requires that its storage
// follows what is pending, not what has passed.
func TestEventQueueRunStaysBounded(t *testing.T) {
	s := NewSimulator()
	var tick func()
	n := 0
	tick = func() {
		if n++; n < 100000 {
			s.After(10, tick)
		}
	}
	s.At(0, tick)
	s.At(5, tick)
	s.RunAll()
	if n < 100000 || cap(s.events.run) > 64 || len(s.events.heap) != 0 {
		t.Fatalf("after %d events the run holds %d keys of storage, the heap %d keys", n, cap(s.events.run), len(s.events.heap))
	}
}

// BenchmarkEventHeap is the wire workload's queue shape: a campaign's
// 49 152 sends scheduled up front wait far in the future while every
// frame in flight pushes a near-term event and pops it.
func BenchmarkEventHeap(b *testing.B) {
	s := NewSimulator()
	sink := &nullNode{sim: s}
	const backlog = 49152
	for i := 0; i < backlog; i++ {
		s.At(Second+Time(i)*Microsecond, func() {})
	}
	frame := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.now = Time(i)
		s.atFrame(s.now+500, (*nullSink)(sink), frame, 1)
		s.atFrame(s.now+300, (*nullSink)(sink), frame, 1)
		var e event
		if s.events.pop(&e); e.k.at != s.now+300 {
			b.Fatalf("popped t=%d, want %d", e.k.at, s.now+300)
		}
		s.events.pop(&e)
	}
	b.StopTimer()
	if s.events.len() != backlog {
		b.Fatalf("%d events pending, want the backlog of %d", s.events.len(), backlog)
	}
}
