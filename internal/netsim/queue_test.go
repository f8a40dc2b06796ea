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

// documentedOrder is the queue's order as the package comment states it —
// (at, control first, schedAt, origin, seq) — written out independently of
// evKey.before.
func documentedOrder(a, b *event) int {
	switch {
	case a.k.at != b.k.at:
		return int(a.k.at - b.k.at)
	case (a.dest == 0) != (b.dest == 0):
		if a.dest == 0 {
			return -1
		}
		return 1
	case a.k.schedAt != b.k.schedAt:
		return int(a.k.schedAt - b.k.schedAt)
	case a.k.origin != b.k.origin:
		return int(a.k.origin - b.k.origin)
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
	return ak == bk && a.dest == b.dest && a.port == b.port &&
		(a.fn == nil) == (b.fn == nil) && a.sink == b.sink && unsafe.SliceData(a.frame) == unsafe.SliceData(b.frame)
}

// TestEventQueueModel drives the queue with random interleaved pushes and
// pops — few distinct timestamps, control and node events, keys assigned
// here and foreign keys as a cross-shard send delivers them, runs of
// ascending keys and keys below them — against a sorted slice, and
// requires that a popped event's slab slot holds no frame or closure.
func TestEventQueueModel(t *testing.T) {
	if s := unsafe.Sizeof(evKey{}); s != 32 {
		t.Fatalf("evKey is %d bytes, want 32", s)
	}
	rng := rand.New(rand.NewSource(7))
	sink := &nullSink{}
	for round := 0; round < 200; round++ {
		s := NewSimulator()
		s.seqs = append(s.seqs, 0, 0) // origins 1 and 2
		var model []event
		id := 0
		push := func() {
			id++
			e := event{payload: payload{port: id, dest: int32(rng.Intn(4))}}
			if rng.Intn(2) == 0 {
				e.fn = func() {}
			} else {
				e.sink, e.frame = sink, make([]byte, 1)
			}
			if rng.Intn(3) == 0 {
				// A foreign key: any schedAt, origin and seq.
				e.k = evKey{at: Time(rng.Intn(6)), schedAt: Time(rng.Intn(3)), origin: int32(rng.Intn(3)), seq: 1<<32 | uint64(id)}
				s.events.push(&e)
			} else {
				s.now = Time(rng.Intn(3))
				e.k = evKey{at: s.now + Time(rng.Intn(4)), origin: int32(rng.Intn(3))}
				s.schedule(&e, s)
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
			if p := s.events.slab[got.k.ref&^nodeEvent]; !reflect.DeepEqual(p, payload{}) {
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

// TestPartitionKeepsPendingEvents schedules control and node events,
// partitions, and requires every event back with the key it had: control
// events on the coordinator, a node's events on its shard.
func TestPartitionKeepsPendingEvents(t *testing.T) {
	sim := NewSimulator()
	a, b := NewSwitch(sim, 1, "a"), NewSwitch(sim, 2, "b")
	l := Connect(sim, a, 1, b, 1, 0, Microsecond)
	a.AttachLink(1, l)
	b.AttachLink(1, l)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		at := Time(rng.Intn(50))
		switch rng.Intn(3) {
		case 0:
			sim.At(at, func() {})
		case 1:
			sim.AtNode(a, at, func() {})
		default:
			sim.AtNode(b, at, func() {})
		}
	}
	drain := func(s *Simulator) []event {
		out := make([]event, s.events.len())
		for i := range out {
			s.events.pop(&out[i])
			if i > 0 && documentedOrder(&out[i-1], &out[i]) >= 0 {
				t.Fatalf("popped %+v before %+v", out[i-1].k, out[i].k)
			}
			out[i].k.ref, out[i].fn = 0, nil
		}
		return out
	}
	// Take the keys as the unpartitioned loop holds them, and put them back.
	pending := drain(sim)
	for i := range pending {
		e := pending[i]
		e.fn = func() {}
		sim.events.push(&e)
	}

	if err := sim.Partition(2); err != nil {
		t.Fatal(err)
	}
	if sim.Pending() != len(pending) {
		t.Fatalf("%d events pending after Partition, %d before", sim.Pending(), len(pending))
	}
	var got []event
	for _, e := range drain(sim) {
		if e.dest != 0 {
			t.Fatalf("node event %+v left on the coordinator", e.k)
		}
		got = append(got, e)
	}
	for shard, c := range sim.par.children {
		for _, e := range drain(c) {
			if e.dest == 0 || int(sim.par.shardOf[e.dest]) != shard {
				t.Fatalf("event for node %d on shard %d", e.dest, shard)
			}
			got = append(got, e)
		}
	}
	slices.SortFunc(got, func(a, b event) int { return documentedOrder(&a, &b) })
	if !reflect.DeepEqual(got, pending) {
		t.Fatalf("Partition changed the pending events:\n got %+v\nwant %+v", got, pending)
	}
}

// BenchmarkEventHeap is the wire workload's queue shape: a campaign's
// 49 152 sends scheduled up front wait far in the future while every
// frame in flight pushes a near-term event and pops it.
func BenchmarkEventHeap(b *testing.B) {
	s := NewSimulator()
	sink := &nullNode{sim: s}
	src := NewSwitch(s, 1, "src")
	const backlog = 49152
	for i := 0; i < backlog; i++ {
		s.AtNode(src, Second+Time(i)*Microsecond, func() {})
	}
	frame := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.now = Time(i)
		s.atFrame(s.now+500, (*nullSink)(sink), frame, 1, 1)
		s.atFrame(s.now+300, (*nullSink)(sink), frame, 1, 1)
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
