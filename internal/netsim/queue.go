package netsim

// evKey is an event's sort key: at, the execution time, then seq, the
// simulator's FIFO counter at scheduling. seq is unique, so the order is
// total, and same-instant events run in the order they were scheduled.
//
// ref belongs to the queue the key waits in: the slab slot of the
// event's payload, assigned by eventQueue.push.
type evKey struct {
	at  Time
	seq uint64
	ref uint32
}

func (a *evKey) before(b *evKey) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// payload is what an event does when its time comes: it runs
// sink.deliverFrame(frame, port). At's callback is a funcSink.
type payload struct {
	sink  frameSink
	frame []byte
	port  int
}

// event is one scheduled callback or frame delivery in transit: what
// the queue takes and gives back. Events travel by pointer: a by-value
// event is 72 bytes copied at every call.
type event struct {
	k evKey
	payload
}

// eventQueue holds the pending events: the 24-byte keys in order,
// the payloads in a slab the keys point into, so that ordering never
// moves what an event carries. (container/heap would box every event
// into an interface on Push — one allocation per scheduled event — which
// is exactly what the zero-allocation wire path removes.)
//
// bench/'s wireRun.schedule queues its 49 152 sends up front, and in a
// heap that backlog lies under every frame in flight: each near-term
// push would climb its whole depth and each pop sink the last far-future
// key back down it (wire-campus reads 15 % fewer pps). So a key not
// before the last one of run is appended to run, a sorted FIFO consumed
// from head, and only a key that is goes into the heap — which then
// holds little more than the frames in flight. pop takes the smaller of
// the two fronts; before is a total order, so the pop order is the
// sorted order of the keys whatever the split between run and heap was.
type eventQueue struct {
	heap eventHeap
	run  []evKey
	head int // run[head:] is pending

	slab []payload
	free []uint32 // slab slots to reuse, last freed first
}

func (q *eventQueue) len() int { return len(q.heap) + len(q.run) - q.head }

// grow makes room for n pending events.
func (q *eventQueue) grow(n int) {
	if cap(q.slab) < n {
		q.heap = append(make(eventHeap, 0, n), q.heap...)
		q.slab = append(make([]payload, 0, n), q.slab...)
	}
}

// front returns the earliest key, nil when the queue is empty, and
// whether it is run's.
func (q *eventQueue) front() (k *evKey, inRun bool) {
	if len(q.heap) > 0 {
		k = &q.heap[0]
	}
	if q.head < len(q.run) {
		if r := &q.run[q.head]; k == nil || r.before(k) {
			return r, true
		}
	}
	return k, false
}

// nextAt is the earliest event's time, maxTime when there is none.
func (q *eventQueue) nextAt() Time {
	if k, _ := q.front(); k != nil {
		return k.at
	}
	return maxTime
}

// push enqueues an event Simulator.schedule has just keyed.
func (q *eventQueue) push(e *event) {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.slab[slot] = e.payload
	} else {
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, e.payload)
	}
	k := e.k
	k.ref = slot
	if n := len(q.run); n > q.head && k.before(&q.run[n-1]) {
		q.heap = append(q.heap, k)
		q.heap.up(len(q.heap)-1, k)
		return
	}
	// The consumed front of run is dropped once it is the larger part, so
	// a run that is fed as fast as it drains stays as long as what is
	// pending, at one copied key per key appended.
	if q.head > len(q.run)/2 {
		q.run = q.run[:copy(q.run, q.run[q.head:])]
		q.head = 0
	}
	q.run = append(q.run, k)
}

// pop moves the earliest event into e.
func (q *eventQueue) pop(e *event) {
	k, inRun := q.front()
	e.k = *k
	if inRun {
		q.head++
	} else {
		n := len(q.heap) - 1
		last := q.heap[n]
		q.heap = q.heap[:n]
		if n > 0 {
			q.heap.sink(last)
		}
	}
	slot := e.k.ref
	e.payload = q.slab[slot]
	q.slab[slot] = payload{} // drop frame and sink references
	q.free = append(q.free, slot)
}

// eventHeap is a hand-rolled min-heap of keys, heapArity wide: half the
// levels of a binary heap, a node's children side by side.
type eventHeap []evKey

const heapArity = 4

// up and sink sift with a hole: each level moves one key into the hole
// instead of swapping two, and the moving key is placed once at the end.

// up restores the heap after e was put at h[i], its last position.
func (h eventHeap) up(i int, e evKey) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// sink restores the heap after the root was taken and e, the former last
// key, has to go back in. That key came from the bottom and nearly
// always belongs there again, so the hole first descends to a leaf along
// the smallest children, never comparing them with e, and e then climbs
// from the leaf the step or two it has to.
func (h eventHeap) sink(e evKey) {
	n, i := len(h), 0
	for {
		small := heapArity*i + 1
		if small >= n {
			break
		}
		for c, end := small+1, min(small+heapArity, n); c < end; c++ {
			if h[c].before(&h[small]) {
				small = c
			}
		}
		h[i] = h[small]
		i = small
	}
	h.up(i, e)
}
