package reportbus

import "sync/atomic"

// ring is a bounded single-producer single-consumer digest queue. The
// producer owns tail, the consumer owns head; both are atomics so the
// opposite side can read them, and Go's sequentially consistent atomics
// make the slot write visible before the tail publish. A full ring
// rejects the push — the producer accounts the drop and moves on; the
// hot path never blocks on the collector.
type ring struct {
	buf  []Digest
	mask uint64
	// head/tail are free-running indices (masked on access), padded
	// apart so producer and consumer don't false-share a cache line.
	head atomic.Uint64
	_    [7]uint64
	tail atomic.Uint64
	_    [7]uint64
}

func newRing(size int) *ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{buf: make([]Digest, n), mask: uint64(n - 1)}
}

// push appends *d; false means the ring is full and d was not enqueued.
func (r *ring) push(d *Digest) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = *d
	r.tail.Store(t + 1)
	return true
}

// drainInto appends every queued digest to out (consumer side only).
func (r *ring) drainInto(out []Digest) []Digest {
	h, t := r.head.Load(), r.tail.Load()
	for ; h != t; h++ {
		out = append(out, r.buf[h&r.mask])
	}
	r.head.Store(h)
	return out
}

// depth is a racy snapshot of the queued digest count, for metrics.
func (r *ring) depth() int {
	return int(r.tail.Load() - r.head.Load())
}
