package reportbus

import "sync/atomic"

// ring is a bounded single-producer single-consumer digest queue. The
// producer owns tail, the consumer owns head; both are atomics so the
// opposite side can read them, and Go's sequentially consistent atomics
// make the slot write visible before the tail publish. A full ring
// rejects the push — the producer spills the digest and moves on; the
// hot path never blocks on the collector. The push that fills the ring
// to half wakes the collector, without blocking either.
type ring struct {
	buf  []Digest
	mask uint64
	// wake is the bus's one-slot channel the collector sweeps on besides
	// its ticker.
	wake chan<- struct{}
	// head/tail are free-running indices (masked on access), padded
	// apart so producer and consumer don't false-share a cache line.
	head atomic.Uint64
	_    [7]uint64
	tail atomic.Uint64
	_    [7]uint64
}

func newRing(size int, wake chan<- struct{}) *ring {
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{buf: make([]Digest, n), mask: uint64(n - 1), wake: wake}
}

// push appends *d; false means the ring is full and d was not enqueued.
// The push that makes the depth exactly half the ring leaves a wake-up
// unless one is already pending: a ring fills by one digest at a time,
// so every climb past half is seen once.
func (r *ring) push(d *Digest) bool {
	t := r.tail.Load()
	depth := t - r.head.Load()
	if depth == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = *d
	r.tail.Store(t + 1)
	if depth+1 == uint64(len(r.buf)/2) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
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
