package netsim

import (
	"bytes"
	"testing"
)

// scriptedFault is a deterministic LinkFault stub driving the hook's
// four behaviors one frame at a time.
type scriptedFault struct {
	actions []FaultAction
	// corrupt, when set, XORs the first payload byte in place.
	corrupt bool
	applied int
}

func (f *scriptedFault) Apply(now Time, fromA bool, buf []byte) FaultAction {
	i := f.applied
	f.applied++
	if f.corrupt && len(buf) > 0 {
		buf[0] ^= 0xFF
	}
	if i < len(f.actions) {
		return f.actions[i]
	}
	return FaultAction{}
}

// orderNode records the first payload byte of each frame in arrival
// order.
type orderNode struct {
	sim  *Simulator
	seen []byte
}

func (n *orderNode) NodeName() string { return "order" }
func (n *orderNode) Receive(frame []byte, port int) {
	if len(frame) > 0 {
		n.seen = append(n.seen, frame[0])
	}
	n.sim.ReleaseFrame(frame)
}

// TestLinkFaultActions drives every FaultAction through the wire path:
// drop releases the frame and counts per direction, duplicate delivers
// a second copy after DupDelay, ExtraDelay reorders against later
// traffic, and in-place corruption reaches the receiver.
func TestLinkFaultActions(t *testing.T) {
	sim := NewSimulator()
	a := &orderNode{sim: sim}
	b := &orderNode{sim: sim}
	lk := Connect(sim, a, 0, b, 0, 0, 0)

	frame := func(tag byte) []byte { return append(sim.AcquireFrame(4)[:0], tag, 1, 2, 3) }

	// Frame 1 dropped, frame 2 delayed past frame 3, frame 4 duplicated.
	lk.Fault = &scriptedFault{actions: []FaultAction{
		{Drop: true},
		{ExtraDelay: 10 * Microsecond},
		{},
		{Duplicate: true, DupDelay: 20 * Microsecond},
	}}
	lk.transmit(a, frame(1))
	lk.transmit(a, frame(2))
	lk.transmit(a, frame(3))
	lk.transmit(a, frame(4))
	sim.RunAll()

	if lk.FaultDropsAB != 1 || lk.FaultDropsBA != 0 {
		t.Errorf("fault drops = %d/%d, want 1/0", lk.FaultDropsAB, lk.FaultDropsBA)
	}
	// Arrivals: 3 (immediate), 4 (immediate), 2 (delayed 10us), then 4's
	// duplicate at 20us.
	if want := []byte{3, 4, 2, 4}; !bytes.Equal(b.seen, want) {
		t.Errorf("arrival order = %v, want %v", b.seen, want)
	}

	// The receiver sees a corrupted frame's flipped byte.
	b.seen = nil
	lk.Fault = &scriptedFault{corrupt: true}
	lk.transmit(a, frame(5))
	sim.RunAll()
	if want := []byte{5 ^ 0xFF}; !bytes.Equal(b.seen, want) {
		t.Errorf("corrupted arrival = %v, want %v", b.seen, want)
	}

	// The b-side direction counts independently.
	lk.Fault = &scriptedFault{actions: []FaultAction{{Drop: true}}}
	lk.transmit(b, frame(6))
	sim.RunAll()
	if lk.FaultDropsBA != 1 {
		t.Errorf("FaultDropsBA = %d, want 1", lk.FaultDropsBA)
	}
	if len(a.seen) != 0 {
		t.Errorf("a received %v after a dropped frame", a.seen)
	}
}

// TestLinkQueueOverflowBidirectional pins the drop-tail accounting the
// fault hook shares a code path with: simultaneous bursts in both
// directions overflow both queues independently, and per direction
// delivered + dropped equals sent.
func TestLinkQueueOverflowBidirectional(t *testing.T) {
	sim := NewSimulator()
	a := &orderNode{sim: sim}
	b := &orderNode{sim: sim}
	// 8 Mbit/s, 1000-byte frames: 1ms serialization each. A 2000-byte
	// queue bound admits a backlog of two frames beyond the one in
	// flight.
	lk := Connect(sim, a, 0, b, 0, 8_000_000, 0)
	lk.QueueBytes = 2000

	const burst = 10
	for i := 0; i < burst; i++ {
		lk.transmit(a, sim.AcquireFrame(1000))
		lk.transmit(b, sim.AcquireFrame(1000))
	}
	sim.RunAll()

	if lk.DropsAB != 7 || lk.DropsBA != 7 {
		t.Errorf("queue drops = %d/%d, want 7/7", lk.DropsAB, lk.DropsBA)
	}
	if got := uint64(len(b.seen)); got+lk.DropsAB != burst {
		t.Errorf("a->b: delivered %d + dropped %d != sent %d", got, lk.DropsAB, burst)
	}
	if got := uint64(len(a.seen)); got+lk.DropsBA != burst {
		t.Errorf("b->a: delivered %d + dropped %d != sent %d", got, lk.DropsBA, burst)
	}
	if lk.Frames != 6 {
		t.Errorf("delivered frames = %d, want 6", lk.Frames)
	}
	if lk.FaultDropsAB != 0 || lk.FaultDropsBA != 0 {
		t.Errorf("fault drops %d/%d on a fault-free link", lk.FaultDropsAB, lk.FaultDropsBA)
	}
}
