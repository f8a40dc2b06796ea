package netsim

// Node is anything that can terminate a link: a host NIC or a switch
// port. Receive is called by the simulator when the last bit of a frame
// arrives.
type Node interface {
	// Receive delivers a frame on the node's port. Ownership of the
	// frame buffer transfers to the receiver (see the package comment's
	// frame-ownership contract): the receiver may scribble on it, must
	// copy anything it retains past the callback, and should return it
	// with Simulator.ReleaseFrame when done.
	Receive(frame []byte, port int)
	// NodeName identifies the node in traces and errors.
	NodeName() string
}

// endpoint is one side of a link.
type endpoint struct {
	node Node
	port int
}

// linkSink delivers frames arriving at one endpoint of a link; one per
// direction, allocated with the Link, so frame-arrival events carry a
// pre-existing sink instead of a fresh closure. Under partitioning the
// sink is the receiver-side anchor: sim is the shard loop that owns the
// receiving endpoint, origin its stable node ID, and frames/bytes the
// delivered-traffic counters for this direction — written only by the
// receiving shard, folded into the Link totals at end of run.
type linkSink struct {
	l      *Link
	sim    *Simulator
	to     endpoint
	origin int32
	frames uint64
	bytes  uint64
}

func (s *linkSink) deliverFrame(frame []byte, port int) {
	s.frames++
	s.bytes += uint64(len(frame))
	for _, tap := range s.l.taps {
		tap(s.sim.curEvKey, s.to.node.NodeName(), port, frame)
	}
	s.to.node.Receive(frame, port)
}

// direction carries the transmit state for one direction of a link.
// It is owned by the sending endpoint's shard.
type direction struct {
	busyUntil Time
}

// FaultAction is a link fault's verdict for one transmitted frame.
// The zero value means "deliver normally".
type FaultAction struct {
	// Drop loses the frame on the wire (after serialization: the sender
	// still paid the transmission time, as with real physical loss).
	Drop bool
	// ExtraDelay is added to the frame's arrival time; a jittered delay
	// reorders the frame relative to later traffic.
	ExtraDelay Time
	// Duplicate delivers a second copy of the frame DupDelay after the
	// original arrival.
	Duplicate bool
	DupDelay  Time
}

// LinkFault intercepts frames on the wire — the hook the deterministic
// fault-injection layer (internal/faults) attaches to. Apply runs once
// per transmitted frame, after the link has copied it into a pooled
// buffer: the fault may corrupt buf in place, and the returned action
// drops, delays, or duplicates the delivery. fromA reports the
// direction (true for frames sent by the link's a-side endpoint).
//
// The hook is a single nil check when unset: links without faults keep
// the zero-allocation wire path untouched.
//
// Under partitioning Apply runs on the sending endpoint's shard, in
// that sender's deterministic execution order. An injector shared by
// several links stays deterministic as long as every frame it sees is
// sent from nodes on one shard (in practice: one sending switch) —
// see internal/faults for the contract.
type LinkFault interface {
	Apply(now Time, fromA bool, buf []byte) FaultAction
}

// Link is a full-duplex point-to-point link with serialization delay
// (bandwidth), propagation delay, and a drop-tail queue bounded in
// bytes.
type Link struct {
	sim *Simulator

	a, b endpoint
	// simA and simB are the event loops owning each endpoint — both the
	// root before Partition, per-shard loops after. Sends execute on
	// the sender's loop; the cross-shard case routes through its sink.
	simA, simB *Simulator
	// BitsPerSec is the line rate; zero means infinite.
	BitsPerSec int64
	// PropDelay is the one-way propagation delay. For a link whose
	// endpoints land on different shards it must be positive: it bounds
	// the parallel lookahead window.
	PropDelay Time
	// QueueBytes bounds the transmit backlog per direction; zero means
	// unbounded.
	QueueBytes int

	ab, ba direction
	// toA and toB are the per-direction delivery sinks (toB receives
	// frames sent by a, and vice versa).
	toA, toB linkSink

	// Drops counts frames lost to queue overflow, per direction a->b
	// and b->a.
	DropsAB, DropsBA uint64
	// FaultDrops counts frames lost to an attached LinkFault (wire loss,
	// distinct from queue overflow), per direction.
	FaultDropsAB, FaultDropsBA uint64
	// Frames and Bytes count delivered traffic in both directions.
	// Under partitioning they are folded from the per-direction sinks
	// at end of run; read them after Run/RunAll returns.
	Frames uint64
	Bytes  uint64

	// Fault, when non-nil, intercepts every transmitted frame (see
	// LinkFault). nil — the default — costs one pointer test per send.
	Fault LinkFault

	// taps are capture hooks invoked on every delivered frame, with the
	// delivery event's deterministic key for canonical ordering across
	// shard counts.
	taps []func(k evKey, node string, port int, frame []byte)
}

// Connect wires two nodes with a new link and returns it. The same port
// number may be reused on different nodes; each (node, port) pair must
// be wired at most once (the caller owns that invariant). Both nodes
// are registered with the simulator, fixing their deterministic event
// order and shard placement.
func Connect(sim *Simulator, a Node, aPort int, b Node, bPort int, bitsPerSec int64, prop Time) *Link {
	l := &Link{
		sim:        sim,
		a:          endpoint{a, aPort},
		b:          endpoint{b, bPort},
		simA:       sim,
		simB:       sim,
		BitsPerSec: bitsPerSec,
		PropDelay:  prop,
	}
	aID := sim.registerNode(a)
	bID := sim.registerNode(b)
	l.toA = linkSink{l: l, sim: sim, to: l.a, origin: aID}
	l.toB = linkSink{l: l, sim: sim, to: l.b, origin: bID}
	sim.links = append(sim.links, l)
	return l
}

// Send transmits a frame from the given node (which must be one of the
// link's endpoints) toward the other side. It models serialization at
// the line rate, a bounded transmit queue, and propagation delay.
//
// Send copies the frame into a pooled buffer: the caller keeps
// ownership of frame and may reuse it as soon as Send returns. Send
// must run on the sender's event loop — inside one of the sending
// node's callbacks, or (partitioned) from coordinator control context.
func (l *Link) Send(from Node, frame []byte) {
	var dir *direction
	var drops, faultDrops *uint64
	var sink *linkSink
	var sim *Simulator
	fromA := false
	switch from {
	case l.a.node:
		dir, drops, faultDrops, sink, sim, fromA = &l.ab, &l.DropsAB, &l.FaultDropsAB, &l.toB, l.simA, true
	case l.b.node:
		dir, drops, faultDrops, sink, sim = &l.ba, &l.DropsBA, &l.FaultDropsBA, &l.toA, l.simB
	default:
		panic("netsim: Send from a node not on this link")
	}

	now := sim.now
	start := dir.busyUntil
	if start < now {
		start = now
	}

	// Drop-tail: if the backlog (in bytes at line rate) exceeds the
	// queue bound, the frame is lost.
	if l.QueueBytes > 0 && l.BitsPerSec > 0 {
		backlogBytes := int64(start-now) * l.BitsPerSec / (8 * int64(Second))
		if backlogBytes > int64(l.QueueBytes) {
			*drops++
			return
		}
	}

	var txTime Time
	if l.BitsPerSec > 0 {
		txTime = Time(int64(len(frame)) * 8 * int64(Second) / l.BitsPerSec)
	}
	dir.busyUntil = start + txTime

	arrive := dir.busyUntil + l.PropDelay
	buf := sim.AcquireFrame(len(frame))
	copy(buf, frame)
	if l.Fault != nil {
		act := l.Fault.Apply(now, fromA, buf)
		if act.Drop {
			*faultDrops++
			sim.ReleaseFrame(buf)
			return
		}
		if act.Duplicate {
			dup := sim.AcquireFrame(len(buf))
			copy(dup, buf)
			sim.sendFrame(arrive+act.DupDelay, sink, dup)
		}
		arrive += act.ExtraDelay
	}
	sim.sendFrame(arrive, sink, buf)
}

// Peer returns the node and port on the opposite side from `from`.
func (l *Link) Peer(from Node) (Node, int) {
	if from == l.a.node {
		return l.b.node, l.b.port
	}
	return l.a.node, l.a.port
}
