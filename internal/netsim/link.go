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
}

// endpoint is one side of a link.
type endpoint struct {
	node Node
	port int
}

// linkSink delivers frames arriving at one endpoint of a link; one per
// direction, allocated with the Link, so frame-arrival events carry a
// pre-existing sink instead of a fresh closure.
type linkSink struct {
	l  *Link
	to endpoint
}

func (s *linkSink) deliverFrame(frame []byte, port int) {
	s.l.Frames++
	s.l.Bytes += uint64(len(frame))
	s.to.node.Receive(frame, port)
}

// direction carries the transmit state for one direction of a link.
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
// per transmitted frame, on the pooled buffer the link carries: the
// fault may corrupt buf in place, and the returned action drops, delays,
// or duplicates the delivery. fromA reports the direction (true for
// frames sent by the link's a-side endpoint).
//
// The hook is a single nil check when unset: links without faults keep
// the zero-allocation wire path untouched.
type LinkFault interface {
	Apply(now Time, fromA bool, buf []byte) FaultAction
}

// Link is a full-duplex point-to-point link with serialization delay
// (bandwidth), propagation delay, and a drop-tail queue bounded in
// bytes.
type Link struct {
	sim *Simulator

	a, b endpoint
	// BitsPerSec is the line rate; zero means infinite.
	BitsPerSec int64
	// PropDelay is the one-way propagation delay.
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
	Frames uint64
	Bytes  uint64

	// Fault, when non-nil, intercepts every transmitted frame (see
	// LinkFault). nil — the default — costs one pointer test per send.
	Fault LinkFault
}

// Connect wires two nodes with a new link and returns it. The link is
// attached at each end that is a switch port or a host; other Nodes are
// told nothing. The same port number may be reused on different nodes;
// Connect panics if a switch port or a host is wired twice.
func Connect(sim *Simulator, a Node, aPort int, b Node, bPort int, bitsPerSec int64, prop Time) *Link {
	l := &Link{
		sim:        sim,
		a:          endpoint{a, aPort},
		b:          endpoint{b, bPort},
		BitsPerSec: bitsPerSec,
		PropDelay:  prop,
	}
	l.toA = linkSink{l: l, to: l.a}
	l.toB = linkSink{l: l, to: l.b}
	l.attach(a, aPort, b)
	l.attach(b, bPort, a)
	return l
}

// attach records the link at node n's port, with peer on the far side.
func (l *Link) attach(n Node, port int, peer Node) {
	switch n := n.(type) {
	case *Switch:
		n.wire(port, l, peer)
	case *Host:
		if n.link != nil {
			panic("netsim: host " + n.Name + " wired twice")
		}
		n.link = l
	}
}

// transmit sends a frame from the given node (which must be one of the
// link's endpoints) toward the other side. It models serialization at
// the line rate, a bounded transmit queue, and propagation delay. The
// caller hands the frame over: a buffer from AcquireFrame (or a received
// frame) that the link now owns, delivers and releases, and that the
// caller must not touch again.
func (l *Link) transmit(from Node, frame []byte) {
	var dir *direction
	var drops, faultDrops *uint64
	var sink *linkSink
	fromA := false
	switch from {
	case l.a.node:
		dir, drops, faultDrops, sink, fromA = &l.ab, &l.DropsAB, &l.FaultDropsAB, &l.toB, true
	case l.b.node:
		dir, drops, faultDrops, sink = &l.ba, &l.DropsBA, &l.FaultDropsBA, &l.toA
	default:
		panic("netsim: Send from a node not on this link")
	}

	sim := l.sim
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
			sim.ReleaseFrame(frame)
			return
		}
	}

	var txTime Time
	if l.BitsPerSec > 0 {
		txTime = Time(int64(len(frame)) * 8 * int64(Second) / l.BitsPerSec)
	}
	dir.busyUntil = start + txTime

	arrive := dir.busyUntil + l.PropDelay
	if l.Fault != nil {
		act := l.Fault.Apply(now, fromA, frame)
		if act.Drop {
			*faultDrops++
			sim.ReleaseFrame(frame)
			return
		}
		if act.Duplicate {
			dup := sim.AcquireFrame(len(frame))
			copy(dup, frame)
			sim.atFrame(arrive+act.DupDelay, sink, dup, sink.to.port)
		}
		arrive += act.ExtraDelay
	}
	sim.atFrame(arrive, sink, frame, sink.to.port)
}

// Peer returns the node and port on the opposite side from `from`.
func (l *Link) Peer(from Node) (Node, int) {
	if from == l.a.node {
		return l.b.node, l.b.port
	}
	return l.a.node, l.a.port
}
