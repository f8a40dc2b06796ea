package netsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
)

func TestSimulatorOrdering(t *testing.T) {
	sim := NewSimulator()
	var order []int
	sim.At(30, func() { order = append(order, 3) })
	sim.At(10, func() { order = append(order, 1) })
	sim.At(20, func() { order = append(order, 2) })
	sim.At(10, func() { order = append(order, 11) }) // same time: FIFO
	sim.RunAll()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sim.Now() != 30 {
		t.Fatalf("now = %v", sim.Now())
	}
}

func TestRunUntil(t *testing.T) {
	sim := NewSimulator()
	ran := 0
	sim.At(10, func() { ran++ })
	sim.At(100, func() { ran++ })
	sim.Run(50)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if sim.Now() != 50 {
		t.Fatalf("clock must advance to the horizon, got %v", sim.Now())
	}
	sim.RunAll()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

// TestRunUntilEventCap reschedules a callback at Now from itself: the
// clock never passes until, so only the event cap can end Run(until).
func TestRunUntilEventCap(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		sim := NewSimulator()
		sim.EventCap = 1000
		var f func()
		f = func() { sim.At(sim.Now(), f) }
		sim.At(0, f)
		sim.Run(10)
	}()
	select {
	case r := <-done:
		if msg, _ := r.(string); !strings.Contains(msg, "event cap exceeded") {
			t.Fatalf("Run(10) ended with %v, want the event-cap panic", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run(10) is still running a callback that reschedules itself at Now")
	}
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	sim := NewSimulator()
	a := NewHost(sim, "a", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.0.1"))
	b := NewHost(sim, "b", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
	// 1 Gb/s, 10 µs propagation.
	Connect(sim, a, 0, b, 0, 1_000_000_000, 10*Microsecond)

	var arrival Time
	b.OnPacket = func(*dataplane.Decoded) { arrival = sim.Now() }
	// 1000-byte frame: 8 µs serialization + 10 µs propagation = 18 µs.
	a.SendUDP(b.IP, 1, 2, 1000-dataplane.EthernetLen-dataplane.IPv4Len-dataplane.UDPLen)
	sim.RunAll()
	want := Time(18 * Microsecond)
	if arrival != want {
		t.Fatalf("arrival at %v, want %v", arrival, want)
	}
	if b.RxUDP != 1 {
		t.Fatalf("b got %d udp packets", b.RxUDP)
	}
}

// TestConnectWiresOnce pins that Connect attaches a link at both ends: a
// switch port and a host each take the link, and wiring either a second
// time panics instead of replacing the first link.
func TestConnectWiresOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		second func(*Simulator, *Switch, *Host)
	}{
		{"switch port", func(sim *Simulator, sw *Switch, _ *Host) { Connect(sim, sw, 1, &nullNode{sim: sim}, 0, 0, 0) }},
		{"host", func(sim *Simulator, _ *Switch, h *Host) { Connect(sim, NewSwitch(sim, 2, "s2"), 1, h, 0, 0, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := NewSimulator()
			sw := NewSwitch(sim, 1, "s1")
			h := NewHost(sim, "h", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.0.1"))
			lk := Connect(sim, sw, 1, h, 0, 0, 0)
			if sw.Link(1) != lk || h.link != lk || sw.port(1).host != h {
				t.Fatal("Connect did not attach the link at both ends")
			}
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "wired twice") {
					t.Fatalf("second wiring ended with %q, want the wired-twice panic", msg)
				}
			}()
			c.second(sim, sw, h)
		})
	}
}

func TestLinkBackToBackQueueing(t *testing.T) {
	sim := NewSimulator()
	a := NewHost(sim, "a", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.0.1"))
	b := NewHost(sim, "b", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
	Connect(sim, a, 0, b, 0, 1_000_000_000, 0)

	var arrivals []Time
	b.OnPacket = func(*dataplane.Decoded) { arrivals = append(arrivals, sim.Now()) }
	payload := 1000 - dataplane.EthernetLen - dataplane.IPv4Len - dataplane.UDPLen
	a.SendUDP(b.IP, 1, 2, payload) // both sent at t=0
	a.SendUDP(b.IP, 1, 2, payload)
	sim.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// Second frame serializes after the first: 8 µs later.
	if arrivals[1]-arrivals[0] != 8*Microsecond {
		t.Fatalf("spacing = %v, want 8µs", arrivals[1]-arrivals[0])
	}
}

func TestLinkDropTail(t *testing.T) {
	sim := NewSimulator()
	a := NewHost(sim, "a", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.0.1"))
	b := NewHost(sim, "b", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
	lk := Connect(sim, a, 0, b, 0, 1_000_000, 0) // 1 Mb/s: easy to saturate
	lk.QueueBytes = 2000

	for i := 0; i < 50; i++ {
		a.SendUDP(b.IP, 1, 2, 958)
	}
	sim.RunAll()
	if lk.DropsAB == 0 {
		t.Fatal("saturated link must drop")
	}
	if b.RxUDP == 0 {
		t.Fatal("some packets must still arrive")
	}
	if uint64(b.RxUDP)+lk.DropsAB != 50 {
		t.Fatalf("conservation: rx %d + drops %d != 50", b.RxUDP, lk.DropsAB)
	}
}

func TestLeafSpinePing(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 2, WithRouting: true})
	h1 := ls.Host(0, 0)
	h3 := ls.Host(1, 0)

	for seq := uint16(1); seq <= 5; seq++ {
		s := seq
		sim.At(Time(s)*Millisecond, func() { h1.Ping(h3.IP, s) })
	}
	sim.RunAll()

	if len(h1.RTTs) != 5 {
		t.Fatalf("got %d RTT samples, want 5 (pending=%d)", len(h1.RTTs), len(h1.pingSent))
	}
	for _, s := range h1.RTTs {
		// 3 switches each way (leaf, spine, leaf), 4 links each way.
		if s.RTT <= 0 || s.RTT > Millisecond {
			t.Fatalf("implausible RTT %v", s.RTT)
		}
	}
	// Same-leaf traffic must not cross a spine.
	h2 := ls.Host(0, 1)
	spineRx := ls.Spines[0].RxFrames + ls.Spines[1].RxFrames
	h1.Ping(h2.IP, 99)
	sim.RunAll()
	if len(h1.RTTs) != 6 {
		t.Fatal("same-leaf ping failed")
	}
	if ls.Spines[0].RxFrames+ls.Spines[1].RxFrames != spineRx {
		t.Fatal("same-leaf traffic crossed a spine")
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	// Many distinct flows: both spines should see traffic.
	for p := uint16(0); p < 64; p++ {
		h1.SendUDP(h2.IP, 10000+p, 80, 100)
	}
	sim.RunAll()
	if ls.Spines[0].RxFrames == 0 || ls.Spines[1].RxFrames == 0 {
		t.Fatalf("ECMP did not spread: spine1=%d spine2=%d", ls.Spines[0].RxFrames, ls.Spines[1].RxFrames)
	}
	if h2.RxUDP != 64 {
		t.Fatalf("delivered %d/64", h2.RxUDP)
	}
}

// attachCorpusChecker compiles a corpus checker and attaches it to every
// switch in the fabric, returning the per-switch attachments.
func attachCorpusChecker(t *testing.T, ls *LeafSpine, key string) map[uint32]*HydraAttachment {
	t.Helper()
	info := checkers.MustParse(key)
	prog, err := compiler.Compile(info, compiler.Options{Name: key})
	if err != nil {
		t.Fatal(err)
	}
	rt := &compiler.Runtime{Prog: prog}
	out := map[uint32]*HydraAttachment{}
	for _, sw := range ls.AllSwitches() {
		out[sw.ID] = sw.AttachChecker(rt, nil)
	}
	return out
}

func TestHydraEndToEndLoopChecker(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	attachCorpusChecker(t, ls, "loop-freedom")

	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	h2.RecordAll = true
	h1.SendUDP(h2.IP, 1234, 80, 64)
	sim.RunAll()

	if h2.RxUDP != 1 {
		t.Fatalf("packet lost: rx=%d", h2.RxUDP)
	}
	// §4.1: end hosts never see Hydra headers.
	for _, r := range h2.Received {
		if r.Pkt.HasHydra {
			t.Fatal("telemetry header leaked to the host")
		}
	}
	// The last-hop leaf ran the check.
	if got := ls.Leaves[1].Checker().Checked; got != 1 {
		t.Fatalf("last-hop checked = %d, want 1", got)
	}
	// Middle switches did not.
	if ls.Spines[0].Checker().Checked+ls.Spines[1].Checker().Checked != 0 {
		t.Fatal("spines must not run the checker in last-hop mode")
	}
}

func TestHydraWaypointingRejectsInFabric(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	atts := attachCorpusChecker(t, ls, "waypointing")

	// Configure spine1 (ID 101) as the waypoint on every switch.
	for _, att := range atts {
		if err := att.State.Tables["waypoint_id"].Insert(pipeline.Entry{
			Action: []pipeline.Value{pipeline.B(32, 101)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	// Find one flow that hashes through spine1 and one through spine2.
	var viaSpine1, viaSpine2 uint16
	for p := uint16(1); p < 200 && (viaSpine1 == 0 || viaSpine2 == 0); p++ {
		pkt := &dataplane.Decoded{
			HasIPv4: true,
			IPv4:    dataplane.IPv4{Src: h1.IP, Dst: h2.IP, Protocol: dataplane.ProtoUDP},
			HasUDP:  true,
			UDP:     dataplane.UDP{SrcPort: 10000 + p, DstPort: 80},
		}
		if FlowHash(pkt)%2 == 0 {
			viaSpine1 = 10000 + p
		} else {
			viaSpine2 = 10000 + p
		}
	}

	h1.SendUDP(h2.IP, viaSpine1, 80, 64)
	h1.SendUDP(h2.IP, viaSpine2, 80, 64)
	sim.RunAll()

	if h2.RxUDP != 1 {
		t.Fatalf("exactly the waypointed flow must arrive, rx=%d", h2.RxUDP)
	}
	if ls.Leaves[1].Checker().Rejected != 1 {
		t.Fatalf("bypass flow must be rejected at the edge, rejected=%d", ls.Leaves[1].Checker().Rejected)
	}
}

func TestHydraReportsReachController(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})

	info := checkers.MustParse("stateful-firewall")
	prog, err := compiler.Compile(info, compiler.Options{Name: "fw"})
	if err != nil {
		t.Fatal(err)
	}
	rt := &compiler.Runtime{Prog: prog}
	var reports []pipeline.Report
	for _, sw := range ls.AllSwitches() {
		att := sw.AttachChecker(rt, func(rep pipeline.Report) {
			reports = append(reports, rep)
		})
		// Allow the forward direction h1->h2 everywhere so the packet
		// passes; the reverse rule is missing, so a report must fire.
		if err := att.State.Tables["allowed"].Insert(pipeline.Entry{
			Keys: []pipeline.KeyMatch{
				pipeline.ExactKey(uint64(ls.Host(0, 0).IP)),
				pipeline.ExactKey(uint64(ls.Host(1, 0).IP)),
			},
			Action: []pipeline.Value{pipeline.BoolV(true)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	ls.Host(0, 0).SendUDP(ls.Host(1, 0).IP, 555, 80, 64)
	sim.RunAll()

	if ls.Host(1, 0).RxUDP != 1 {
		t.Fatal("allowed packet must be delivered")
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	if got := reports[0].Args[0].V; got != uint64(ls.Host(1, 0).IP) {
		t.Fatalf("report dst = %x", got)
	}
}

func TestTTLExpiryDrops(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 1, HostsPerLeaf: 1, WithRouting: true})
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)

	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: h1.GatewayMAC, Src: h1.MAC, Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 2, Protocol: dataplane.ProtoUDP, Src: h1.IP, Dst: h2.IP},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 1, DstPort: 2},
	}
	ls.Leaves[0].Receive(pkt.Serialize(), 2) // port 2 = host port (1 spine)
	sim.RunAll()
	// TTL 2: leaf1 (->1), spine (->0 at leaf2... actually dropped at leaf2).
	if h2.RxUDP != 0 {
		t.Fatal("TTL-expired packet must not be delivered")
	}
}

func TestMulticastClonesTelemetry(t *testing.T) {
	// A forwarding program that floods to two hosts; each copy must
	// carry independent telemetry and both must be checked and stripped.
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 1, Spines: 1, HostsPerLeaf: 2})
	leaf := ls.Leaves[0]
	leaf.Forwarding = floodProgram{ports: []int{2, 3}}
	attachCorpusChecker(t, ls, "loop-freedom")

	src := ls.Host(0, 0)
	src.RecordAll = true
	ls.Host(0, 1).RecordAll = true
	// Inject a packet directly into the leaf on the spine-facing port so
	// both host ports are egresses.
	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 4, Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.9.9.9"), Dst: dataplane.MustIP4("10.0.1.255")},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 7, DstPort: 7},
	}
	leaf.Receive(pkt.Serialize(), 1)
	sim.RunAll()

	if src.RxUDP != 1 || ls.Host(0, 1).RxUDP != 1 {
		t.Fatalf("flood delivery: %d %d", src.RxUDP, ls.Host(0, 1).RxUDP)
	}
	for _, h := range []*Host{src, ls.Host(0, 1)} {
		for _, r := range h.Received {
			if r.Pkt.HasHydra {
				t.Fatal("multicast copy leaked telemetry")
			}
		}
	}
}

// TestFirstHopMulticastTelemetry floods a packet that enters on an edge
// port to two uplinks with the corpus attached: the hop that injects is
// the hop that clones, and each clone must leave with exactly the blob a
// unicast first hop writes on its port.
func TestFirstHopMulticastTelemetry(t *testing.T) {
	rts := make([]*compiler.Runtime, 0, len(checkers.All))
	for _, key := range corpusKeys() {
		rts = append(rts, mustCompileChecker(t, key))
	}
	frame := (&dataplane.Decoded{
		Eth:     dataplane.Ethernet{Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 9, Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.0.1.1"), Dst: dataplane.MustIP4("10.0.2.1")},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 4321, DstPort: 53},
		Payload: make([]byte, 32),
	}).Serialize()
	// send runs the frame into a fresh leaf on its edge port 3 and returns
	// the blob each uplink (ports 1 and 2) received, nil for none.
	send := func(fwd ForwardingProgram) [3][]byte {
		sim := NewSimulator()
		sw := NewSwitch(sim, 1, "leaf")
		sw.Forwarding = fwd
		var ups [3]*blobNode
		for p := 1; p <= 2; p++ {
			ups[p] = &blobNode{sim: sim}
			Connect(sim, sw, p, ups[p], 0, 0, 0)
		}
		host := NewHost(sim, "h", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.1.1"))
		Connect(sim, sw, 3, host, 0, 0, 0)
		for _, rt := range rts {
			sw.AttachChecker(rt, nil)
		}
		sw.Receive(append([]byte(nil), frame...), 3)
		sim.RunAll()
		var blobs [3][]byte
		for p := 1; p <= 2; p++ {
			if len(ups[p].blobs) > 1 {
				t.Fatalf("port %d received %d frames", p, len(ups[p].blobs))
			}
			if len(ups[p].blobs) == 1 {
				blobs[p] = ups[p].blobs[0]
			}
		}
		return blobs
	}
	flood := send(floodProgram{ports: []int{1, 2}})
	for p := 1; p <= 2; p++ {
		uni := send(onePortProgram{port: p})
		if len(uni[p]) == 0 {
			t.Fatalf("unicast to port %d carried no telemetry", p)
		}
		if !bytes.Equal(flood[p], uni[p]) {
			t.Errorf("port %d: flooded clone carries %x, unicast first hop %x", p, flood[p], uni[p])
		}
	}
}

// blobNode terminates a link and keeps a copy of the telemetry blob of
// every frame it receives.
type blobNode struct {
	sim   *Simulator
	blobs [][]byte
}

func (n *blobNode) NodeName() string { return "blobs" }
func (n *blobNode) Receive(frame []byte, _ int) {
	pkt := new(dataplane.Decoded)
	if err := dataplane.ParseInto(pkt, frame); err != nil {
		panic(err)
	}
	n.blobs = append(n.blobs, bytes.Clone(pkt.Hydra.Blob))
	n.sim.ReleaseFrame(frame)
}

type floodProgram struct{ ports []int }

func (f floodProgram) Process(_ *Switch, _ *dataplane.Decoded, meta *PacketMeta) []Egress {
	var out []Egress
	for _, p := range f.ports {
		if p != meta.InPort {
			out = append(out, Egress{Port: p})
		}
	}
	return out
}

func TestHostStackLatency(t *testing.T) {
	sim := NewSimulator()
	a := NewHost(sim, "a", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.0.1"))
	b := NewHost(sim, "b", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
	Connect(sim, a, 0, b, 0, 0 /* infinite rate */, 0)

	// Deterministic component only: base 50µs on each side, no jitter.
	a.StackBase, b.StackBase = 50*Microsecond, 50*Microsecond

	var arrival Time
	b.OnPacket = func(*dataplane.Decoded) { arrival = sim.Now() }
	a.SendUDP(b.IP, 1, 2, 10)
	sim.RunAll()
	// send-side 50µs + receive-side 50µs.
	if arrival != 100*Microsecond {
		t.Fatalf("arrival at %v, want 100µs", arrival)
	}

	// With jitter, repeated pings give varying RTTs.
	a.StackJitter = 20 * Microsecond
	b.StackJitter = 20 * Microsecond
	for i := uint16(0); i < 20; i++ {
		a.Ping(b.IP, i)
	}
	sim.RunAll()
	seen := map[Time]bool{}
	for _, s := range a.RTTs {
		seen[s.RTT] = true
	}
	if len(seen) < 5 {
		t.Fatalf("stack jitter produced only %d distinct RTTs", len(seen))
	}
}

func TestCaptureTapsLink(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	attachCorpusChecker(t, ls, "loop-freedom")

	// Tap the first leaf1->spine1 link: frames there carry telemetry.
	cap := &Capture{Max: 100}
	tap(cap, ls.Leaves[0].Link(1))

	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	for p := uint16(0); p < 16; p++ { // several flows so some cross spine1
		h1.SendUDP(h2.IP, 40000+p, 80, 64)
	}
	sim.RunAll()

	if len(cap.Records) == 0 {
		t.Fatal("tap saw nothing")
	}
	for _, r := range cap.Records {
		if !r.HasHydra {
			t.Fatalf("fabric-internal frame without telemetry: %s", r.Summary)
		}
		if r.Dir != "rx" || r.Len == 0 || r.Summary == "" {
			t.Fatalf("malformed record: %+v", r)
		}
	}
	if !strings.Contains(cap.String(), "HYDRA[") {
		t.Fatalf("capture transcript missing telemetry marker:\n%s", cap.String())
	}
	// Delivery is unaffected by the tap.
	if h2.RxUDP != 16 {
		t.Fatalf("tap broke forwarding: rx=%d", h2.RxUDP)
	}
}

func TestCaptureMaxBound(t *testing.T) {
	sim := NewSimulator()
	a := NewHost(sim, "a", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.0.1"))
	b := NewHost(sim, "b", dataplane.MACFromUint64(2), dataplane.MustIP4("10.0.0.2"))
	lk := Connect(sim, a, 0, b, 0, 0, 0)
	cap := &Capture{Max: 3}
	tap(cap, lk)
	for i := 0; i < 10; i++ {
		a.SendUDP(b.IP, 1, 2, 10)
	}
	sim.RunAll()
	if len(cap.Records) != 3 || cap.Dropped != 7 {
		t.Fatalf("records=%d dropped=%d", len(cap.Records), cap.Dropped)
	}
}

// TestPerHopCheckingInFabric exercises the §4.3 variant end to end: with
// CheckEveryHop, a waypoint violation is rejected at the spine (inside
// the network) rather than at the edge.
func TestPerHopCheckingInFabric(t *testing.T) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})

	info := checkers.MustParse("routing-validity")
	prog, err := compiler.Compile(info, compiler.Options{Name: "routing-validity"})
	if err != nil {
		t.Fatal(err)
	}
	rt := &compiler.Runtime{Prog: prog, CheckEveryHop: true}
	for i, sw := range ls.AllSwitches() {
		att := sw.AttachChecker(rt, nil)
		leaf := uint64(0)
		if i < len(ls.Leaves) {
			leaf = 1
		}
		if err := att.State.Tables["is_leaf"].Insert(pipeline.Entry{
			Action: []pipeline.Value{pipeline.B(1, leaf)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Misconfigure leaf1 so cross-leaf traffic bounces leaf1 -> leaf2 via
	// a spine and then BACK to a spine (leaf in the middle): install a
	// route on leaf2 that sends the destination back up.
	bad := &L3Program{}
	bad.AddRoute(HostIP(1, 0), 32, 1) // back up to spine1 instead of the host
	ls.Leaves[1].Forwarding = bad
	spineBad := &L3Program{}
	spineBad.AddRoute(HostIP(1, 0), 32, 2) // spine bounces it down again
	ls.Spines[0].Forwarding = spineBad

	h1 := ls.Host(0, 0)
	h1.SendUDP(HostIP(1, 0), 1111, 80, 64)
	sim.RunAll()

	// The "leaf in the middle" violation (leaf2 mid-path) is caught by a
	// per-hop check at a core switch, not at an edge port.
	var rejectedAt []string
	for _, sw := range ls.AllSwitches() {
		if sw.Checker().Rejected > 0 {
			rejectedAt = append(rejectedAt, sw.Name)
		}
	}
	if len(rejectedAt) != 1 {
		t.Fatalf("rejected at %v, want exactly one switch", rejectedAt)
	}
	if rejectedAt[0] != "spine1" {
		t.Fatalf("per-hop check should catch the violation at spine1, got %s", rejectedAt[0])
	}
	if ls.Host(1, 0).RxUDP != 0 {
		t.Fatal("violating packet must not be delivered")
	}
}
