package netsim

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
)

// mustCompileChecker compiles one corpus checker into a runtime.
func mustCompileChecker(t *testing.T, key string) *compiler.Runtime {
	t.Helper()
	info := checkers.MustParse(key)
	prog, err := compiler.Compile(info, compiler.Options{Name: key})
	if err != nil {
		t.Fatal(err)
	}
	return &compiler.Runtime{Prog: prog}
}

// nullNode terminates a link and immediately recycles every frame, so
// steady-state traffic through the switch under test keeps the frame
// pool warm.
type nullNode struct {
	sim *Simulator
	rx  uint64
}

func (n *nullNode) NodeName() string { return "null" }
func (n *nullNode) Receive(frame []byte, port int) {
	n.rx++
	n.sim.ReleaseFrame(frame)
}

// onePortProgram forwards everything to a fixed port without touching
// the packet, using the allocation-free egress scratch.
type onePortProgram struct{ port int }

func (p onePortProgram) Process(_ *Switch, _ *dataplane.Decoded, meta *PacketMeta) []Egress {
	return meta.OneEgress(p.port)
}

// checkerSets are the attached sets the wire-path tests run with: one
// checker, and the whole corpus linked into one image per switch (no
// control state installed, so a last hop may reject — mid-fabric hops do
// not depend on it).
var checkerSets = map[string][]string{
	"one":    {"loop-freedom"},
	"corpus": corpusKeys(),
}

func corpusKeys() []string {
	keys := make([]string, len(checkers.All))
	for i, p := range checkers.All {
		keys[i] = p.Key
	}
	return keys
}

// TestWireFastPathCounters pins down which hops take the in-place
// rewrite fast path: telemetry-only mid-fabric hops do, inject and
// strip hops do not.
func TestWireFastPathCounters(t *testing.T) {
	for name, keys := range checkerSets {
		t.Run(name, func(t *testing.T) { testWireFastPathCounters(t, keys) })
	}
}

func testWireFastPathCounters(t *testing.T, keys []string) {
	sim := NewSimulator()
	ls := BuildLeafSpine(sim, LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	for _, key := range keys {
		attachCorpusChecker(t, ls, key)
	}

	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	for p := uint16(0); p < 32; p++ {
		h1.SendUDP(h2.IP, 41000+p, 80, 64)
	}
	sim.RunAll()

	if len(keys) == 1 && h2.RxUDP != 32 {
		t.Fatalf("delivered %d/32", h2.RxUDP)
	}
	for _, sw := range ls.AllSwitches() {
		if sw.ParseErrors != 0 {
			t.Fatalf("%s counted %d parse errors", sw.Name, sw.ParseErrors)
		}
	}
	// Spines only rewrite telemetry: the wire shape never changes there,
	// so every spine transmission must be in place.
	for _, sp := range ls.Spines {
		if sp.TxFrames > 0 && sp.SlowTxFrames != 0 {
			t.Fatalf("%s re-serialized %d/%d frames on a telemetry-only hop",
				sp.Name, sp.SlowTxFrames, sp.TxFrames)
		}
	}
	if ls.Spines[0].FastTxFrames+ls.Spines[1].FastTxFrames != 32 {
		t.Fatalf("spine fast-path frames = %d+%d, want 32 total",
			ls.Spines[0].FastTxFrames, ls.Spines[1].FastTxFrames)
	}
	// Leaves inject (first hop) or strip (last hop): both change the
	// wire shape, so the fast path must never fire there.
	for _, lf := range ls.Leaves {
		if lf.FastTxFrames != 0 {
			t.Fatalf("%s used the fast path on a shape-changing hop", lf.Name)
		}
	}
}

// TestWireAllocs is the tentpole acceptance check: a telemetry-only hop
// (parse, bind, telemetry block, in-place blob rewrite, send) must stay
// within one heap allocation per packet.
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for name, keys := range checkerSets {
		t.Run(name, func(t *testing.T) { testWireAllocs(t, keys) })
	}
}

func testWireAllocs(t *testing.T, keys []string) {
	sim := NewSimulator()
	sw := NewSwitch(sim, 7, "mid")
	sw.Forwarding = onePortProgram{port: 1}
	sink := &nullNode{sim: sim}
	Connect(sim, sw, 1, sink, 0, 0, 0)
	// No edge ports: the switch is mid-fabric and only runs telemetry.

	for _, key := range keys {
		sw.AttachChecker(mustCompileChecker(t, key), nil)
	}

	// Template frame: a Hydra header is already present with a zeroed
	// blob of exactly this switch's telemetry width, as a first-hop
	// switch would have injected.
	pkt := &dataplane.Decoded{
		Eth:     dataplane.Ethernet{Dst: dataplane.MACFromUint64(2), Src: dataplane.MACFromUint64(1), Type: dataplane.EtherTypeIPv4},
		HasIPv4: true,
		IPv4:    dataplane.IPv4{TTL: 8, Protocol: dataplane.ProtoUDP, Src: dataplane.MustIP4("10.0.0.1"), Dst: dataplane.MustIP4("10.0.0.2")},
		HasUDP:  true,
		UDP:     dataplane.UDP{SrcPort: 1234, DstPort: 80},
		Payload: make([]byte, 64),
	}
	pkt.InsertHydra(make([]byte, sw.linked().Set.TeleWireBytes()))
	template := pkt.Serialize()

	hop := func() {
		frame := sim.AcquireFrame(len(template))
		copy(frame, template)
		sw.Receive(frame, 2)
		sim.RunAll()
	}
	for i := 0; i < 32; i++ {
		hop() // warm the frame pool, event heap, and checker scratch
	}
	fastBefore, slowBefore := sw.FastTxFrames, sw.SlowTxFrames

	const rounds = 200
	allocs := testing.AllocsPerRun(rounds, hop)

	if sw.SlowTxFrames != slowBefore {
		t.Fatalf("telemetry-only hop fell off the fast path %d times", sw.SlowTxFrames-slowBefore)
	}
	if sw.FastTxFrames-fastBefore < rounds {
		t.Fatalf("fast path ran %d times, want >= %d", sw.FastTxFrames-fastBefore, rounds)
	}
	if sink.rx == 0 {
		t.Fatal("sink saw no frames")
	}
	if allocs > 1 {
		t.Fatalf("telemetry-only hop costs %.1f allocs, budget 1", allocs)
	}
}
