package faults

import (
	"bytes"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

func TestSubSeed(t *testing.T) {
	if SubSeed(1, "a") != SubSeed(1, "a") {
		t.Error("SubSeed not stable for identical inputs")
	}
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 42} {
		for _, name := range []string{"link:drop", "link:corrupt", "node:misroute"} {
			s := SubSeed(base, name)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: (%d,%s) vs %s", base, name, prev)
			}
			seen[s] = name
		}
	}
}

func TestWithhold(t *testing.T) {
	a := Withhold(7, 100, 0.3)
	b := Withhold(7, 100, 0.3)
	n := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Withhold not deterministic at %d", i)
		}
		if a[i] {
			n++
		}
	}
	if n == 0 || n == 100 {
		t.Errorf("Withhold(rate=0.3) selected %d/100", n)
	}
	for i, w := range Withhold(7, 50, 0) {
		if w {
			t.Fatalf("rate 0 withheld item %d", i)
		}
	}
	for i, w := range Withhold(7, 50, 1) {
		if !w {
			t.Fatalf("rate 1 kept item %d", i)
		}
	}
}

// TestLinkFaultsDeterministic replays the same frame sequence through
// two injectors with the same seed: every verdict, buffer mutation,
// and counter must match.
func TestLinkFaultsDeterministic(t *testing.T) {
	cfg := LinkFaultConfig{
		DropRate: 0.2, CorruptRate: 0.2,
		DupRate: 0.2, DupDelay: 5 * netsim.Microsecond,
		ReorderRate: 0.2, ReorderJitter: 10 * netsim.Microsecond,
	}
	f1 := NewLinkFaults(SubSeed(3, "link"), cfg)
	f2 := NewLinkFaults(SubSeed(3, "link"), cfg)
	for i := 0; i < 500; i++ {
		b1 := bytes.Repeat([]byte{byte(i)}, 64)
		b2 := bytes.Repeat([]byte{byte(i)}, 64)
		now := netsim.Time(i) * netsim.Microsecond
		a1 := f1.Apply(now, i%2 == 0, b1)
		a2 := f2.Apply(now, i%2 == 0, b2)
		if a1 != a2 {
			t.Fatalf("frame %d: actions diverge: %+v vs %+v", i, a1, a2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("frame %d: corruption diverges", i)
		}
	}
	if f1.Dropped != f2.Dropped || f1.Corrupted != f2.Corrupted ||
		f1.Duplicated != f2.Duplicated || f1.Reordered != f2.Reordered {
		t.Errorf("counters diverge: %+v vs %+v", *f1, *f2)
	}
	if f1.Dropped == 0 || f1.Corrupted == 0 || f1.Duplicated == 0 || f1.Reordered == 0 {
		t.Errorf("a 20%% class injected nothing over 500 frames: %+v", *f1)
	}
}

// TestLinkFaultsDisabled pins the zero-config contract: no action, no
// mutation, no counter movement.
func TestLinkFaultsDisabled(t *testing.T) {
	f := NewLinkFaults(1, LinkFaultConfig{})
	buf := bytes.Repeat([]byte{0xAB}, 64)
	want := append([]byte(nil), buf...)
	for i := 0; i < 100; i++ {
		if act := f.Apply(netsim.Time(i), true, buf); act != (netsim.FaultAction{}) {
			t.Fatalf("disabled injector acted: %+v", act)
		}
	}
	if !bytes.Equal(buf, want) {
		t.Error("disabled injector mutated the frame")
	}
	if f.Dropped+f.Corrupted+f.Duplicated+f.Reordered+f.FlapDropped != 0 {
		t.Errorf("disabled injector counted events: %+v", *f)
	}
}

// TestLinkFaultsFlapSchedule pins the deterministic down-window
// arithmetic: down during the first FlapDown of every FlapPeriod.
func TestLinkFaultsFlapSchedule(t *testing.T) {
	f := NewLinkFaults(1, LinkFaultConfig{
		FlapPeriod: 100 * netsim.Microsecond,
		FlapDown:   10 * netsim.Microsecond,
	})
	for _, tc := range []struct {
		at   netsim.Time
		down bool
	}{
		{0, true},
		{9 * netsim.Microsecond, true},
		{10 * netsim.Microsecond, false},
		{99 * netsim.Microsecond, false},
		{100 * netsim.Microsecond, true},
		{109 * netsim.Microsecond, true},
		{110 * netsim.Microsecond, false},
		{250 * netsim.Microsecond, false},
	} {
		act := f.Apply(tc.at, true, nil)
		if act.Drop != tc.down {
			t.Errorf("at %d: drop = %v, want %v", tc.at, act.Drop, tc.down)
		}
	}
	if f.FlapDropped != 4 {
		t.Errorf("FlapDropped = %d, want 4", f.FlapDropped)
	}
}

// recordProgram is a trivial forwarding program that counts invocations
// and routes everything to port 9.
type recordProgram struct{ calls int }

func (p *recordProgram) Process(_ *netsim.Switch, _ *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	p.calls++
	return meta.OneEgress(9)
}

// TestNodeFaults drives the forwarding wrapper through its three
// classes on a real simulator clock.
func TestNodeFaults(t *testing.T) {
	sim := netsim.NewSimulator()
	sw := netsim.NewSwitch(sim, 7, "victim")
	inner := &recordProgram{}
	sw.Forwarding = inner
	nf := WrapNode(sw, 1, NodeFaultConfig{
		MisrouteRate: 1, MisroutePort: 3,
		CrashAt: 100 * netsim.Microsecond, CrashUntil: 200 * netsim.Microsecond,
	})
	if sw.Forwarding != netsim.ForwardingProgram(nf) {
		t.Fatal("WrapNode did not interpose")
	}

	pkt := &dataplane.Decoded{}
	meta := &netsim.PacketMeta{}
	var got [][]netsim.Egress
	for _, at := range []netsim.Time{0, 150 * netsim.Microsecond, 300 * netsim.Microsecond} {
		sim.At(at, func() { got = append(got, nf.Process(sw, pkt, meta)) })
	}
	sim.RunAll()

	if len(got) != 3 {
		t.Fatalf("ran %d probes, want 3", len(got))
	}
	// Before and after the crash window: misroute (rate 1) overrides the
	// egress but still runs the real program for its packet rewrites.
	for _, i := range []int{0, 2} {
		if len(got[i]) != 1 || got[i][0].Port != 3 {
			t.Errorf("probe %d: egress %v, want misroute port 3", i, got[i])
		}
	}
	// Inside the window: blackhole, inner never runs.
	if got[1] != nil {
		t.Errorf("crashed switch forwarded: %v", got[1])
	}
	if inner.calls != 2 {
		t.Errorf("inner program ran %d times, want 2", inner.calls)
	}
	if nf.Misrouted != 2 || nf.CrashDropped != 1 {
		t.Errorf("counters misroute=%d crash=%d, want 2/1", nf.Misrouted, nf.CrashDropped)
	}
}

// TestNodeFaultsTeleRewrite pins the rogue rewrite: the Hydra blob is
// zeroed in place with its shape (length) preserved.
func TestNodeFaultsTeleRewrite(t *testing.T) {
	sim := netsim.NewSimulator()
	sw := netsim.NewSwitch(sim, 7, "rogue")
	inner := &recordProgram{}
	sw.Forwarding = inner
	nf := WrapNode(sw, 1, NodeFaultConfig{TeleRewriteRate: 1})

	pkt := &dataplane.Decoded{}
	pkt.InsertHydra([]byte{1, 2, 3, 4, 5})
	out := nf.Process(sw, pkt, &netsim.PacketMeta{})
	if len(out) != 1 || out[0].Port != 9 {
		t.Errorf("egress %v, want inner's port 9", out)
	}
	if len(pkt.Hydra.Blob) != 5 {
		t.Errorf("blob length changed to %d (shape must be preserved)", len(pkt.Hydra.Blob))
	}
	if !bytes.Equal(pkt.Hydra.Blob, make([]byte, 5)) {
		t.Errorf("blob not zeroed: %v", pkt.Hydra.Blob)
	}
	if nf.Rewritten != 1 {
		t.Errorf("Rewritten = %d, want 1", nf.Rewritten)
	}
}
