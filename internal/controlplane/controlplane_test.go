package controlplane

import (
	"reflect"
	"testing"

	"repro/internal/checkers"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// buildFabric returns a 2×2 leaf-spine and a controller publishing into
// a report bus on the simulator's clock.
func buildFabric(t *testing.T, exporters ...reportbus.Exporter) (*netsim.Simulator, *netsim.LeafSpine, *Controller, *reportbus.Bus) {
	t.Helper()
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	bus := reportbus.New(reportbus.Config{Clock: func() int64 { return int64(sim.Now()) }, Exporters: exporters})
	return sim, ls, NewController(bus), bus
}

func TestDeployAndConfigure(t *testing.T) {
	sim, ls, ctl, _ := buildFabric(t)
	if err := ctl.Deploy("waypointing", checkers.MustParse("waypointing"), ls.AllSwitches()...); err != nil {
		t.Fatal(err)
	}
	// switchID 0 = everywhere.
	if err := ctl.SetScalar("waypointing", 0, "waypoint_id", uint64(ls.Spines[0].ID)); err != nil {
		t.Fatal(err)
	}

	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	// Drive flows through both spines; the spine-2 flow must be
	// rejected, the spine-1 flow delivered.
	for p := uint16(1); p < 100; p++ {
		h1.SendUDP(h2.IP, 30000+p, 80, 64)
	}
	sim.RunAll()
	if ctl.Rejected("waypointing") == 0 {
		t.Fatal("flows bypassing the waypoint must be rejected")
	}
	if h2.RxUDP == 0 {
		t.Fatal("flows through the waypoint must be delivered")
	}
	if got := ctl.Rejected("waypointing") + h2.RxUDP; got != 99 {
		t.Fatalf("conservation: rejected+delivered = %d, want 99", got)
	}
}

// TestReportsCollected reads reports the way a reactive control-plane
// app does: through a bus tap, which an inline producer runs before the
// raising packet moves on. The tap reacts to the firewall's report by
// installing the reverse rule, which admits the return traffic.
func TestReportsCollected(t *testing.T) {
	sim, ls, ctl, bus := buildFabric(t)
	if err := ctl.Deploy("fw", checkers.MustParse("stateful-firewall"), ls.AllSwitches()...); err != nil {
		t.Fatal(err)
	}
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	if err := ctl.PutDict("fw", 0, "allowed", []uint64{uint64(h1.IP), uint64(h2.IP)}, 1); err != nil {
		t.Fatal(err)
	}

	var reps []reportbus.Digest
	bus.Tap(func(d reportbus.Digest) {
		reps = append(reps, d)
		// The report names the reverse flow (dst, src): allow it.
		if err := ctl.PutDict("fw", 0, "allowed", []uint64{d.Args[0], d.Args[1]}, 1); err != nil {
			t.Error(err)
		}
	})

	h1.SendUDP(h2.IP, 555, 80, 64)
	sim.RunAll()
	if len(reps) != 1 {
		t.Fatalf("reports = %d, want 1", len(reps))
	}
	r := reps[0]
	if r.Checker != "fw" || r.NArgs != 2 || r.Args[0] != uint64(h2.IP) || r.Args[1] != uint64(h1.IP) {
		t.Fatalf("report = %+v", r)
	}
	// Provenance: a switch the checker runs on, at the instant of the raise.
	if _, err := ctl.Attachment("fw", r.SwitchID); err != nil || r.At <= 0 || r.At > int64(sim.Now()) {
		t.Fatalf("provenance missing: %+v (%v)", r, err)
	}

	// The install the tap made admits the return traffic, which raises
	// no further report.
	h2.SendUDP(h1.IP, 80, 555, 64)
	sim.RunAll()
	if h1.RxUDP != 1 {
		t.Fatal("return traffic must pass after the reactive install")
	}
	if len(reps) != 1 {
		t.Fatalf("no further reports expected, got %d", len(reps))
	}
}

func TestErrors(t *testing.T) {
	_, ls, ctl, _ := buildFabric(t)
	if err := ctl.SetScalar("nope", 0, "x", 1); err == nil {
		t.Fatal("undeployed checker must error")
	}
	if err := ctl.Deploy("wp", checkers.MustParse("waypointing"), ls.Leaves[0]); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Deploy("wp", checkers.MustParse("waypointing"), ls.Leaves[1]); err == nil {
		t.Fatal("duplicate deploy must error")
	}
	if err := ctl.SetScalar("wp", 999, "waypoint_id", 1); err == nil {
		t.Fatal("unknown switch must error")
	}
	if err := ctl.SetScalar("wp", 0, "no_such_var", 1); err == nil {
		t.Fatal("unknown control variable must error")
	}
	if _, err := ctl.Attachment("wp", ls.Leaves[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Attachment("wp", 12345); err == nil {
		t.Fatal("unknown attachment must error")
	}
}

// TestControllerSharesBus: the controller publishes into the caller's
// bus and keeps nothing itself, so every consumer of the bus sees the
// same digests — a tap each one, the exporters' aggregates all of them
// once the caller flushes — and the caller's other producers publish
// beside the switches.
func TestControllerSharesBus(t *testing.T) {
	sink := &reportbus.CollectExporter{}
	sim, ls, ctl, bus := buildFabric(t, sink)
	if err := ctl.Deploy("fw", checkers.MustParse("stateful-firewall"), ls.AllSwitches()...); err != nil {
		t.Fatal(err)
	}
	var tapped uint64
	bus.Tap(func(reportbus.Digest) { tapped++ })
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	if err := ctl.PutDict("fw", 0, "allowed", []uint64{uint64(h1.IP), uint64(h2.IP)}, 1); err != nil {
		t.Fatal(err)
	}
	h1.SendUDP(h2.IP, 555, 80, 64)
	sim.RunAll()
	if tapped == 0 {
		t.Fatal("expected firewall reports")
	}
	bus.Flush()

	var total uint64
	for _, c := range sink.CountsByKey() {
		total += c
	}
	if total != tapped {
		t.Fatalf("bus aggregates sum to %d digests, the tap saw %d", total, tapped)
	}
	raised := tapped
	p := bus.InlineProducer("post")
	p.Publish(reportbus.DigestFrom("fw", 1, int64(sim.Now()), pipeline.Report{}))
	bus.Flush()
	if m := bus.Metrics(); tapped != raised+1 || m.Published != tapped || m.Unaccounted() != 0 {
		t.Fatalf("after a second producer: tapped %d, published %d, want %d; unaccounted %d",
			tapped, m.Published, raised+1, m.Unaccounted())
	}
}

// TestWipeSwitch models a switch restart's register wipe: every checker
// attachment on the switch is back at its program's factory state, its
// installed entries gone, and no other switch loses anything.
func TestWipeSwitch(t *testing.T) {
	_, ls, ctl, _ := buildFabric(t)
	for name, key := range map[string]string{"vlan": "vlan-isolation", "egress": "egress-validity"} {
		if err := ctl.Deploy(name, checkers.MustParse(key), ls.AllSwitches()...); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.PutDict("vlan", 0, "vlan_members", []uint64{0}, 1); err != nil {
		t.Fatal(err)
	}
	for _, sw := range ls.AllSwitches() {
		att, err := ctl.Attachment("egress", sw.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := att.State.Tables["allowed_eg_ports"].Insert(pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.ExactKey(3)}}); err != nil {
			t.Fatal(err)
		}
	}
	entries := func(sw uint32) []int {
		t.Helper()
		var n []int
		for _, v := range []struct{ checker, table string }{{"vlan", "vlan_members"}, {"egress", "allowed_eg_ports"}} {
			att, err := ctl.Attachment(v.checker, sw)
			if err != nil {
				t.Fatal(err)
			}
			n = append(n, att.State.Tables[v.table].Len())
		}
		return n
	}

	leaf, other := ls.Leaves[0].ID, ls.Leaves[1].ID
	if n := ctl.WipeSwitch(leaf); n != 2 {
		t.Fatalf("wiped %d attachments, want 2", n)
	}
	if got := entries(leaf); !reflect.DeepEqual(got, []int{0, 0}) {
		t.Errorf("wiped switch still holds %v installed entries", got)
	}
	if got := entries(other); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Errorf("the wipe reached another switch: %v entries, want [1 1]", got)
	}
}
