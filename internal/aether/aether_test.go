package aether

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// sliceRulesV1 is the initial Figure 11 policy: deny all traffic by
// default, allow applications on UDP port 81.
func sliceRulesV1() []FilterRule {
	return []FilterRule{
		{Priority: 10, Allow: false},
		{Priority: 20, Proto: dataplane.ProtoUDP, PortLo: 81, PortHi: 81, Allow: true},
	}
}

// sliceRulesV2 is the portal update: the UDP port range expands to 81-82
// at a higher priority.
func sliceRulesV2() []FilterRule {
	return []FilterRule{
		{Priority: 10, Allow: false},
		{Priority: 25, Proto: dataplane.ProtoUDP, PortLo: 81, PortHi: 82, Allow: true},
	}
}

// sendDownlink emits one UDP packet from the edge server to ue's port.
func sendDownlink(d *Deployment, ue *UE, sport uint16, payloadLen int) {
	d.Server.SendUDP(ue.IP, sport, 40000+ue.ID, payloadLen)
}

// countDownlink counts the tunnelled packets that reach the base station
// for ue.
func countDownlink(d *Deployment, ue *UE) *int {
	n := new(int)
	d.Enb.OnPacket = func(pkt *dataplane.Decoded) {
		if pkt.HasGTPU && pkt.GTPU.TEID == ue.TEIDDown {
			*n++
		}
	}
	return n
}

func buildWithSlice(t *testing.T, opts Options) (*Deployment, *netsim.Simulator) {
	t.Helper()
	sim := netsim.NewSimulator()
	d := Build(sim, opts)
	d.Core.DefineSlice(&Slice{ID: 1, Rules: sliceRulesV1()})
	return d, sim
}

// checkPublished: every digest the checker raised left through the
// deployment's report bus, and the app decoded each one into a report.
func checkPublished(t *testing.T, d *Deployment) {
	t.Helper()
	if m := d.Bus.Metrics(); m.Published != uint64(len(d.HydraApp.Reports)) {
		t.Fatalf("the bus published %d digests, the app holds %d reports", m.Published, len(d.HydraApp.Reports))
	}
}

func TestUplinkAllowedFlow(t *testing.T) {
	d, sim := buildWithSlice(t, Options{})
	ue, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SendUplink(ue, ServerAddr, dataplane.ProtoUDP, 81, 100)
	sim.RunAll()
	if d.Server.RxUDP != 1 {
		t.Fatalf("server rx = %d, want 1", d.Server.RxUDP)
	}
	// The delivered packet must be decapsulated user traffic from the
	// UE's address.
	if d.UPF.UplinkPkts != 1 || d.UPF.FilteredDrops != 0 {
		t.Fatalf("upf: %s", d.UPF)
	}
}

func TestUplinkDeniedFlowDropped(t *testing.T) {
	d, sim := buildWithSlice(t, Options{})
	ue, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SendUplink(ue, ServerAddr, dataplane.ProtoUDP, 80, 100) // denied port
	d.SendUplink(ue, ServerAddr, dataplane.ProtoTCP, 80, 100) // denied proto
	sim.RunAll()
	if d.Server.RxUDP != 0 || d.Server.RxTCP != 0 {
		t.Fatalf("denied traffic delivered: udp=%d tcp=%d", d.Server.RxUDP, d.Server.RxTCP)
	}
	if d.UPF.FilteredDrops != 2 {
		t.Fatalf("filtered drops = %d, want 2", d.UPF.FilteredDrops)
	}
}

func TestDownlinkTunnel(t *testing.T) {
	d, sim := buildWithSlice(t, Options{})
	ue, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	delivered := countDownlink(d, ue)
	sendDownlink(d, ue, 81, 200)
	sim.RunAll()
	if got := *delivered; got != 1 {
		t.Fatalf("downlink delivered = %d, want 1", got)
	}
	// Denied source port: dropped at the UPF.
	sendDownlink(d, ue, 9999, 200)
	sim.RunAll()
	if got := *delivered; got != 1 {
		t.Fatalf("denied downlink leaked: %d", got)
	}
}

func TestUnknownTunnelDropped(t *testing.T) {
	d, sim := buildWithSlice(t, Options{})
	ghost := &UE{ID: 99, IP: dataplane.MustIP4("10.250.0.99"), TEIDUp: 0xdead, TEIDDown: 0xbeef}
	d.SendUplink(ghost, ServerAddr, dataplane.ProtoUDP, 81, 64)
	sim.RunAll()
	if d.Server.RxUDP != 0 {
		t.Fatal("packet with unknown TEID must be dropped")
	}
}

// TestFigure11AppIDAssignment asserts the exact table layout Figure 11
// shows: deny-all is app 1, the original allow rule app 2, and the
// post-update rule installed on the second attach becomes app 3.
func TestFigure11AppIDAssignment(t *testing.T) {
	d, _ := buildWithSlice(t, Options{})
	if _, err := d.Core.Attach("imsi-001", 1); err != nil {
		t.Fatal(err)
	}
	if e, ok := d.ONOS.appIDs[sliceRulesV1()[0].signature(1)]; !ok || e.id != 1 {
		t.Fatalf("deny-all app id = %d (%v), want 1", e.id, ok)
	}
	if e, ok := d.ONOS.appIDs[sliceRulesV1()[1].signature(1)]; !ok || e.id != 2 {
		t.Fatalf("allow-81 app id = %d (%v), want 2", e.id, ok)
	}

	if err := d.UpdatePortal(1, sliceRulesV2()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Core.Attach("imsi-002", 1); err != nil {
		t.Fatal(err)
	}
	if e, ok := d.ONOS.appIDs[sliceRulesV2()[1].signature(1)]; !ok || e.id != 3 {
		t.Fatalf("allow-81-82 app id = %d (%v), want 3", e.id, ok)
	}
	// The Applications table now holds all three entries — the old
	// 81-81 entry is still installed, shadowed by the higher priority.
	if n := d.UPF.Applications.Len(); n != 3 {
		t.Fatalf("applications entries = %d, want 3", n)
	}
}

// TestFigure11BugReproduction replays the full §5.2 scenario: after the
// portal update and a second client's attach, client 1's previously
// allowed port-81 traffic is silently dropped by the UPF — and the
// Hydra checker reports exactly that packet as an intent violation.
func TestFigure11BugReproduction(t *testing.T) {
	d, sim := buildWithSlice(t, Options{WithChecker: true})

	c1, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: client 1's port-81 traffic flows.
	d.SendUplink(c1, ServerAddr, dataplane.ProtoUDP, 81, 100)
	sim.RunAll()
	if d.Server.RxUDP != 1 {
		t.Fatalf("phase 1: rx = %d", d.Server.RxUDP)
	}
	checkPublished(t, d)
	if len(d.HydraApp.Reports) != 0 {
		t.Fatalf("phase 1: unexpected reports %+v", d.HydraApp.Reports)
	}

	// Phase 2: the operator expands the port range at higher priority;
	// client 2 attaches, causing ONOS to install the new shared entry.
	if err := d.UpdatePortal(1, sliceRulesV2()); err != nil {
		t.Fatal(err)
	}
	c2, err := d.Core.Attach("imsi-002", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Client 2 is fine on both ports.
	d.SendUplink(c2, ServerAddr, dataplane.ProtoUDP, 81, 100)
	d.SendUplink(c2, ServerAddr, dataplane.ProtoUDP, 82, 100)
	sim.RunAll()
	if d.Server.RxUDP != 3 {
		t.Fatalf("phase 2: rx = %d, want 3", d.Server.RxUDP)
	}
	checkPublished(t, d)
	if len(d.HydraApp.Reports) != 0 {
		t.Fatalf("phase 2: unexpected reports %+v", d.HydraApp.Reports)
	}

	// Phase 3: client 1's port-81 packet now classifies into app 3
	// (higher priority), has no (c1, app3) termination, and is dropped —
	// the bug. Hydra must report it: intent says allow, data plane drops.
	d.SendUplink(c1, ServerAddr, dataplane.ProtoUDP, 81, 100)
	sim.RunAll()

	if d.Server.RxUDP != 3 {
		t.Fatalf("phase 3: the bug should drop the packet (rx=%d)", d.Server.RxUDP)
	}
	if d.UPF.FilteredDrops != 1 {
		t.Fatalf("phase 3: upf drops = %d, want 1", d.UPF.FilteredDrops)
	}
	checkPublished(t, d)
	if len(d.HydraApp.Reports) != 1 {
		t.Fatalf("phase 3: reports = %d, want 1 (%+v)", len(d.HydraApp.Reports), d.HydraApp.Reports)
	}
	rep := d.HydraApp.Reports[0]
	if rep.UEAddr != c1.IP || rep.AppAddr != ServerAddr || rep.L4Port != 81 || rep.Proto != dataplane.ProtoUDP {
		t.Fatalf("report misidentifies the flow: %+v", rep)
	}
	if rep.Action != ActionAllow {
		t.Fatalf("report action = %d, want %d (allow, i.e. wrongly dropped)", rep.Action, ActionAllow)
	}
	if rep.Switch != d.Leaf1.ID {
		t.Fatalf("report raised at switch %d, want leaf1 (%d) where the drop happened", rep.Switch, d.Leaf1.ID)
	}
}

// TestFigure11BugGoneWithFixedONOS is the counterfactual: with the
// repaired controller the same scenario delivers everything and Hydra
// stays silent.
func TestFigure11BugGoneWithFixedONOS(t *testing.T) {
	d, sim := buildWithSlice(t, Options{WithChecker: true, FixedONOS: true})

	c1, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UpdatePortal(1, sliceRulesV2()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Core.Attach("imsi-002", 1); err != nil {
		t.Fatal(err)
	}
	d.SendUplink(c1, ServerAddr, dataplane.ProtoUDP, 81, 100)
	sim.RunAll()

	if d.Server.RxUDP != 1 {
		t.Fatalf("fixed controller: rx = %d, want 1", d.Server.RxUDP)
	}
	checkPublished(t, d)
	if len(d.HydraApp.Reports) != 0 {
		t.Fatalf("fixed controller: unexpected reports %+v", d.HydraApp.Reports)
	}
}

// TestDownlinkBugAlsoCaught exercises the same bug on the downlink
// direction: after the update + second attach, the server's port-81
// replies to client 1 are dropped and reported.
func TestDownlinkBugAlsoCaught(t *testing.T) {
	d, sim := buildWithSlice(t, Options{WithChecker: true})
	c1, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	delivered := countDownlink(d, c1)
	sendDownlink(d, c1, 81, 100)
	sim.RunAll()
	if *delivered != 1 {
		t.Fatal("downlink baseline failed")
	}

	if err := d.UpdatePortal(1, sliceRulesV2()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Core.Attach("imsi-002", 1); err != nil {
		t.Fatal(err)
	}
	sendDownlink(d, c1, 81, 100)
	sim.RunAll()

	if *delivered != 1 {
		t.Fatal("downlink packet should have been dropped by the bug")
	}
	checkPublished(t, d)
	if len(d.HydraApp.Reports) != 1 {
		t.Fatalf("downlink reports = %d, want 1", len(d.HydraApp.Reports))
	}
	rep := d.HydraApp.Reports[0]
	if rep.UEAddr != c1.IP || rep.L4Port != 81 || rep.Action != ActionAllow {
		t.Fatalf("downlink report wrong: %+v", rep)
	}
}

// TestSliceEvaluate pins the intent semantics: highest priority wins,
// no match denies.
func TestSliceEvaluate(t *testing.T) {
	s := &Slice{ID: 1, Rules: sliceRulesV2()}
	cases := []struct {
		proto uint8
		port  uint16
		want  uint8
	}{
		{dataplane.ProtoUDP, 81, ActionAllow},
		{dataplane.ProtoUDP, 82, ActionAllow},
		{dataplane.ProtoUDP, 80, ActionDeny},
		{dataplane.ProtoTCP, 81, ActionDeny},
		{dataplane.ProtoUDP, 83, ActionDeny},
	}
	for _, c := range cases {
		if got := s.Evaluate(ServerAddr, c.proto, c.port); got != c.want {
			t.Errorf("Evaluate(proto=%d port=%d) = %d, want %d", c.proto, c.port, got, c.want)
		}
	}
}

func TestFilterRuleMatches(t *testing.T) {
	r := FilterRule{Priority: 20, AppPrefix: dataplane.MustIP4("192.168.5.0"), PrefixBits: 24,
		Proto: dataplane.ProtoUDP, PortLo: 81, PortHi: 82, Allow: true}
	if !r.Matches(ServerAddr, dataplane.ProtoUDP, 81) {
		t.Fatal("should match")
	}
	if r.Matches(ServerAddr, dataplane.ProtoTCP, 81) {
		t.Fatal("proto mismatch")
	}
	if r.Matches(dataplane.MustIP4("10.0.0.1"), dataplane.ProtoUDP, 81) {
		t.Fatal("prefix mismatch")
	}
	if r.Matches(ServerAddr, dataplane.ProtoUDP, 83) {
		t.Fatal("port out of range")
	}
	anyRule := FilterRule{Priority: 10}
	if !anyRule.Matches(ServerAddr, dataplane.ProtoTCP, 1) {
		t.Fatal("wildcard rule must match everything")
	}
}

func TestAccountingCounters(t *testing.T) {
	d, sim := buildWithSlice(t, Options{})
	ue, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.SendUplink(ue, ServerAddr, dataplane.ProtoUDP, 81, 100)
	}
	sendDownlink(d, ue, 81, 200)
	sim.RunAll()

	c := *d.UPF.Accounting.byUE[uint64(ue.ID)]
	if c.UpPkts != 3 || c.DownPkts != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if c.UpBytes == 0 || c.DownBytes == 0 {
		t.Fatalf("byte counters empty: %+v", c)
	}
}

func TestSliceQoSMetering(t *testing.T) {
	d, sim := buildWithSlice(t, Options{})
	ue, err := d.Core.Attach("imsi-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cap the slice at 1 Mb/s; a burst of 400 x 1000-byte packets in
	// ~zero time vastly exceeds the bucket (1 Mb/s / 8 = 125 kbit burst).
	d.UPF.Accounting.sliceMBR[1] = 1_000_000
	for i := 0; i < 400; i++ {
		d.SendUplink(ue, ServerAddr, dataplane.ProtoUDP, 81, 1000)
	}
	sim.RunAll()
	if d.UPF.Accounting.QoSDrops == 0 {
		t.Fatal("burst over the slice MBR must be metered")
	}
	if d.Server.RxUDP == 0 {
		t.Fatal("conforming prefix of the burst must pass")
	}
	if d.Server.RxUDP+d.UPF.Accounting.QoSDrops != 400 {
		t.Fatalf("conservation: %d delivered + %d dropped != 400", d.Server.RxUDP, d.UPF.Accounting.QoSDrops)
	}
}
