package controlplane

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/checkers"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

func buildFabric(t *testing.T) (*netsim.Simulator, *netsim.LeafSpine, *Controller) {
	t.Helper()
	sim := netsim.NewSimulator()
	ls := netsim.BuildLeafSpine(sim, netsim.LeafSpineConfig{Leaves: 2, Spines: 2, HostsPerLeaf: 1, WithRouting: true})
	return sim, ls, NewController()
}

func TestDeployAndConfigure(t *testing.T) {
	sim, ls, ctl := buildFabric(t)
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

func TestReportsCollected(t *testing.T) {
	sim, ls, ctl := buildFabric(t)
	if err := ctl.Deploy("fw", checkers.MustParse("stateful-firewall"), ls.AllSwitches()...); err != nil {
		t.Fatal(err)
	}
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	if err := ctl.PutDict("fw", 0, "allowed", []uint64{uint64(h1.IP), uint64(h2.IP)}, 1); err != nil {
		t.Fatal(err)
	}

	var live int
	ctl.OnReport = func(Report) { live++ }

	h1.SendUDP(h2.IP, 555, 80, 64)
	sim.RunAll()
	reps := ctl.ReportsFor("fw")
	if len(reps) != 1 || live != 1 {
		t.Fatalf("reports = %d live = %d, want 1/1", len(reps), live)
	}
	r := reps[0]
	if r.Checker != "fw" || len(r.Args) != 2 || r.Args[0] != uint64(h2.IP) || r.Args[1] != uint64(h1.IP) {
		t.Fatalf("report = %+v", r)
	}
	if r.Switch == "" || r.SwitchID == 0 {
		t.Fatalf("provenance missing: %+v", r)
	}

	// Reacting to the report (install the reverse rule) stops further
	// reports and admits the return traffic.
	if err := ctl.PutDict("fw", 0, "allowed", []uint64{uint64(h2.IP), uint64(h1.IP)}, 1); err != nil {
		t.Fatal(err)
	}
	h2.SendUDP(h1.IP, 80, 555, 64)
	sim.RunAll()
	if h1.RxUDP != 1 {
		t.Fatal("return traffic must pass after the install")
	}
	if len(ctl.ReportsFor("fw")) != 1 {
		t.Fatalf("no further reports expected, got %d", len(ctl.ReportsFor("fw")))
	}
}

// deleteRecorder is an InstallObserver that keeps every delete it sees.
type deleteRecorder struct{ deletes []deleted }

type deleted struct {
	checker, varName string
	switchID         uint32
	key              []uint64
}

func (r *deleteRecorder) ControlInstalled(string, uint32, string, []uint64, uint64) {}

func (r *deleteRecorder) ControlDeleted(checker string, switchID uint32, varName string, key []uint64) {
	r.deletes = append(r.deletes, deleted{checker, varName, switchID, key})
}

// switches returns the switches the recorded deletes of key hit, after
// checking each names the egress checker's port set.
func (r *deleteRecorder) switches(t *testing.T, key []uint64) map[uint32]bool {
	t.Helper()
	hit := map[uint32]bool{}
	for _, d := range r.deletes {
		if d.checker != "egress" || d.varName != "allowed_eg_ports" || !reflect.DeepEqual(d.key, key) || hit[d.switchID] {
			t.Fatalf("unexpected delete %+v among %+v", d, r.deletes)
		}
		hit[d.switchID] = true
	}
	return hit
}

func TestSetAndDelete(t *testing.T) {
	sim, ls, ctl := buildFabric(t)
	if err := ctl.Deploy("egress", checkers.MustParse("egress-validity"), ls.AllSwitches()...); err != nil {
		t.Fatal(err)
	}
	for port := uint64(0); port <= 8; port++ {
		if err := ctl.AddSet("egress", 0, "allowed_eg_ports", port); err != nil {
			t.Fatal(err)
		}
	}
	rec := &deleteRecorder{}
	ctl.Observer = rec
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	h1.SendUDP(h2.IP, 1, 80, 64)
	sim.RunAll()
	if h2.RxUDP != 1 {
		t.Fatal("allowed egress must pass")
	}
	if ctl.Rejected("egress") != 0 {
		t.Fatal("no rejections expected")
	}

	// With two spines a leaf's host is on port 3: the h1 -> h2 flow
	// leaves the fabric there at leaf 2, and h2 -> h1 at leaf 1.
	hostPort := []uint64{3}
	if err := ctl.DeleteDict("egress", 0, "allowed_eg_ports", hostPort); err != nil {
		t.Fatal(err)
	}
	all := map[uint32]bool{}
	for _, sw := range ls.AllSwitches() {
		all[sw.ID] = true
	}
	if hit := rec.switches(t, hostPort); !reflect.DeepEqual(hit, all) {
		t.Fatalf("a delete on every switch was observed on %v, want %v", hit, all)
	}
	h1.SendUDP(h2.IP, 2, 80, 64)
	sim.RunAll()
	if h2.RxUDP != 1 || ctl.Rejected("egress") != 1 {
		t.Fatalf("after the delete: delivered %d, rejected %d, want the packet rejected", h2.RxUDP, ctl.Rejected("egress"))
	}

	// A scoped delete removes the entry on that switch only.
	if err := ctl.AddSet("egress", 0, "allowed_eg_ports", hostPort...); err != nil {
		t.Fatal(err)
	}
	rec.deletes = nil
	leaf1 := ls.Leaves[0].ID
	if err := ctl.DeleteDict("egress", leaf1, "allowed_eg_ports", hostPort); err != nil {
		t.Fatal(err)
	}
	if hit := rec.switches(t, hostPort); !reflect.DeepEqual(hit, map[uint32]bool{leaf1: true}) {
		t.Fatalf("a delete on leaf 1 was observed on %v", hit)
	}
	h1.SendUDP(h2.IP, 3, 80, 64)
	h2.SendUDP(h1.IP, 3, 80, 64)
	sim.RunAll()
	if h2.RxUDP != 2 || h1.RxUDP != 0 || ctl.Rejected("egress") != 2 {
		t.Fatalf("after a delete on leaf 1: h2 received %d, h1 %d, rejected %d; want 2, 0, 2",
			h2.RxUDP, h1.RxUDP, ctl.Rejected("egress"))
	}
}

func TestErrors(t *testing.T) {
	_, ls, ctl := buildFabric(t)
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

// TestSinkConcurrent audits the report sink's locking: the sink is the
// one controller path invoked from the data plane, so hammer it from
// several goroutines while readers snapshot Reports/ReportsFor. Under
// -race this fails on any unguarded access; without it, it still checks
// no report is lost.
func TestSinkConcurrent(t *testing.T) {
	_, ls, ctl := buildFabric(t)
	sw := ls.Leaves[0]
	var live atomic.Int64
	ctl.OnReport = func(Report) { live.Add(1) }

	const goroutines, perGoroutine = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				ctl.sink("fw", sw, pipeline.Report{Args: []pipeline.Value{pipeline.B(32, uint64(i))}})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = ctl.Reports()
			_ = ctl.ReportsFor("fw")
		}
	}()
	wg.Wait()

	const want = goroutines * perGoroutine
	if got := len(ctl.Reports()); got != want || live.Load() != want {
		t.Fatalf("collected %d reports, %d live callbacks; want %d of each", got, live.Load(), want)
	}
}

// TestRetentionBounded pins the retention policy: the controller keeps
// at most RetainPerChecker reports per checker (oldest evicted first,
// eviction counted), ReportsFor indexes per checker without scanning
// others, and Reports merges rings back into global arrival order.
func TestRetentionBounded(t *testing.T) {
	_, ls, _ := buildFabric(t)
	sw := ls.Leaves[0]
	ctl := NewControllerWith(Config{RetainPerChecker: 8})
	defer ctl.Close()

	for i := 0; i < 20; i++ {
		ctl.sink("a", sw, pipeline.Report{Args: []pipeline.Value{pipeline.B(32, uint64(i))}})
		if i%2 == 0 {
			ctl.sink("b", sw, pipeline.Report{Args: []pipeline.Value{pipeline.B(32, uint64(100+i))}})
		}
	}

	aReps := ctl.ReportsFor("a")
	if len(aReps) != 8 {
		t.Fatalf("checker a retained %d reports, want 8", len(aReps))
	}
	// Oldest-first within the ring, and only the newest 8 survive.
	for i, r := range aReps {
		if want := uint64(12 + i); r.Args[0] != want {
			t.Fatalf("a[%d] = %d, want %d", i, r.Args[0], want)
		}
	}
	if got := ctl.Evicted("a"); got != 12 {
		t.Fatalf("a evicted = %d, want 12", got)
	}
	bReps := ctl.ReportsFor("b")
	if len(bReps) != 8 || ctl.Evicted("b") != 2 {
		t.Fatalf("checker b retained %d evicted %d, want 8/2", len(bReps), ctl.Evicted("b"))
	}

	// The merged snapshot is in arrival order across checkers.
	all := ctl.Reports()
	if len(all) != 16 {
		t.Fatalf("merged snapshot has %d reports, want 16", len(all))
	}
	lastA, lastB := -1, -1
	for i, r := range all {
		switch r.Checker {
		case "a":
			if lastA >= 0 && all[lastA].Args[0] >= r.Args[0] {
				t.Fatal("merged order broken within checker a")
			}
			lastA = i
		case "b":
			if lastB >= 0 && all[lastB].Args[0] >= r.Args[0] {
				t.Fatal("merged order broken within checker b")
			}
			lastB = i
		}
	}
	// a=15 arrived between b=114 and b=116; merged order must reflect it.
	idx := map[uint64]int{}
	for i, r := range all {
		idx[r.Args[0]] = i
	}
	if !(idx[114] < idx[15] && idx[15] < idx[116]) {
		t.Fatalf("interleave broken: positions b114=%d a15=%d b116=%d", idx[114], idx[15], idx[116])
	}
}

// TestRetentionDisabled: negative RetainPerChecker turns retention off
// entirely while the bus tap (OnReport) still sees every digest.
func TestRetentionDisabled(t *testing.T) {
	_, ls, _ := buildFabric(t)
	sw := ls.Leaves[0]
	ctl := NewControllerWith(Config{RetainPerChecker: -1})
	defer ctl.Close()
	var live int
	ctl.OnReport = func(Report) { live++ }
	for i := 0; i < 5; i++ {
		ctl.sink("fw", sw, pipeline.Report{Args: []pipeline.Value{pipeline.B(32, uint64(i))}})
	}
	if live != 5 {
		t.Fatalf("OnReport fired %d times, want 5", live)
	}
	if got := len(ctl.ReportsFor("fw")); got != 0 {
		t.Fatalf("retention disabled but kept %d reports", got)
	}
}

// TestControllerSharesBus: a caller-provided bus receives the
// controller's digests (aggregates on Close via Flush), and the
// controller does not close a bus it does not own.
func TestControllerSharesBus(t *testing.T) {
	sim, ls, _ := buildFabric(t)
	sink := &reportbus.CollectExporter{}
	bus := reportbus.New(reportbus.Config{
		Clock:     func() int64 { return int64(sim.Now()) },
		Exporters: []reportbus.Exporter{sink},
	})
	ctl := NewControllerWith(Config{Bus: bus})
	if err := ctl.Deploy("fw", checkers.MustParse("stateful-firewall"), ls.AllSwitches()...); err != nil {
		t.Fatal(err)
	}
	h1, h2 := ls.Host(0, 0), ls.Host(1, 0)
	if err := ctl.PutDict("fw", 0, "allowed", []uint64{uint64(h1.IP), uint64(h2.IP)}, 1); err != nil {
		t.Fatal(err)
	}
	h1.SendUDP(h2.IP, 555, 80, 64)
	sim.RunAll()
	raised := len(ctl.ReportsFor("fw"))
	if raised == 0 {
		t.Fatal("expected firewall reports")
	}
	ctl.Close() // flushes, must not close the shared bus

	var total uint64
	for _, c := range sink.CountsByKey() {
		total += c
	}
	if total != uint64(raised) {
		t.Fatalf("bus aggregates sum to %d digests, controller saw %d", total, raised)
	}
	// The bus is still usable after the controller's Close.
	p := bus.InlineProducer("post")
	p.Publish(reportbus.DigestFrom("fw", 1, int64(sim.Now()), pipeline.Report{}))
	if m := bus.Metrics(); m.Unaccounted() < 0 {
		t.Fatalf("bus unusable after controller close: %+v", m)
	}
}
