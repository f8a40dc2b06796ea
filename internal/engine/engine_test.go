package engine_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dataplane"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/reportbus"
)

// violationWorkload builds packets over a few flows whose paths violate
// checkers: egress through non-allow-listed port 13 (egress-validity
// reject + report, multi-tenancy reject) and a leaf-only path that
// skips the waypoint (waypointing, routing-validity, valley-free
// rejects). The stateful firewall is left unseeded, so every packet
// also trips it.
func violationWorkload(n int) []engine.Packet {
	badEgress := []engine.Hop{
		{SwitchID: 1, InPort: 3, OutPort: 1},
		{SwitchID: 3, InPort: 1, OutPort: 2},
		{SwitchID: 2, InPort: 1, OutPort: 13},
	}
	noWaypoint := []engine.Hop{
		{SwitchID: 2, InPort: 3, OutPort: 3},
	}
	pkts := make([]engine.Packet, n)
	for i := range pkts {
		key := dataplane.FlowKey{
			Src:   dataplane.IP4(0xac100000 + uint32(i%5)),
			Dst:   dataplane.IP4(0xac110000 + uint32(i%7)),
			Proto: dataplane.ProtoUDP,
			Sport: uint16(40000 + i%5), Dport: uint16(2000 + i%3),
		}
		hops := badEgress
		if i%2 == 1 {
			hops = noWaypoint
		}
		pkts[i] = engine.Packet{Key: key, Len: 512, Hops: hops, Index: int32(i)}
	}
	return pkts
}

// reportKey is one digest as the oracle raises it: provenance and every
// argument word.
type reportKey struct {
	checker  string
	switchID uint32
	args     string
}

func keyOf(checker string, switchID uint32, args []uint64) reportKey {
	k := reportKey{checker: checker, switchID: switchID}
	for _, a := range args {
		k.args += fmt.Sprintf("%d,", a)
	}
	return k
}

// digestKeys returns the keys of published digests, in order. A
// truncated digest lost argument words a key would compare, so it fails
// the test.
func digestKeys(t *testing.T, ds []reportbus.Digest) []reportKey {
	t.Helper()
	var out []reportKey
	for _, d := range ds {
		if d.Truncated {
			t.Fatalf("digest %+v is truncated", d)
		}
		out = append(out, keyOf(d.Checker, d.SwitchID, d.Args[:d.NArgs]))
	}
	return out
}

// sortedReports returns the keys sorted, for comparing multisets.
func sortedReports(keys []reportKey) []reportKey {
	out := slices.Clone(keys)
	slices.SortFunc(out, func(a, b reportKey) int {
		return cmp.Or(cmp.Compare(a.checker, b.checker), cmp.Compare(a.switchID, b.switchID), cmp.Compare(a.args, b.args))
	})
	return out
}

// reportTap is a report bus on a frozen clock whose tap keeps every
// digest in delivery order: the way a test reads what an engine raised.
type reportTap struct {
	bus *reportbus.Bus
	got []reportbus.Digest
}

// newReportTap sizes every ring for ringSize digests; a run that raises
// more on one shard between two reads spills, losing those digests'
// words, and digests fails then.
func newReportTap(ringSize int) *reportTap {
	r := &reportTap{bus: reportbus.New(reportbus.Config{RingSize: ringSize, Clock: func() int64 { return 0 }})}
	r.bus.Tap(func(d reportbus.Digest) { r.got = append(r.got, d) })
	return r
}

// digests flushes the rings and returns every digest tapped so far.
func (r *reportTap) digests(t *testing.T) []reportbus.Digest {
	t.Helper()
	r.bus.Flush()
	if m := r.bus.Metrics(); m.Spilled != 0 {
		t.Fatalf("report bus spilled %d of %d digests", m.Spilled, m.Published)
	}
	return r.got
}

// TestPacketSize pins the work unit at 48 bytes: Index sits beside Len,
// so neither carries padding, and a campus replay's 196 608 packets are
// 9.4 MB, not the 11.0 MB of a 56-byte Packet.
func TestPacketSize(t *testing.T) {
	if s := unsafe.Sizeof(engine.Packet{}); s != 48 {
		t.Fatalf("engine.Packet is %d bytes, want 48", s)
	}
}

// TestEngineBackpressure squeezes a large submission through tiny
// batches and a depth-1 queue, so Submit must block on shard
// backpressure; graceful drain must still account for every packet.
func TestEngineBackpressure(t *testing.T) {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 2, BatchSize: 4, QueueDepth: 1, Checkers: chks})
	if err := experiments.ConfigureReplayEngine(eng.Install, nil); err != nil {
		t.Fatal(err)
	}
	pkts, _ := experiments.CampusEnginePackets(5000, 3)
	for i := range pkts {
		eng.Submit(pkts[i])
	}
	counts := eng.Drain()
	if counts.Packets != 5000 || counts.Forwarded+counts.Rejected != 5000 {
		t.Fatalf("drain lost packets: %+v", counts)
	}
	// Drain is idempotent.
	if again := eng.Drain(); !reflect.DeepEqual(again, counts) {
		t.Fatalf("second Drain returned different counts: %+v vs %+v", again, counts)
	}
}

// TestCountsAdd: totals add, per-checker rows add by position and keep
// the receiver's names, and a zero Counts takes the rows it lacks.
func TestCountsAdd(t *testing.T) {
	a := engine.Counts{Packets: 3, Forwarded: 2, Rejected: 1, Reports: 4, Errors: 1,
		PerChecker: []engine.CheckerCounts{{Name: "fw", Rejected: 1, Reports: 3}, {Name: "lb", Reports: 1}}}
	b := engine.Counts{Packets: 5, Forwarded: 5, Reports: 2,
		PerChecker: []engine.CheckerCounts{{Name: "other", Reports: 2}, {Name: "lb"}}}
	var sum engine.Counts
	sum.Add(a)
	sum.Add(b)
	want := engine.Counts{Packets: 8, Forwarded: 7, Rejected: 1, Reports: 6, Errors: 1,
		PerChecker: []engine.CheckerCounts{{Name: "fw", Rejected: 1, Reports: 5}, {Name: "lb", Reports: 1}}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("sum = %+v, want %+v", sum, want)
	}
	if a.PerChecker[0].Reports != 3 {
		t.Fatal("Add wrote through to an operand's rows")
	}
}

// TestShardAffinity: both directions of a flow must land on one shard
// (the stateful firewall correlates them), and the spread across shards
// must be genuine.
func TestShardAffinity(t *testing.T) {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 8, Checkers: chks[:1]})
	defer eng.Drain()
	used := map[int]int{}
	for i := 0; i < 512; i++ {
		k := dataplane.FlowKey{
			Src:   dataplane.IP4(0x0a000000 + uint32(i*2654435761)),
			Dst:   dataplane.IP4(0x0a800000 + uint32(i*40503)),
			Proto: dataplane.ProtoTCP,
			Sport: uint16(1024 + i), Dport: 443,
		}
		rev := dataplane.FlowKey{Src: k.Dst, Dst: k.Src, Proto: k.Proto, Sport: k.Dport, Dport: k.Sport}
		if eng.ShardOf(k) != eng.ShardOf(rev) {
			t.Fatalf("flow %+v and its reverse map to shards %d and %d", k, eng.ShardOf(k), eng.ShardOf(rev))
		}
		used[eng.ShardOf(k)]++
	}
	if len(used) < 6 {
		t.Fatalf("512 flows landed on only %d of 8 shards: %v", len(used), used)
	}
}

// TestInstallUnknownChecker: installs against a checker the engine
// doesn't run must fail loudly on both executors.
func TestInstallUnknownChecker(t *testing.T) {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 1, Checkers: chks[:1]})
	defer eng.Drain()
	if err := eng.Install("no-such-checker", 1, nil); err == nil {
		t.Error("engine Install accepted an unknown checker")
	}
	seq := engine.NewSequential(engine.Config{Checkers: chks[:1]})
	if err := seq.Install("no-such-checker", 1, nil); err == nil {
		t.Error("sequential Install accepted an unknown checker")
	}
}

// TestConcurrentInstallDuringRun hammers a running engine's tables from
// a control-plane goroutine while the workers process packets: after
// the initial configuration has created every per-shard state replica,
// Install calls go through the pipeline table mutexes and are safe
// concurrently with packet processing (engine.Install's contract). The
// extra firewall pairs allow flows that never appear in the trace, so
// verdicts are unaffected; the test is the race detector's target and a
// liveness check that installs can't wedge the dispatch path.
func TestConcurrentInstallDuringRun(t *testing.T) {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 2, BatchSize: 16, Checkers: chks})
	pkts, pairs := experiments.CampusEnginePackets(6000, 11)
	if err := experiments.ConfigureReplayEngine(eng.Install, pairs); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pair := [][2]uint32{{0xc0a80000 + uint32(i), 0xc0a90000 + uint32(i)}}
			for _, sw := range []uint32{1, 2, 3, 4} {
				if err := eng.Install("stateful-firewall", sw, experiments.FirewallSeed(pair)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for i := range pkts {
		eng.Submit(pkts[i])
	}
	close(stop)
	<-done
	counts := eng.Drain()
	if counts.Packets != uint64(len(pkts)) || counts.Errors != 0 {
		t.Fatalf("processed %d packets with %d errors, want %d and 0",
			counts.Packets, counts.Errors, len(pkts))
	}
	if counts.Forwarded != counts.Packets {
		t.Fatalf("concurrent installs changed verdicts: forwarded %d of %d; per-checker: %+v",
			counts.Forwarded, counts.Packets, counts.PerChecker)
	}
}

// TestEngineReportBusDeterministicAggregation wires the engine's shard
// producers to a report bus and requires the aggregated view to be
// shard-count independent: at 1, 4 and 8 shards, the per-key digest
// counts are identical and every raised digest is accounted. The clock
// is frozen so the whole run is one window (Close force-emits it) and
// the rings are sized so nothing drops — under those conditions
// aggregation is deterministic regardless of drain interleaving.
func TestEngineReportBusDeterministicAggregation(t *testing.T) {
	const n = 900
	pkts := violationWorkload(n)

	run := func(shards int) (engine.Counts, map[reportbus.Key]uint64, reportbus.Metrics) {
		chks, err := experiments.CorpusCheckers()
		if err != nil {
			t.Fatal(err)
		}
		sink := &reportbus.CollectExporter{}
		bus := reportbus.New(reportbus.Config{
			RingSize:  1 << 16,
			MaxKeys:   1 << 16,
			Clock:     func() int64 { return 0 },
			Exporters: []reportbus.Exporter{sink},
		})
		eng := engine.New(engine.Config{Shards: shards, Checkers: chks, BatchSize: 16, ReportBus: bus})
		if err := experiments.ConfigureReplayEngine(eng.Install, nil); err != nil {
			t.Fatal(err)
		}
		for i := range pkts {
			eng.Submit(pkts[i])
		}
		counts := eng.Drain()
		bus.Close()
		return counts, sink.CountsByKey(), bus.Metrics()
	}

	wantCounts, wantKeys, wantM := run(1)
	if wantCounts.Reports == 0 {
		t.Fatal("violation workload raised no reports")
	}
	if wantM.Spilled != 0 {
		t.Fatalf("rings spilled %d digests despite oversizing", wantM.Spilled)
	}
	if wantM.Published != wantCounts.Reports {
		t.Fatalf("bus published %d digests, engine raised %d", wantM.Published, wantCounts.Reports)
	}
	if wantM.Unaccounted() != 0 {
		t.Fatalf("unaccounted digests: %d", wantM.Unaccounted())
	}
	var exported uint64
	for _, c := range wantKeys {
		exported += c
	}
	if exported != wantCounts.Reports {
		t.Fatalf("aggregates sum to %d digests, engine raised %d", exported, wantCounts.Reports)
	}

	for _, shards := range []int{4, 8} {
		gotCounts, gotKeys, gotM := run(shards)
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Errorf("shards=%d: engine counts diverge\n got %+v\nwant %+v", shards, gotCounts, wantCounts)
		}
		if gotM.Spilled != 0 || gotM.Unaccounted() != 0 {
			t.Errorf("shards=%d: spilled=%d unaccounted=%d", shards, gotM.Spilled, gotM.Unaccounted())
		}
		if len(gotM.Producers) != shards {
			t.Errorf("shards=%d: %d ring producers registered", shards, len(gotM.Producers))
		}
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			t.Errorf("shards=%d: per-key aggregate counts diverge from single-shard run (%d vs %d keys)",
				shards, len(gotKeys), len(wantKeys))
		}
	}
}
