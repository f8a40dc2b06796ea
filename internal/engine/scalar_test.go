package engine_test

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// scalarWrite stores v into the keyless table name of every state it is
// handed.
func scalarWrite(name string, w int, v uint64) func(*pipeline.State) error {
	return func(st *pipeline.State) error {
		return st.Tables[name].Insert(pipeline.Entry{Action: []pipeline.Value{pipeline.B(w, v)}})
	}
}

// everySwitch applies fn, built per switch, to checker's state on every
// replay switch.
func everySwitch(in installFn, checker string, fn func(sw experiments.SwitchInfo) func(*pipeline.State) error) error {
	for _, sw := range experiments.ReplaySwitchInfos() {
		if err := in(checker, sw.ID, fn(sw)); err != nil {
			return err
		}
	}
	return nil
}

// scalarSteps are the writes a controller can make to a scalar control
// between two packets, each on every switch: Insert, Delete back to the
// default, Clear, CopyFrom another table. For a campus packet through
// spine 4 each one flips the verdict — waypoint 3 or 0 is off its path,
// and a switch that is no leaf fails routing-validity — and the one after
// it flips it back.
var scalarSteps = []struct {
	name, checker string
	fn            func(sw experiments.SwitchInfo) func(*pipeline.State) error
}{
	{"insert waypoint_id 3", "waypointing", func(experiments.SwitchInfo) func(*pipeline.State) error { return scalarWrite("waypoint_id", 32, 3) }},
	{"insert waypoint_id 1", "waypointing", func(experiments.SwitchInfo) func(*pipeline.State) error { return scalarWrite("waypoint_id", 32, 1) }},
	{"delete waypoint_id", "waypointing", func(experiments.SwitchInfo) func(*pipeline.State) error {
		return func(st *pipeline.State) error { st.Tables["waypoint_id"].Delete(nil); return nil }
	}},
	{"insert waypoint_id 1", "waypointing", func(experiments.SwitchInfo) func(*pipeline.State) error { return scalarWrite("waypoint_id", 32, 1) }},
	{"clear waypoint_id", "waypointing", func(experiments.SwitchInfo) func(*pipeline.State) error {
		return func(st *pipeline.State) error { st.Tables["waypoint_id"].Clear(); return nil }
	}},
	{"insert waypoint_id 1", "waypointing", func(experiments.SwitchInfo) func(*pipeline.State) error { return scalarWrite("waypoint_id", 32, 1) }},
	{"copy is_leaf false", "routing-validity", func(experiments.SwitchInfo) func(*pipeline.State) error { return copyScalar("is_leaf", 1, 0) }},
	{"copy is_leaf back", "routing-validity", func(sw experiments.SwitchInfo) func(*pipeline.State) error {
		leaf := uint64(0)
		if sw.IsLeaf {
			leaf = 1
		}
		return copyScalar("is_leaf", 1, leaf)
	}},
}

// copyScalar makes the keyless table name adopt a fresh table of its shape
// holding v.
func copyScalar(name string, w int, v uint64) func(*pipeline.State) error {
	return func(st *pipeline.State) error {
		t := st.Tables[name]
		donor := pipeline.NewTable(t.Name, t.Keys, t.Outputs, t.Default)
		if err := scalarWrite(name, w, v)(&pipeline.State{Tables: map[string]*pipeline.Table{name: donor}}); err != nil {
			return err
		}
		return t.CopyFrom(donor)
	}
}

// TestScalarInstallVisibleAtNextPacket replays one campus flow through
// spine 4 through Sequential and a two-shard Engine and makes each of
// scalarSteps' writes between two of its packets: the very next packet's
// verdict and report count must be the oracle's (the map reference on
// states given the same writes), and each write must change it. The
// engine's row bindings outlive every write, so a snapshot the epoch did
// not drop, or a binding re-resolved against the wrong row, shows here.
func TestScalarInstallVisibleAtNextPacket(t *testing.T) {
	campus, pairs := experiments.CampusEnginePackets(3000, 9)
	i := slices.IndexFunc(campus, func(p engine.Packet) bool { return p.Hops[1].SwitchID == 4 })
	if i < 0 {
		t.Fatal("no campus packet crosses spine 4")
	}
	pkt := campus[i]
	chks := corpus(t)
	n := len(scalarSteps) + 1
	want := newOracle(t, chks, n)
	if err := configurePlain(want.Install, pairs); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if k > 0 {
			st := scalarSteps[k-1]
			if err := everySwitch(want.Install, st.checker, st.fn); err != nil {
				t.Fatal(err)
			}
		}
		pkt.Index = int32(k)
		want.process(&pkt)
		if k > 0 && want.verdicts[k] == want.verdicts[k-1] {
			t.Fatalf("%s: vacuous, the oracle's verdict stayed %+v", scalarSteps[k-1].name, want.verdicts[k])
		}
	}

	for _, shards := range []int{0, 2} {
		verdicts := make([]engine.Verdict, n)
		cfg := engine.Config{Shards: shards, BatchSize: 1, QueueDepth: 1, Checkers: chks, Verdicts: verdicts}
		var (
			install installFn
			send    func(p engine.Packet)
			done    func()
		)
		if shards == 0 {
			seq := engine.NewSequential(cfg)
			install, send, done = seq.Install, seq.Process, func() {}
		} else {
			eng := engine.New(cfg)
			install, done = eng.Install, func() { eng.Drain() }
			// Two empty packets of the flow behind each one: the second is
			// taken off the depth-1 queue only once the shard has finished
			// the packet, so the next write lands between two packets.
			fence := engine.Packet{Key: pkt.Key, Index: -1}
			send = func(p engine.Packet) {
				eng.Submit(p)
				eng.Submit(fence)
				eng.Submit(fence)
			}
		}
		if err := experiments.ConfigureReplayEngine(install, pairs); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if k > 0 {
				st := scalarSteps[k-1]
				if err := everySwitch(install, st.checker, st.fn); err != nil {
					t.Fatal(err)
				}
			}
			pkt.Index = int32(k)
			send(pkt)
			if verdicts[k] != want.verdicts[k] {
				step := "before any write"
				if k > 0 {
					step = "after " + scalarSteps[k-1].name
				}
				t.Errorf("shards=%d, %s: verdict %+v, oracle %+v", shards, step, verdicts[k], want.verdicts[k])
			}
		}
		done()
	}
}

// TestScalarToggleDuringReplay toggles leaf 2's is_leaf through
// Engine.Install while a two-shard engine replays the campus mix. Leaf 2
// is every packet's last hop, where routing-validity reads is_leaf once,
// so each verdict must be the oracle's under one of the two values; run
// under -race, the bindings' re-reads race the control plane's writes.
// The submitting goroutine toggles before every toggleEvery-th packet,
// twice the packets the engine can hold submitted and unfinished (per
// shard: QueueDepth batches queued, one executing, one filling). So a
// toggle lands while the shards execute the packets before it, and at
// least half of every run of packets executes under that run's value
// alone, whatever the scheduler does.
func TestScalarToggleDuringReplay(t *testing.T) {
	const shards, batch, depth = 2, 16, 4
	const toggleEvery = 2 * shards * (depth + 2) * batch
	pkts, pairs := experiments.CampusEnginePackets(3000, 9)
	chks := corpus(t)
	legal := [2][]engine.Verdict{}
	for v := range legal {
		o := newOracle(t, chks, len(pkts))
		if err := configurePlain(o.Install, pairs); err != nil {
			t.Fatal(err)
		}
		if err := o.Install("routing-validity", 2, scalarWrite("is_leaf", 1, uint64(v))); err != nil {
			t.Fatal(err)
		}
		for i := range pkts {
			o.process(&pkts[i])
		}
		legal[v] = o.verdicts
	}

	verdicts := make([]engine.Verdict, len(pkts))
	eng := engine.New(engine.Config{Shards: shards, BatchSize: batch, QueueDepth: depth, Checkers: chks, Verdicts: verdicts})
	if err := experiments.ConfigureReplayEngine(eng.Install, pairs); err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if i%toggleEvery == 0 {
			if err := eng.Install("routing-validity", 2, scalarWrite("is_leaf", 1, uint64(i/toggleEvery%2))); err != nil {
				t.Fatal(err)
			}
		}
		eng.Submit(pkts[i])
	}
	eng.Drain()

	// Every campus packet's verdict tells the two values apart, and at
	// least half of each run of toggleEvery packets saw its run's value.
	var seen, floor [2]int
	for i, v := range verdicts {
		switch {
		case legal[0][i] == legal[1][i]:
			t.Fatalf("packet %d: is_leaf does not decide the verdict %+v", i, v)
		case v == legal[0][i]:
			seen[0]++
		case v == legal[1][i]:
			seen[1]++
		default:
			t.Fatalf("packet %d: verdict %+v, legal %+v or %+v", i, v, legal[0][i], legal[1][i])
		}
	}
	for start := 0; start < len(pkts); start += toggleEvery {
		floor[start/toggleEvery%2] += max(0, min(toggleEvery, len(pkts)-start)-toggleEvery/2)
	}
	if seen[0] < floor[0] || seen[1] < floor[1] {
		t.Errorf("%d packets saw is_leaf 0 and %d saw 1, want at least %d and %d", seen[0], seen[1], floor[0], floor[1])
	}
}
