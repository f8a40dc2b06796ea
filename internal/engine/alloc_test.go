package engine_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// TestEngineAllocs is the engine's hot-path allocation budget: after
// warm-up (per-switch states created, report arenas grown), checking a
// campus packet — all 12 corpus checkers across every hop of its path —
// allocates nothing, however the execution loop is driven. The bus row
// adds the armed storm probe, so every hop also
// raises a digest and publishes it into the shard's ring (an unstarted
// bus: the ring fills and then drops, with no collector goroutine to
// blur the count).
func TestEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; budget is meaningless under -race")
	}
	pkts, pairs := experiments.CampusEnginePackets(512, 5)
	for _, tc := range []struct {
		name  string
		batch int // 0: Sequential.Process
		bus   bool
	}{
		{"Process", 0, false},
		{"ProcessBatch1", 1, false},
		{"ProcessBatch16", 16, false},
		{"ProcessBatch64", 64, false},
		{"ProcessBatch64+bus", 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{Checkers: corpus(t)}
			if tc.bus {
				probe := compileSrc(t, "storm-probe", experiments.StormCheckerSrc)
				cfg.Checkers = append(cfg.Checkers, engine.Checker{Name: "storm-probe", RT: &compiler.Runtime{Prog: probe}})
				cfg.ReportBus = reportbus.New(reportbus.Config{})
			}
			seq := engine.NewSequential(cfg)
			if err := experiments.ConfigureReplayEngine(seq.Install, pairs); err != nil {
				t.Fatal(err)
			}
			if tc.bus {
				for _, sw := range experiments.ReplaySwitchInfos() {
					err := seq.Install("storm-probe", sw.ID, func(st *pipeline.State) error {
						return st.Tables["armed"].Insert(pipeline.Entry{Action: []pipeline.Value{pipeline.B(8, 1)}})
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			seq.Warm()

			lo := 0
			step := func() {
				if tc.batch == 0 {
					seq.Process(pkts[lo])
					lo = (lo + 1) % len(pkts)
					return
				}
				seq.ProcessBatch(pkts[lo : lo+tc.batch])
				lo = (lo + tc.batch) % len(pkts)
			}
			for seq.Counts().Packets < uint64(len(pkts)) {
				step()
			}
			if n := testing.AllocsPerRun(100, step); n != 0 {
				t.Errorf("steady state: %.2f allocs per call of %d packet(s), want 0", n, max(tc.batch, 1))
			}
			if tc.bus && seq.Counts().Reports == 0 {
				t.Error("bus row raised no digests")
			}
		})
	}
}
