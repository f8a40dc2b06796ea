package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// benchEngineBatch measures steady-state per-packet cost of the
// engine's execution loop at a given batch size, through
// Sequential.ProcessBatch. ns/op is nanoseconds per packet.
func benchEngineBatch(b *testing.B, batch int) {
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		b.Fatal(err)
	}
	seq := engine.NewSequential(engine.Config{Checkers: chks})
	pkts, pairs := experiments.CampusEnginePackets(4096, 7)
	if err := experiments.ConfigureReplayEngine(seq.Install, pairs); err != nil {
		b.Fatal(err)
	}
	seq.Warm()
	for lo := 0; lo < len(pkts); lo += batch {
		seq.ProcessBatch(pkts[lo:min(lo+batch, len(pkts))])
	}
	b.ReportAllocs()
	b.ResetTimer()
	lo := 0
	for i := 0; i < b.N; i += batch {
		hi := lo + batch
		if hi > len(pkts) {
			lo, hi = 0, batch
		}
		seq.ProcessBatch(pkts[lo:hi])
		lo = hi
	}
}

func BenchmarkEngineBatch1(b *testing.B)  { benchEngineBatch(b, 1) }
func BenchmarkEngineBatch16(b *testing.B) { benchEngineBatch(b, 16) }
func BenchmarkEngineBatch64(b *testing.B) { benchEngineBatch(b, 64) }
