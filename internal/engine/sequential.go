package engine

import (
	"repro/internal/bytecode"
	"repro/internal/pipeline"
)

// Sequential is the inline single-shard driver: it runs the execution
// loop of the sharded workers (shard.exec) on the caller's goroutine
// against a single (unsharded) state set, with no dispatch queues
// around it. The fleet worker and the benchmark run their packets
// through it. It is not a reference semantics — the engine's oracle is
// the map-interpreter replay in oracle_test.go.
type Sequential struct {
	cfg Config
	s   *shard
	// one backs Process's batch of one.
	one [1]Packet
}

// NewSequential builds the single-state executor. Shards, BatchSize and
// QueueDepth in cfg are ignored; like New, it panics on a checker without
// a VM form.
func NewSequential(cfg Config) *Sequential {
	cfg.Shards = 1
	return &Sequential{cfg: cfg, s: newShard(0, &cfg)}
}

// Install applies fn to the named checker's state for switchID.
func (q *Sequential) Install(checker string, switchID uint32, fn func(*pipeline.State) error) error {
	return q.s.install(checker, switchID, fn)
}

// Warm eagerly rebuilds the lock-free table snapshots of every state
// replica created so far (see Engine.Warm).
func (q *Sequential) Warm() { q.s.warm() }

// Process runs all checkers over one packet: a batch of one.
func (q *Sequential) Process(p Packet) {
	q.one[0] = p
	q.s.exec(q.one[:])
}

// ProcessBatch runs all checkers over a batch of packets, one packet
// after another.
func (q *Sequential) ProcessBatch(pkts []Packet) { q.s.exec(pkts) }

// Counts returns the aggregate outcome so far.
func (q *Sequential) Counts() Counts { return mergeCounts(q.cfg.Checkers, q.s) }

// VMContext returns the linked checker set and the resident context it
// runs on. This exists for the arena-aliasing suite, which deliberately
// poisons the context between batches to prove no scratch value
// survives into the next packet's outcome.
func (q *Sequential) VMContext() (*bytecode.Set, *bytecode.Ctx) { return q.s.st.Set, q.s.st.Ctx }
