// Package engine is a flow-sharded, batched execution engine for
// compiled Hydra checkers — the software substrate's answer to the
// Tofino pipeline's inherent parallelism. The hardware checks every
// packet at line rate because packets stream through parallel pipeline
// stages; a software substrate gets its parallelism from cores instead,
// so the engine fans packets out across N worker shards.
//
// The sharding model preserves checker semantics:
//
//   - Assignment is by RSS-style symmetric Toeplitz hash of the 5-tuple
//     (dataplane.FlowKey.RSSHash), so every packet of a flow — in both
//     directions — executes on the same shard, in submission order.
//   - Each shard owns a private replica of every checker's per-switch
//     state (tables and registers). Control tables are replicated via
//     Install, so table lookups read identical state on every shard;
//     per-flow sensor writes stay shard-local, so there is no
//     cross-shard register contention and no locking on the hot path
//     beyond the pipeline's own table mutexes.
//   - Telemetry-carried state needs no care at all: it lives in the
//     checker's telemetry slots for exactly one packet.
//
// Checkers whose verdicts depend only on packet-carried telemetry and
// per-flow control/sensor state therefore produce byte-identical
// verdict and report totals at any shard count. Cross-flow aggregations
// (the load-balance checker's port-load sensors) are maintained
// per-shard — like per-pipe registers on a multi-pipe Tofino — and only
// their threshold behavior can observe the split.
//
// Each shard holds the checkers as one bytecode.Stage — the linked
// image, its resident context and the header environment a checker
// reads, the same type a netsim switch holds — and supplies what a
// 5-tuple trace record knows: the flow fill per packet, the two ports
// and the switch's state row per hop. Every checker is in that image: New
// and NewSequential refuse one without a VM form, never link around it.
//
// Packets move through bounded batches with backpressure: Submit blocks
// when a shard's queue is full, and Drain flushes partial batches,
// waits for all workers, and merges per-shard counts into one
// deterministic total. Raised digests leave through Config.ReportBus.
package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// Checker is one compiled program the engine executes per packet, on
// the bytecode VM (RT.VM()). New and NewSequential panic on a runtime
// without a VM form (RT.VMErr()): it is refused where it is attached.
type Checker struct {
	Name string
	RT   *compiler.Runtime
}

// Hop is one switch traversal of a packet's path.
type Hop struct {
	SwitchID uint32
	InPort   uint16
	OutPort  uint16
}

// Packet is one unit of work: a flow-identified packet and the path it
// takes through the fabric. Hops may be shared between packets (the
// engine never mutates it).
type Packet struct {
	Key dataplane.FlowKey
	Len uint32
	// Index, when Config.Verdicts is set, selects the slot the packet's
	// verdict is recorded into; -1 (or any index outside Verdicts)
	// records nothing.
	Index int32
	Hops  []Hop
}

// Verdict is the per-packet outcome when Config.Verdicts is enabled.
type Verdict struct {
	Reject  bool
	Reports int32
}

// CheckerCounts aggregates one checker's outcomes across all shards.
type CheckerCounts struct {
	Name     string
	Rejected uint64
	Reports  uint64
}

// Counts is the merged aggregate outcome of a drained engine. For a
// fixed packet set, every field is deterministic and independent of
// shard count, batch size, and scheduling (see the package comment for
// the per-flow-state caveat).
type Counts struct {
	Packets   uint64
	Forwarded uint64
	Rejected  uint64
	Reports   uint64
	// Errors is always 0: every checker the engine holds executes (see
	// Checker). The field stays for the readers of a Counts.
	Errors     uint64
	PerChecker []CheckerCounts
}

// Add accumulates o into c. PerChecker rows add by position and keep
// c's names; a row only o has is appended under o's name.
func (c *Counts) Add(o Counts) {
	c.Packets += o.Packets
	c.Forwarded += o.Forwarded
	c.Rejected += o.Rejected
	c.Reports += o.Reports
	c.Errors += o.Errors
	for i, row := range o.PerChecker {
		if i == len(c.PerChecker) {
			c.PerChecker = append(c.PerChecker, CheckerCounts{Name: row.Name})
		}
		c.PerChecker[i].Rejected += row.Rejected
		c.PerChecker[i].Reports += row.Reports
	}
}

// Config sizes the engine.
type Config struct {
	// Shards is the worker count; <= 0 means GOMAXPROCS.
	Shards int
	// BatchSize is the packets per dispatch batch (default 64). Larger
	// batches amortize channel operations; smaller ones reduce latency.
	BatchSize int
	// QueueDepth is the batches buffered per shard before Submit blocks
	// (default 8) — the engine's backpressure bound.
	QueueDepth int
	// Checkers are executed in order at every hop.
	Checkers []Checker
	// Verdicts, when non-nil, records each packet's verdict at
	// Verdicts[Packet.Index]; an index outside the slice records nothing.
	Verdicts []Verdict
	// ReportBus, when set, receives every raised digest — the one way a
	// digest leaves the engine; without it only counts are kept. Each
	// shard owns one ring producer on the bus, so the hot path enqueues
	// without a shared lock and a full ring spills into the producer's
	// fold instead of blocking the worker. A consumer that wants
	// individual digests registers a bus Tap.
	ReportBus *reportbus.Bus
}

// Engine executes checkers over submitted packets on sharded workers.
type Engine struct {
	cfg    Config
	shards []*shard
	// pending accumulates each shard's next batch on the dispatcher
	// side; Submit is single-goroutine by contract (like a NIC's
	// dispatch stage).
	pending  [][]Packet
	batchLen int
	pool     sync.Pool
	wg       sync.WaitGroup
	drained  bool
}

// New builds an engine and starts its workers. It panics on a checker
// without a VM form.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	e := &Engine{
		cfg:      cfg,
		batchLen: cfg.BatchSize,
		pending:  make([][]Packet, cfg.Shards),
	}
	e.pool.New = func() any { return make([]Packet, 0, cfg.BatchSize) }
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(i, &cfg)
		e.shards = append(e.shards, s)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for batch := range s.in {
				s.exec(batch)
				e.pool.Put(batch[:0])
			}
		}()
	}
	return e
}

// Install applies fn to the named checker's state for switchID on every
// shard, creating the per-shard replica if needed. It must be called
// before packets that touch that state are submitted (control-plane
// installs during a run go through the pipeline table mutexes and are
// safe, but replica creation is not).
func (e *Engine) Install(checker string, switchID uint32, fn func(*pipeline.State) error) error {
	for _, s := range e.shards {
		if err := s.install(checker, switchID, fn); err != nil {
			return err
		}
	}
	return nil
}

func (s *shard) install(checker string, switchID uint32, fn func(*pipeline.State) error) error {
	idx := slices.IndexFunc(s.cfg.Checkers, func(c Checker) bool { return c.Name == checker })
	if idx < 0 {
		return fmt.Errorf("engine: unknown checker %q", checker)
	}
	if err := fn(s.row(switchID).st[idx]); err != nil {
		return fmt.Errorf("engine: installing into %s on switch %d (shard %d): %w", checker, switchID, s.id, err)
	}
	return nil
}

// Warm publishes the lock-free table read views of every state replica
// created so far (pipeline.State.Warm; O(1) a table). Call it after a
// batch of Installs and before submitting traffic, so the first packets
// don't take the table locks to publish on the data path.
func (e *Engine) Warm() {
	for _, s := range e.shards {
		s.warm()
	}
}

func (s *shard) warm() {
	for _, row := range s.rows {
		for _, st := range row.st {
			st.Warm()
		}
	}
}

// ShardOf returns the shard index a flow key maps to.
func (e *Engine) ShardOf(k dataplane.FlowKey) int {
	return int(k.RSSHash() % uint32(len(e.shards)))
}

// Submit hands one packet to its flow's shard, blocking for
// backpressure when the shard's queue is full. Submit is not safe for
// concurrent use — it is the dispatcher stage.
func (e *Engine) Submit(p Packet) {
	si := 0
	if len(e.shards) > 1 {
		si = e.ShardOf(p.Key)
	}
	if e.pending[si] == nil {
		e.pending[si] = e.pool.Get().([]Packet)[:0]
	}
	e.pending[si] = append(e.pending[si], p)
	if len(e.pending[si]) >= e.batchLen {
		e.shards[si].in <- e.pending[si]
		e.pending[si] = nil
	}
}

// Flush pushes all partially filled batches to their shards.
func (e *Engine) Flush() {
	for si, b := range e.pending {
		if len(b) > 0 {
			e.shards[si].in <- b
			e.pending[si] = nil
		}
	}
}

// Drain flushes partial batches, waits for every worker to finish its
// queue (graceful drain), and returns the merged counts. The engine
// cannot accept packets afterwards.
func (e *Engine) Drain() Counts {
	if e.drained {
		return e.counts()
	}
	e.drained = true
	e.Flush()
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()
	return e.counts()
}

func (e *Engine) counts() Counts { return mergeCounts(e.cfg.Checkers, e.shards...) }

func mergeCounts(chks []Checker, shards ...*shard) Counts {
	total := Counts{PerChecker: make([]CheckerCounts, len(chks))}
	for i, c := range chks {
		total.PerChecker[i].Name = c.Name
	}
	for _, s := range shards {
		c := s.counts
		c.PerChecker = s.perChecker
		total.Add(c)
	}
	return total
}

// ---------------------------------------------------------------------------
// Shard worker

// stateRow is every checker's state on one switch, in Config.Checkers
// order, and the shard's linked set bound to it.
type stateRow struct {
	id   uint32
	st   []*pipeline.State
	bind bytecode.Binding
}

type shard struct {
	id  int
	cfg *Config
	in  chan []Packet
	// rows holds this shard's state replicas, one row per switch. A
	// row, once created, is never replaced, and paths touch a handful
	// of switches, so the per-hop lookup is a short linear scan.
	rows []stateRow
	// st is the engine's checkers linked into one image on this shard's
	// resident context, each under its Config.Checkers index as Set index
	// (row position and report owner). FillFlow writes its header slots
	// once a packet, SetHeader the two ports at every hop.
	st         *bytecode.Stage
	counts     Counts
	perChecker []CheckerCounts
	// prod is this shard's ring producer on Config.ReportBus (nil when
	// no bus is attached).
	prod *reportbus.Producer
}

func newShard(id int, cfg *Config) *shard {
	members := make([]bytecode.Member, len(cfg.Checkers))
	for i, c := range cfg.Checkers {
		members[i] = c.RT.Member()
	}
	s := &shard{
		id:         id,
		cfg:        cfg,
		in:         make(chan []Packet, cfg.QueueDepth),
		st:         bytecode.Link(members...),
		perChecker: make([]CheckerCounts, len(cfg.Checkers)),
	}
	if cfg.ReportBus != nil {
		s.prod = cfg.ReportBus.RingProducer(fmt.Sprintf("engine-shard:%d", id))
	}
	return s
}

// row returns (creating on demand) this shard's replicas of every
// checker's state on the given switch. The pointer is good until the next
// row is created.
func (s *shard) row(switchID uint32) *stateRow {
	for i := range s.rows {
		if s.rows[i].id == switchID {
			return &s.rows[i]
		}
	}
	st := make([]*pipeline.State, len(s.cfg.Checkers))
	for i, c := range s.cfg.Checkers {
		st[i] = c.RT.Prog.NewState()
	}
	s.rows = append(s.rows, stateRow{id: switchID, st: st})
	return &s.rows[len(s.rows)-1]
}

// exec is the engine's one execution loop: sharded workers,
// Sequential.ProcessBatch and Sequential.Process all run it. Packets
// execute one after another, hop-major like a netsim switch: at each
// hop the linked set runs every checker's init (first hop), telemetry,
// and checker block (last hop, or every hop under RT.CheckEveryHop) on
// the shard's resident context, whose telemetry slots carry the
// packet's telemetry from hop to hop with no wire codec in between
// (byte-equivalent: every telemetry write is width-masked on store).
// A hop is one Stage.Run, its reports handed out by Stage.Reports. Once
// all checkers have run at a hop where any of them rejected, the packet
// halts there, so hops it never reached leave no register write and no
// report — wherever in the program the reject was raised.
func (s *shard) exec(batch []Packet) {
	st := s.st
	// The packet in flight: its hop's switch, its report count, and the
	// bus-clock reading its first report takes for all its digests (its
	// hops are checked back to back).
	var (
		sw       uint32
		reported int32
		at       int64
		stamped  bool
	)
	// raise counts and publishes checker k's digests of a pass.
	raise := func(k int, reps []pipeline.Report) {
		reported += int32(len(reps))
		s.perChecker[k].Reports += uint64(len(reps))
		if s.prod == nil {
			return
		}
		if !stamped {
			at, stamped = s.cfg.ReportBus.Now(), true
		}
		name := s.cfg.Checkers[k].Name
		for _, r := range reps {
			s.prod.Publish(reportbus.DigestFrom(name, sw, at, r))
		}
	}
	for pi := range batch {
		p := &batch[pi]
		s.counts.Packets++
		hops := p.Hops
		if len(s.cfg.Checkers) == 0 {
			hops = nil // nothing to run: no hop does any work
		}
		st.FillFlow(p.Key)
		st.Set.BeginTrace(st.Ctx)
		reported, stamped = 0, false
		var rejects uint64
		for h := 0; h < len(hops) && rejects == 0; h++ {
			hop := &hops[h]
			first, last := h == 0, h == len(hops)-1
			st.SetHeader(bytecode.HInPort, uint64(uint8(hop.InPort)))
			st.SetHeader(bytecode.HEgPort, uint64(uint8(hop.OutPort)))
			r := s.row(hop.SwitchID)
			st.Row, st.Bind = r.st, &r.bind
			rejects = st.Run(hop.SwitchID, int(p.Len), first, last, bytecode.HopBlocks(first, last))
			sw = hop.SwitchID
			st.Reports(raise)
		}
		for m := rejects; m != 0; m &= m - 1 {
			s.perChecker[bits.TrailingZeros64(m)].Rejected++
		}
		s.counts.Reports += uint64(reported)
		if rejects != 0 {
			s.counts.Rejected++
		} else {
			s.counts.Forwarded++
		}
		if uint(p.Index) < uint(len(s.cfg.Verdicts)) {
			s.cfg.Verdicts[p.Index] = Verdict{Reject: rejects != 0, Reports: reported}
		}
	}
}
