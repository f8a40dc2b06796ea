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
//   - Telemetry-carried state needs no care at all: it rides in the
//     per-packet blob exactly as on the wire.
//
// Checkers whose verdicts depend only on packet-carried telemetry and
// per-flow control/sensor state therefore produce byte-identical
// verdict and report totals at any shard count. Cross-flow aggregations
// (the load-balance checker's port-load sensors) are maintained
// per-shard — like per-pipe registers on a multi-pipe Tofino — and only
// their threshold behavior can observe the split.
//
// Packets move through bounded batches with backpressure: Submit blocks
// when a shard's queue is full, and Drain flushes partial batches,
// waits for all workers, and merges per-shard results into one
// deterministic verdict/report stream.
package engine

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// Checker is one compiled program the engine executes per packet.
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
	Key  dataplane.FlowKey
	Len  uint32
	Hops []Hop
	// Index, when Config.Verdicts is set, selects the slot the packet's
	// verdict is recorded into; -1 records nothing.
	Index int32
}

// Verdict is the per-packet outcome when Config.Verdicts is enabled.
type Verdict struct {
	Reject  bool
	Reports int32
}

// Report is one digest raised during engine execution, tagged with its
// provenance.
type Report struct {
	Checker  string
	SwitchID uint32
	Args     []uint64
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
	// Errors counts checker executions that failed; like the netsim
	// switch, an execution error never halts the packet.
	Errors     uint64
	PerChecker []CheckerCounts
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
	// Verdicts[Packet.Index].
	Verdicts []Verdict
	// KeepReports retains full report digests (returned by Reports).
	// Off, only counts are kept — the right choice for replay
	// benchmarks where reports would accumulate unboundedly.
	KeepReports bool
	// ReportBus, when set, receives every raised digest: each shard owns
	// one ring producer on the bus, so the hot path enqueues without a
	// shared lock and a full ring drops (with accounting) instead of
	// blocking the worker. Composable with KeepReports.
	ReportBus *reportbus.Bus
	// NoBatch disables the batched (checker-major) execution path,
	// forcing hop-major per-packet execution through Checker.RT.RunHop
	// (the VM on a pooled context, telemetry codec per hop). The engine
	// also falls back automatically when a checker has no bytecode
	// form, checks every hop, or can reject mid-trace.
	NoBatch bool
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

// New builds an engine and starts its workers.
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
			s.run(&e.pool)
		}()
	}
	return e
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Install applies fn to the named checker's state for switchID on every
// shard, creating the per-shard replica if needed. It must be called
// before packets that touch that state are submitted (control-plane
// installs during a run go through the pipeline table mutexes and are
// safe, but replica creation is not).
func (e *Engine) Install(checker string, switchID uint32, fn func(*pipeline.State) error) error {
	idx := -1
	for i, c := range e.cfg.Checkers {
		if c.Name == checker {
			idx = i
			break
		}
	}
	if idx < 0 {
		return errUnknownChecker(checker)
	}
	for _, s := range e.shards {
		if err := fn(s.state(idx, switchID)); err != nil {
			return fmt.Errorf("engine: installing into %s on switch %d (shard %d): %w", checker, switchID, s.id, err)
		}
	}
	return nil
}

// Warm eagerly rebuilds the lock-free table snapshots of every state
// replica created so far (pipeline.State.Warm). Call it after a batch
// of Installs and before submitting traffic, so the first packets don't
// pay the O(n) snapshot rebuilds on the data path.
func (e *Engine) Warm() {
	for _, s := range e.shards {
		s.warm()
	}
}

func (s *shard) warm() {
	for _, states := range s.states {
		for _, st := range states {
			st.Warm()
		}
	}
}

func errUnknownChecker(name string) error {
	return fmt.Errorf("engine: unknown checker %q", name)
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

func (e *Engine) counts() Counts {
	total := Counts{PerChecker: make([]CheckerCounts, len(e.cfg.Checkers))}
	for i, c := range e.cfg.Checkers {
		total.PerChecker[i].Name = c.Name
	}
	for _, s := range e.shards {
		total.Packets += s.counts.Packets
		total.Forwarded += s.counts.Forwarded
		total.Rejected += s.counts.Rejected
		total.Reports += s.counts.Reports
		total.Errors += s.counts.Errors
		for i := range total.PerChecker {
			total.PerChecker[i].Rejected += s.perChecker[i].Rejected
			total.PerChecker[i].Reports += s.perChecker[i].Reports
		}
	}
	return total
}

// Reports returns the merged report stream of a drained engine
// (requires Config.KeepReports). The merge is deterministic: shard
// order, and submission order within a shard.
func (e *Engine) Reports() []Report {
	if !e.drained {
		panic("engine: Reports before Drain")
	}
	var out []Report
	for _, s := range e.shards {
		out = append(out, s.reports...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shard worker

// Header-binding paths the engine can provide, indexed by the hdr*
// constants below. Per-checker bind plans map these dense indices to
// HopEnv.SlotHeaders positions once at construction, so the per-packet
// path writes a fixed value array — no map, no string hashing.
const (
	hdrInPort = iota // per-hop
	hdrEgPort        // per-hop
	hdrSkipFwd
	hdrIPv4Valid
	hdrIPv4Src
	hdrIPv4Dst
	hdrIPv4Proto
	hdrTCPValid
	hdrTCPSport
	hdrTCPDport
	hdrUDPValid
	hdrUDPSport
	hdrUDPDport
	// Headers a 5-tuple trace record can never carry, bound invalid to
	// match netsim.BindPacketHeaders for a plain (untunneled, unrouted)
	// packet.
	hdrInnerIPv4Valid
	hdrInnerTCPValid
	hdrInnerUDPValid
	hdrSrcRoute0Valid

	numStdHdrs
)

var stdHdrPaths = [numStdHdrs]string{
	hdrInPort:         "standard_metadata.ingress_port",
	hdrEgPort:         "standard_metadata.egress_port",
	hdrSkipFwd:        "fabric_metadata.skip_forwarding",
	hdrIPv4Valid:      "hdr.ipv4.$valid$",
	hdrIPv4Src:        "hdr.ipv4.src_addr",
	hdrIPv4Dst:        "hdr.ipv4.dst_addr",
	hdrIPv4Proto:      "hdr.ipv4.protocol",
	hdrTCPValid:       "hdr.tcp.$valid$",
	hdrTCPSport:       "hdr.tcp.sport",
	hdrTCPDport:       "hdr.tcp.dport",
	hdrUDPValid:       "hdr.udp.$valid$",
	hdrUDPSport:       "hdr.udp.sport",
	hdrUDPDport:       "hdr.udp.dport",
	hdrInnerIPv4Valid: "hdr.inner_ipv4.$valid$",
	hdrInnerTCPValid:  "hdr.inner_tcp.$valid$",
	hdrInnerUDPValid:  "hdr.inner_udp.$valid$",
	hdrSrcRoute0Valid: "hdr.srcRoutes[0].$valid$",
}

// bindPair routes one engine-provided header value (hvals[src]) to one
// checker's SlotHeaders[dst].
type bindPair struct{ src, dst int }

type shard struct {
	id     int
	cfg    *Config
	in     chan []Packet
	states []map[uint32]*pipeline.State
	// hvals holds this packet/hop's engine-provided header values;
	// binds[i] scatters them into slotHeaders[i], which is laid out per
	// Checkers[i].RT.Bindings(). Binding paths the engine cannot supply
	// stay zero-width (absent), like a missing map key before.
	hvals       [numStdHdrs]pipeline.Value
	binds       [][]bindPair
	slotHeaders [][]pipeline.Value
	blobs       [][]byte
	counts      Counts
	perChecker  []CheckerCounts
	reports     []Report
	// prod is this shard's ring producer on Config.ReportBus (nil when
	// no bus is attached).
	prod *reportbus.Producer

	// Batched bytecode-VM execution state (see batch.go). batchVM is
	// true when every checker qualifies; the vm* slices then hold one
	// compiled program, one persistent context, and one direct PHV
	// scatter plan per checker.
	batchVM bool
	vmProgs []*bytecode.Prog
	vmCtxs  []*bytecode.Ctx
	vmBinds [][]bindPair
	// hot is a per-checker linear-scan cache over states: traces touch
	// a handful of switches, so a 2-3 entry scan beats a map hash per
	// checker-hop.
	hot [][]swEnt
	// Per-batch scratch, grown to the batch length.
	hvBuf  [][numStdHdrs]pipeline.Value
	rejBuf []bool
	repBuf []int32
}

// swEnt is one entry of the shard's hot state cache.
type swEnt struct {
	id uint32
	st *pipeline.State
}

func newShard(id int, cfg *Config) *shard {
	s := &shard{
		id:          id,
		cfg:         cfg,
		in:          make(chan []Packet, cfg.QueueDepth),
		states:      make([]map[uint32]*pipeline.State, len(cfg.Checkers)),
		binds:       make([][]bindPair, len(cfg.Checkers)),
		slotHeaders: make([][]pipeline.Value, len(cfg.Checkers)),
		blobs:       make([][]byte, len(cfg.Checkers)),
		perChecker:  make([]CheckerCounts, len(cfg.Checkers)),
	}
	for i := range s.states {
		s.states[i] = map[uint32]*pipeline.State{}
	}
	if cfg.ReportBus != nil {
		s.prod = cfg.ReportBus.RingProducer(fmt.Sprintf("engine-shard:%d", id))
	}
	for i, c := range cfg.Checkers {
		bindings := c.RT.Bindings()
		s.slotHeaders[i] = make([]pipeline.Value, len(bindings))
		for dst, path := range bindings {
			for src, p := range stdHdrPaths {
				if p == path {
					s.binds[i] = append(s.binds[i], bindPair{src: src, dst: dst})
					break
				}
			}
		}
	}
	s.setupBatch()
	return s
}

// state returns (creating on demand) this shard's replica of checker
// i's state on the given switch.
func (s *shard) state(i int, switchID uint32) *pipeline.State {
	st, ok := s.states[i][switchID]
	if !ok {
		st = s.cfg.Checkers[i].RT.Prog.NewState()
		s.states[i][switchID] = st
	}
	return st
}

func (s *shard) run(pool *sync.Pool) {
	for batch := range s.in {
		if s.batchVM {
			s.processBatch(batch)
		} else {
			for i := range batch {
				s.process(&batch[i])
			}
		}
		pool.Put(batch[:0])
	}
}

// bindBase sets the packet-constant header bindings (the subset of
// netsim.BindPacketHeaders derivable from a 5-tuple trace record).
func (s *shard) bindBase(p *Packet) {
	fillHvals(p, &s.hvals)
}

func fillHvals(p *Packet, h *[numStdHdrs]pipeline.Value) {
	isIPv4 := p.Key != (dataplane.FlowKey{})
	h[hdrIPv4Valid] = pipeline.BoolV(isIPv4)
	h[hdrIPv4Src] = pipeline.B(32, uint64(p.Key.Src))
	h[hdrIPv4Dst] = pipeline.B(32, uint64(p.Key.Dst))
	h[hdrIPv4Proto] = pipeline.B(8, uint64(p.Key.Proto))
	isTCP := p.Key.Proto == dataplane.ProtoTCP
	isUDP := p.Key.Proto == dataplane.ProtoUDP
	h[hdrTCPValid] = pipeline.BoolV(isTCP)
	h[hdrUDPValid] = pipeline.BoolV(isUDP)
	sport, dport := pipeline.B(16, uint64(p.Key.Sport)), pipeline.B(16, uint64(p.Key.Dport))
	if isTCP {
		h[hdrTCPSport], h[hdrTCPDport] = sport, dport
	} else {
		h[hdrTCPSport], h[hdrTCPDport] = pipeline.B(16, 0), pipeline.B(16, 0)
	}
	if isUDP {
		h[hdrUDPSport], h[hdrUDPDport] = sport, dport
	} else {
		h[hdrUDPSport], h[hdrUDPDport] = pipeline.B(16, 0), pipeline.B(16, 0)
	}
	h[hdrSkipFwd] = pipeline.BoolV(false)
	h[hdrInnerIPv4Valid] = pipeline.BoolV(false)
	h[hdrInnerTCPValid] = pipeline.BoolV(false)
	h[hdrInnerUDPValid] = pipeline.BoolV(false)
	h[hdrSrcRoute0Valid] = pipeline.BoolV(false)
}

// process runs every checker over the packet's path, hop-major like the
// netsim switch: at each hop all checkers execute; a reject halts the
// packet at that hop.
func (s *shard) process(p *Packet) {
	s.counts.Packets++
	s.bindBase(p)
	for i := range s.blobs {
		// Truncate, keeping capacity: the first hop decodes an empty
		// blob, and ReuseBlob re-encodes into the same storage.
		s.blobs[i] = s.blobs[i][:0]
	}
	reject := false
	var nReports int32
	for h := range p.Hops {
		hop := &p.Hops[h]
		first, last := h == 0, h == len(p.Hops)-1
		s.hvals[hdrInPort] = pipeline.B(8, uint64(hop.InPort))
		s.hvals[hdrEgPort] = pipeline.B(8, uint64(hop.OutPort))
		for i := range s.cfg.Checkers {
			c := &s.cfg.Checkers[i]
			sh := s.slotHeaders[i]
			for _, bp := range s.binds[i] {
				sh[bp.dst] = s.hvals[bp.src]
			}
			env := compiler.HopEnv{
				State:       s.state(i, hop.SwitchID),
				SwitchID:    hop.SwitchID,
				SlotHeaders: sh,
				PacketLen:   p.Len,
				ReuseBlob:   true,
			}
			hr, err := c.RT.RunHop(s.blobs[i], env, first, last)
			if err != nil {
				s.counts.Errors++
				continue
			}
			s.blobs[i] = hr.Blob
			if n := len(hr.Reports); n > 0 {
				s.counts.Reports += uint64(n)
				s.perChecker[i].Reports += uint64(n)
				nReports += int32(n)
				if s.prod != nil {
					at := s.cfg.ReportBus.Now()
					for _, rep := range hr.Reports {
						s.prod.Publish(reportbus.DigestFrom(c.Name, hop.SwitchID, at, rep))
					}
				}
				if s.cfg.KeepReports {
					for _, rep := range hr.Reports {
						args := make([]uint64, len(rep.Args))
						for j, a := range rep.Args {
							args[j] = a.V
						}
						s.reports = append(s.reports, Report{
							Checker:  c.Name,
							SwitchID: hop.SwitchID,
							Args:     args,
						})
					}
				}
			}
			if hr.Reject {
				reject = true
				s.perChecker[i].Rejected++
			}
		}
		if reject {
			break
		}
	}
	if reject {
		s.counts.Rejected++
	} else {
		s.counts.Forwarded++
	}
	if s.cfg.Verdicts != nil && p.Index >= 0 {
		s.cfg.Verdicts[p.Index] = Verdict{Reject: reject, Reports: nReports}
	}
}
