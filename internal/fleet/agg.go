package fleet

import (
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/reportbus"
	"repro/internal/wireproto"
)

// AggConfig parameterizes the aggregator daemon.
type AggConfig struct {
	// Node names this aggregator.
	Node string
	// Metrics, when set, receives the aggregator instrumentation.
	Metrics *metrics.Registry
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// AggKeyOf is the cross-process aggregate identity: checker, switch,
// and the argument words themselves. reportbus.Key hashes args with a
// per-process seed, so merging windows from different worker processes
// — or comparing a fleet run against an in-process reference — must
// key on content, not hash.
func AggKeyOf(a *reportbus.Aggregate) string {
	var b strings.Builder
	b.WriteString(a.Checker)
	fmt.Fprintf(&b, "|%d", a.SwitchID)
	if a.Overflow {
		b.WriteString("|overflow")
		return b.String()
	}
	for _, arg := range a.Args {
		fmt.Fprintf(&b, "|%d", arg)
	}
	return b.String()
}

// sessionLedger tracks one worker session's federated state.
type sessionLedger struct {
	node     string
	received uint64 // digests received via AggBatch windows
	summary  *Summary
}

// Agg is the aggregation daemon: it merges every worker's windowed
// aggregates into one fleet-wide violation table and ledgers
// per-session conservation from the workers' summaries.
type Agg struct {
	cfg AggConfig

	mu        sync.Mutex
	aggs      map[string]*reportbus.Aggregate
	sessions  map[uint64]*sessionLedger
	summaries int
	received  uint64
	// arrived is closed, and replaced, when a summary is recorded: a
	// waiter blocks on the channel it read beside summaries.
	arrived chan struct{}

	mDigests   *metrics.Counter
	mBatches   *metrics.Counter
	mSummaries *metrics.Counter
}

// NewAgg builds the daemon.
func NewAgg(cfg AggConfig) *Agg {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	a := &Agg{
		cfg:      cfg,
		aggs:     map[string]*reportbus.Aggregate{},
		sessions: map[uint64]*sessionLedger{},
		arrived:  make(chan struct{}),
	}
	reg := cfg.Metrics
	a.mDigests = reg.Counter("hydra_agg_digests_total", "Digests received inside aggregate windows.", nil)
	a.mBatches = reg.Counter("hydra_agg_windows_total", "Aggregate windows received from workers.", nil)
	a.mSummaries = reg.Counter("hydra_agg_summaries_total", "Session summaries received.", nil)
	reg.GaugeFunc("hydra_agg_sessions", "Worker sessions seen.", nil, func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(len(a.sessions))
	})
	reg.GaugeFunc("hydra_agg_live_aggregates", "Distinct violation keys in the merged table.", nil, func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(len(a.aggs))
	})
	return a
}

// Serve accepts worker uplinks until the listener closes. Each uplink
// runs on its own goroutine; frames within an uplink are processed in
// order, so a session's final windows always land before its Summary.
func (a *Agg) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func(c net.Conn) {
			defer c.Close()
			if err := a.handle(c); err != nil {
				a.cfg.Logf("agg: uplink from %s ended: %v", c.RemoteAddr(), err)
			}
		}(conn)
	}
}

func (a *Agg) handle(conn net.Conn) error {
	r := wireproto.NewReader(conn)
	node := conn.RemoteAddr().String()
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			// The normal end of a worker process.
			return nil
		}
		if err != nil {
			return err
		}
		switch f.Type {
		case wireproto.TypeHello:
			var h Hello
			if err := decodeJSON(&f, &h); err == nil && h.Node != "" {
				node = h.Node
			}
		case wireproto.TypeAggBatch:
			var batch AggBatch
			if err := decodeJSON(&f, &batch); err != nil {
				f.Release()
				return err
			}
			a.merge(node, &batch)
		case wireproto.TypeSummary:
			var sum Summary
			if err := decodeJSON(&f, &sum); err != nil {
				f.Release()
				return err
			}
			a.record(&sum)
			a.mSummaries.Inc()
			a.cfg.Logf("agg: summary from %s session %d: %d packets, unaccounted %d, clean %t",
				sum.Node, sum.Session, sum.Counts.Packets, sum.Bus.Unaccounted(), sum.Clean)
		}
		f.Release()
	}
}

// record files a session's summary in its ledger and wakes the waiters
// when it is the session's first.
func (a *Agg) record(sum *Summary) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.sessions[sum.Session]
	if l == nil {
		l = &sessionLedger{}
		a.sessions[sum.Session] = l
	}
	if sum.Node != "" {
		l.node = sum.Node
	}
	if l.summary == nil {
		a.summaries++
		close(a.arrived)
		a.arrived = make(chan struct{})
	}
	l.summary = sum
}

// merge folds one federated window into the fleet table.
func (a *Agg) merge(node string, batch *AggBatch) {
	var digests uint64
	a.mu.Lock()
	l := a.sessions[batch.Session]
	if l == nil {
		l = &sessionLedger{node: node}
		a.sessions[batch.Session] = l
	}
	for i := range batch.Aggs {
		in := &batch.Aggs[i]
		key := AggKeyOf(in)
		if cur, ok := a.aggs[key]; ok {
			cur.Count += in.Count
			if in.FirstAt < cur.FirstAt {
				cur.FirstAt = in.FirstAt
			}
			if in.LastAt > cur.LastAt {
				cur.LastAt = in.LastAt
			}
			cur.Deferred += in.Deferred
		} else {
			cp := *in
			cp.Args = append([]uint64(nil), in.Args...)
			a.aggs[key] = &cp
		}
		digests += in.Count
	}
	l.received += digests
	a.received += digests
	a.mu.Unlock()
	a.mDigests.Add(digests)
	a.mBatches.Inc()
}

// Summaries reports how many session summaries have arrived.
func (a *Agg) Summaries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.summaries
}

// WaitSummaries blocks until n session summaries arrived or the
// timeout elapsed; a timeout <= 0 checks once. It wakes as each summary
// is recorded.
func (a *Agg) WaitSummaries(n int, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		got, arrived := a.summaries, a.arrived
		a.mu.Unlock()
		if got >= n {
			return true
		}
		if timeout <= 0 {
			return false
		}
		select {
		case <-arrived:
		case <-deadline.C:
			return false
		}
	}
}

// FleetReport is the aggregator's final fleet-wide view.
type FleetReport struct {
	// Sessions counts every session the aggregator heard from;
	// CleanSessions those whose summary reported an orderly Fin. A
	// killed worker's sessions appear in Sessions but never summarize.
	Sessions      int `json:"sessions"`
	Summarized    int `json:"summarized"`
	CleanSessions int `json:"clean_sessions"`
	// Summaries are the per-session ledgers, sorted by node then session.
	Summaries []Summary `json:"summaries"`
	// Counts sums engine counts over all summarized sessions; Verdicts
	// merges the verdict multisets of clean sessions (the parity view).
	Counts   engine.Counts  `json:"counts"`
	Verdicts []VerdictCount `json:"verdicts"`
	// Aggregates is the merged fleet-wide violation table, sorted by
	// content key.
	Aggregates []reportbus.Aggregate `json:"aggregates"`
	// Conservation: every summarized session must satisfy
	// Bus.Unaccounted() == 0 (nothing lost inside the worker) and its
	// received digest count must equal its emitted count (nothing lost
	// on the wire). Unaccounted sums the per-session residuals;
	// Conserved is the fleet-wide verdict.
	ReceivedDigests    uint64            `json:"received_digests"`
	SummarizedEmitted  uint64            `json:"summarized_emitted"`
	SummarizedReceived uint64            `json:"summarized_received"`
	ReceivedBySession  map[uint64]uint64 `json:"received_by_session,omitempty"`
	Unaccounted        int64             `json:"unaccounted"`
	Conserved          bool              `json:"conserved"`
}

// Report snapshots the fleet-wide view.
func (a *Agg) Report() FleetReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := FleetReport{
		Sessions:          len(a.sessions),
		ReceivedDigests:   a.received,
		ReceivedBySession: map[uint64]uint64{},
		Conserved:         true,
	}
	var cleanSets [][]VerdictCount
	ids := make([]uint64, 0, len(a.sessions))
	for id := range a.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		li, lj := a.sessions[ids[i]], a.sessions[ids[j]]
		if li.node != lj.node {
			return li.node < lj.node
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		l := a.sessions[id]
		rep.ReceivedBySession[id] = l.received
		if l.summary == nil {
			continue
		}
		s := *l.summary
		rep.Summarized++
		rep.Summaries = append(rep.Summaries, s)
		rep.Counts.Add(s.Counts)
		rep.SummarizedEmitted += s.Bus.EmittedDigests
		rep.SummarizedReceived += l.received
		unaccounted := s.Bus.Unaccounted()
		rep.Unaccounted += unaccounted
		if unaccounted != 0 || l.received != s.Bus.EmittedDigests {
			rep.Conserved = false
		}
		if s.Clean {
			rep.CleanSessions++
			cleanSets = append(cleanSets, s.Verdicts)
		}
	}
	rep.Verdicts = MergeVerdictCounts(cleanSets...)
	keys := make([]string, 0, len(a.aggs))
	for k := range a.aggs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.Aggregates = append(rep.Aggregates, *a.aggs[k])
	}
	if len(rep.ReceivedBySession) == 0 {
		rep.ReceivedBySession = nil
	}
	return rep
}
