package reportbus

import "sync"

// Exporter consumes each closed window's emitted aggregates. Batches
// arrive sorted by (checker, switch, argument words, args-hash), the
// live aggregates before the overflow buckets. A batch and its Args are
// lent: they are valid until ExportAggregates returns, and the bus fills
// the same storage again for a later window, so an exporter that keeps
// anything keeps a copy. Calls may come from the collector goroutine and
// inline publishers concurrently, so implementations must be safe for
// concurrent use.
type Exporter interface {
	ExportAggregates(aggs []Aggregate)
}

// CollectExporter keeps every emitted aggregate in memory — the
// consumer for tests and short experiment runs. It copies each batch,
// the Args into an arena of its own, each with no room past its words.
type CollectExporter struct {
	mu   sync.Mutex
	aggs []Aggregate
	args []uint64
}

// ExportAggregates implements Exporter.
func (e *CollectExporter) ExportAggregates(aggs []Aggregate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.args == nil {
		e.args = []uint64{}
	}
	for _, a := range aggs {
		if a.Args != nil {
			at := len(e.args)
			e.args = append(e.args, a.Args...)
			a.Args = e.args[at:len(e.args):len(e.args)]
		}
		e.aggs = append(e.aggs, a)
	}
}

// Aggregates returns a snapshot of everything collected so far.
func (e *CollectExporter) Aggregates() []Aggregate {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Aggregate(nil), e.aggs...)
}

// CountsByKey folds the collected aggregates into per-key digest
// totals — window- and deferral-independent, the deterministic view the
// conformance tests compare across shard counts.
func (e *CollectExporter) CountsByKey() map[Key]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Key]uint64, len(e.aggs))
	for i := range e.aggs {
		a := &e.aggs[i]
		out[Key{Checker: a.Checker, SwitchID: a.SwitchID, ArgsHash: a.ArgsHash}] += a.Count
	}
	return out
}
