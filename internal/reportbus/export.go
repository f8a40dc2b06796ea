package reportbus

import "sync"

// Exporter consumes each closed window's emitted aggregates. Batches
// arrive sorted by (checker, switch, argument words, args-hash), the
// live aggregates before the overflow buckets; calls may come from
// the collector goroutine and inline publishers concurrently, so
// implementations must be safe for concurrent use.
type Exporter interface {
	ExportAggregates(aggs []Aggregate)
}

// CollectExporter keeps every emitted aggregate in memory — the
// consumer for tests and short experiment runs.
type CollectExporter struct {
	mu   sync.Mutex
	aggs []Aggregate
}

// ExportAggregates implements Exporter.
func (e *CollectExporter) ExportAggregates(aggs []Aggregate) {
	e.mu.Lock()
	e.aggs = append(e.aggs, aggs...)
	e.mu.Unlock()
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
