package reportbus

import (
	"encoding/json"
	"io"
	"sync"
)

// Exporter consumes each closed window's emitted aggregates. Batches
// arrive sorted by (checker, switch, argument words, args-hash), the
// live aggregates before the overflow buckets; calls may come from
// the collector goroutine and inline publishers concurrently, so
// implementations must be safe for concurrent use.
type Exporter interface {
	ExportAggregates(aggs []Aggregate)
}

// JSONLExporter streams one JSON object per aggregate to a writer —
// the bus's durable sink. Lines are self-contained, so the stream can
// be tailed, cut, and replayed with standard tooling.
type JSONLExporter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
	n   uint64
}

// NewJSONL builds a JSONL exporter over w.
func NewJSONL(w io.Writer) *JSONLExporter {
	return &JSONLExporter{w: w}
}

// ExportAggregates implements Exporter.
func (e *JSONLExporter) ExportAggregates(aggs []Aggregate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	for i := range aggs {
		data, err := json.Marshal(&aggs[i])
		if err != nil {
			e.err = err
			return
		}
		if _, err := e.w.Write(append(data, '\n')); err != nil {
			e.err = err
			return
		}
		e.n++
	}
}

// Err returns the first write or marshal error; the exporter stops
// exporting after one (the bus never blocks on a broken sink).
func (e *JSONLExporter) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Lines returns how many aggregates were written.
func (e *JSONLExporter) Lines() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
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
