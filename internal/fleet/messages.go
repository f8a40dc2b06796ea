// Package fleet is the multi-process verification topology: an ingest
// daemon reading mirrored frames from a capture, N engine worker
// processes each wrapping the batched bytecode engine, and a central
// aggregator federating every worker's report-bus output.
//
//	capture ──▶ hydra-ingestd ──(wireproto: packet batches)──▶ hydra-workerd ×N
//	                                                               │
//	                                      (wireproto: aggregates, stats, summaries)
//	                                                               ▼
//	                                                          hydra-aggd
//
// The package implements the daemons as libraries (Ingest, Worker,
// Agg) so the same code runs in-process under `go test`, wrapped by
// thin cmd/ binaries, and spawned via exec by the `hydra-bench -fleet`
// harness.
package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/engine"
	"repro/internal/reportbus"
	"repro/internal/wireproto"
)

// Hello opens every fleet connection.
type Hello struct {
	Role string `json:"role"` // "ingest" or "worker"
	Node string `json:"node"`
	// Session distinguishes incarnations of the same worker across
	// crash/restart cycles; the aggregator ledgers per session.
	Session uint64 `json:"session,omitempty"`
	PID     int    `json:"pid,omitempty"`
}

// VerdictCount is one equivalence class of per-packet verdicts with
// its multiplicity — the unit of the fleet's parity check against the
// in-process engine.
type VerdictCount struct {
	Reject  bool   `json:"reject"`
	Reports int32  `json:"reports"`
	Count   uint64 `json:"count"`
}

// EngineCounts mirrors engine.Counts in wire form.
type EngineCounts struct {
	Packets   uint64 `json:"packets"`
	Forwarded uint64 `json:"forwarded"`
	Rejected  uint64 `json:"rejected"`
	Reports   uint64 `json:"reports"`
	Errors    uint64 `json:"errors"`
}

func countsFromEngine(c engine.Counts) EngineCounts {
	return EngineCounts{
		Packets:   c.Packets,
		Forwarded: c.Forwarded,
		Rejected:  c.Rejected,
		Reports:   c.Reports,
		Errors:    c.Errors,
	}
}

// Add accumulates o into c.
func (c *EngineCounts) Add(o EngineCounts) {
	c.Packets += o.Packets
	c.Forwarded += o.Forwarded
	c.Rejected += o.Rejected
	c.Reports += o.Reports
	c.Errors += o.Errors
}

// BusCounts is a worker report-bus snapshot in wire form. Every
// snapshot is internally consistent (taken under the bus mutex), so
// the aggregator can sum Unaccounted across sessions and trust the
// fleet-wide ledger.
type BusCounts struct {
	Published      uint64 `json:"published"`
	Dropped        uint64 `json:"dropped"`
	EmittedDigests uint64 `json:"emitted_digests"`
	LiveDigests    uint64 `json:"live_digests"`
	Unaccounted    int64  `json:"unaccounted"`
}

func busCountsFrom(m reportbus.Metrics) BusCounts {
	return BusCounts{
		Published:      m.Published,
		Dropped:        m.Dropped,
		EmittedDigests: m.EmittedDigests,
		LiveDigests:    m.LiveDigests,
		Unaccounted:    m.Unaccounted(),
	}
}

// Stats is a worker's periodic snapshot: how much it has processed and
// where its digests stand. Mid-run, Unaccounted counts digests queued
// in ingest rings (published, not yet collected) — it returns to 0 at
// every bus flush and stays 0 in the final Summary.
type Stats struct {
	Session uint64       `json:"session"`
	Node    string       `json:"node"`
	Counts  EngineCounts `json:"counts"`
	Bus     BusCounts    `json:"bus"`
}

// Summary is a worker's end-of-session ledger, sent after the engine
// drained and the bus closed.
type Summary struct {
	Session uint64       `json:"session"`
	Node    string       `json:"node"`
	Counts  EngineCounts `json:"counts"`
	Bus     BusCounts    `json:"bus"`
	// Verdicts is the per-packet verdict multiset, sorted by (reject,
	// reports).
	Verdicts []VerdictCount `json:"verdicts"`
	// Clean is false when the session ended by a broken ingest
	// connection rather than an orderly Fin.
	Clean bool `json:"clean"`
}

// AggBatch federates one closed report-bus window upstream.
type AggBatch struct {
	Session uint64                `json:"session"`
	Aggs    []reportbus.Aggregate `json:"aggs"`
}

// FinAck confirms a drained worker back to the ingest daemon.
type FinAck struct {
	Processed uint64 `json:"processed"`
}

// writeJSON marshals msg and frames it as typ.
func writeJSON(w *wireproto.Writer, typ byte, msg any) error {
	data, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("fleet: marshaling frame type %d: %w", typ, err)
	}
	return w.WriteFrame(typ, data)
}

// decodeJSON unmarshals a frame payload into msg.
func decodeJSON(f *wireproto.Frame, msg any) error {
	if err := json.Unmarshal(f.Payload, msg); err != nil {
		return fmt.Errorf("fleet: decoding frame type %d: %w", f.Type, err)
	}
	return nil
}
