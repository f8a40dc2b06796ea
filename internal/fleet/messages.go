// Package fleet is the multi-process verification topology: an ingest
// daemon reading mirrored frames from a capture, N engine worker
// processes each wrapping the batched bytecode engine, and a central
// aggregator federating every worker's report-bus output.
//
//	capture ──▶ hydra-ingestd ──(wireproto: packet batches)──▶ hydra-workerd ×N
//	                                                               │
//	                                      (wireproto: aggregates, summaries)
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
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/reportbus"
	"repro/internal/wireproto"
)

// Hello opens every fleet connection and names the dialling node.
type Hello struct {
	Node string `json:"node"`
}

// VerdictCount is one equivalence class of per-packet verdicts with
// its multiplicity — the unit of the fleet's parity check against the
// in-process engine.
type VerdictCount struct {
	Reject  bool   `json:"reject"`
	Reports int32  `json:"reports"`
	Count   uint64 `json:"count"`
}

// Summary is a worker's end-of-session ledger, sent after the engine
// drained and the bus closed: the engine's counts and the bus's
// metrics as their owners report them. The bus snapshot is taken under
// the bus mutex, so the aggregator can sum Bus.Unaccounted() across
// sessions and trust the fleet-wide ledger.
type Summary struct {
	Session uint64            `json:"session"`
	Node    string            `json:"node"`
	Counts  engine.Counts     `json:"counts"`
	Bus     reportbus.Metrics `json:"bus"`
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

// The dial schedule both uplinks default to: 40 attempts, 50 ms apart at
// first, the wait doubling up to 2 s.
const (
	defaultDialRetries = 40
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffMax  = 2 * time.Second
)

// dialBackoff dials addr over TCP until open accepts a connection, at
// most retries times, waiting base between the first two attempts and
// doubling the wait up to limit. A receive on stop ends a wait early.
// open owns a connection it accepts; one it rejects is closed. It
// returns the attempts made and, when none succeeded, the last error.
func dialBackoff(addr string, retries int, base, limit time.Duration, stop <-chan struct{}, open func(net.Conn) error) (attempts int, err error) {
	backoff := base
	for ; attempts < retries; attempts++ {
		if attempts > 0 {
			select {
			case <-time.After(backoff):
			case <-stop:
				return attempts, fmt.Errorf("stopped while backing off: %w", err)
			}
			backoff = min(2*backoff, limit)
		}
		conn, derr := net.Dial("tcp", addr)
		if derr != nil {
			err = derr
			continue
		}
		if err = open(conn); err == nil {
			return attempts + 1, nil
		}
		conn.Close()
	}
	return attempts, err
}
