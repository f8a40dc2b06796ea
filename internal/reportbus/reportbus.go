// Package reportbus is the violation-digest pipeline between the data
// plane and its consumers: the software analogue of the Tofino digest
// channel the paper's checkers raise reports through (§2's "report"
// action). On hardware the channel is scarce and rate-limited; a
// checker that fires on every packet becomes a report storm that can
// swamp the collector long before it swamps forwarding. The bus makes
// that failure mode survivable by construction:
//
//   - Sharded ingest: each producer (engine shard, netsim switch, or
//     any single-threaded source) publishes fixed-size Digest values
//     into its own bounded SPSC ring — no shared lock, no allocation on
//     the hot path. Single-threaded embedders (the netsim event loop,
//     the control plane) use inline producers, which fold each digest
//     under the bus mutex, trading the ring for synchronous delivery;
//     a digest that finds its ring full is folded the same way, words
//     and all, so no digest is dropped or loses its words.
//   - Windowed aggregation: a collector drains the rings and coalesces
//     digests keyed by (checker, switch, args-hash) into counted
//     aggregates with first/last timestamps, so a million identical
//     violations become one record with count=1e6. The table is flat and
//     allocated once: aggregates are values with their argument words
//     inline, found through an open-addressing index, so folding a
//     digest allocates nothing; a closing window sorts compact integer
//     keys into a batch the bus lends to its exporters and fills again
//     for a later window, so closing one allocates nothing either. The
//     clock is pluggable: wall time for live engines, netsim virtual
//     time for simulations.
//   - Storm control: per-checker token buckets bound the aggregate
//     emission rate, mirroring the digest-channel budget. A rate-limited
//     aggregate is never dropped — it is carried into the next window
//     (counts merged, Deferred incremented) and eventually emitted, so
//     emitted counts always sum to exactly the number of digests raised.
//   - Bounded memory: the live aggregate table is capped; beyond the
//     cap, new keys fold into one per-(checker, switch) overflow bucket
//     that keeps counts (but not args), so collector memory is bounded
//     by configuration, not by traffic.
//
// Consumers attach per-window Exporters (in-memory collection, the
// fleet worker's uplink), which are lent each batch until they return,
// and per-digest taps (Bus.Tap) that see every digest once before
// aggregation — the path a reactive control-plane app reads reports by.
package reportbus

import (
	"encoding/binary"
	"hash/maphash"
	"time"

	"repro/internal/pipeline"
)

// MaxArgs is the number of digest argument words carried inline. A
// Digest is a fixed-size value so ring slots and aggregation never
// allocate; reports with more arguments keep the first MaxArgs words
// (the aggregation hash still covers all of them, so truncated digests
// with different tails aggregate separately).
const MaxArgs = 6

// Digest is one violation report in bus form: fixed-size, value-typed
// provenance plus arguments. Checker strings are shared references to
// the deployment's checker names, so copying a Digest never allocates.
type Digest struct {
	Checker  string
	SwitchID uint32
	// At is the raise timestamp in the bus clock's nanoseconds (wall or
	// netsim virtual time, per Config.Clock).
	At int64
	// NArgs is the argument count (capped at MaxArgs; Truncated marks
	// digests that lost tail words).
	NArgs     uint8
	Truncated bool
	Args      [MaxArgs]uint64
	// ArgsHash covers every original argument word, including words
	// beyond MaxArgs.
	ArgsHash uint64
}

// argsSeed makes the digest hash stable within a process but not a
// wire-format promise.
var argsSeed = maphash.MakeSeed()

// DigestFrom converts a raised pipeline report into a Digest.
func DigestFrom(checker string, switchID uint32, at int64, rep pipeline.Report) Digest {
	d := Digest{Checker: checker, SwitchID: switchID, At: at}
	if len(rep.Args) <= MaxArgs {
		// Hot path: hash from a stack buffer in one call, no Hash state.
		var buf [8 * MaxArgs]byte
		for i, a := range rep.Args {
			d.Args[i] = a.V
			binary.LittleEndian.PutUint64(buf[8*i:], a.V)
		}
		d.NArgs = uint8(len(rep.Args))
		d.ArgsHash = maphash.Bytes(argsSeed, buf[:8*len(rep.Args)])
		return d
	}
	var h maphash.Hash
	h.SetSeed(argsSeed)
	var w [8]byte
	for i, a := range rep.Args {
		if i < MaxArgs {
			d.Args[i] = a.V
		}
		binary.LittleEndian.PutUint64(w[:], a.V)
		h.Write(w[:])
	}
	d.NArgs, d.Truncated = MaxArgs, true
	d.ArgsHash = h.Sum64()
	return d
}

// Key identifies one aggregate: same checker, same switch, same
// argument values (by hash).
type Key struct {
	Checker  string
	SwitchID uint32
	ArgsHash uint64
}

// Aggregate is one coalesced violation record: Count digests with
// identical keys, bracketed by first/last raise timestamps.
type Aggregate struct {
	Checker  string   `json:"checker"`
	SwitchID uint32   `json:"switch_id"`
	ArgsHash uint64   `json:"args_hash"`
	Args     []uint64 `json:"args,omitempty"`
	Count    uint64   `json:"count"`
	FirstAt  int64    `json:"first_at"`
	LastAt   int64    `json:"last_at"`
	// Deferred counts the windows storm control held this aggregate
	// back before it was emitted (0 = emitted in its own window).
	Deferred uint32 `json:"deferred,omitempty"`
	// Overflow marks a per-(checker, switch) bucket that absorbed
	// digests after the live-key budget was exhausted; it carries exact
	// counts but no argument values.
	Overflow bool `json:"overflow,omitempty"`
}

// Config sizes and parameterizes a Bus. The zero value is usable: wall
// clock, 10ms windows, 4096-slot rings, no storm budget, 4096 live keys.
type Config struct {
	// Window is the aggregation window in bus-clock nanoseconds
	// (time.Duration for wall clocks, netsim.Time cast for virtual).
	// Default 10ms.
	Window time.Duration
	// Clock supplies timestamps and window boundaries; default wall
	// clock. With an inline-only bus this may read single-threaded state
	// (e.g. netsim.Simulator.Now); with ring producers and Start it must
	// be safe to call from the collector goroutine.
	Clock func() int64
	// RingSize is the per-producer ring capacity, rounded up to a power
	// of two. Default 4096.
	RingSize int
	// Rate is the per-checker storm budget in aggregate emissions per
	// bus-clock second; 0 means unlimited (no storm control).
	Rate float64
	// Burst is the token-bucket depth; default 8.
	Burst int
	// MaxKeys caps the live aggregate table (current window plus
	// storm-deferred carryover). Beyond it, new keys fold into overflow
	// buckets. Default 4096.
	MaxKeys int
	// Exporters receive each closed window's emitted aggregates, sorted
	// by (checker, switch, argument words, args-hash), lent until the
	// call returns (see Exporter). Called outside the bus mutex.
	Exporters []Exporter
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.MaxKeys <= 0 {
		c.MaxKeys = 4096
	}
	return c
}
