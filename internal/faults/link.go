package faults

import (
	"math/rand"

	"repro/internal/netsim"
)

// LinkFaultConfig selects which wire-level fault classes an injector
// applies and at what intensity. A zero rate disables a class entirely:
// it draws nothing from the RNG, so enabling one class never shifts the
// random stream of another.
type LinkFaultConfig struct {
	// DropRate is the per-frame probability of wire loss.
	DropRate float64
	// CorruptRate is the per-frame probability of a single-bit flip at a
	// random offset past the Ethernet header (the first 14 bytes are
	// spared so the frame still reaches the victim's parser, as a
	// payload CRC failure would on real gear that forwards anyway).
	CorruptRate float64
	// DupRate is the per-frame probability of delivering a second copy
	// DupDelay after the original.
	DupRate  float64
	DupDelay netsim.Time
	// ReorderRate is the per-frame probability of delaying the frame by
	// a uniform jitter in (0, ReorderJitter], letting later frames
	// overtake it.
	ReorderRate   float64
	ReorderJitter netsim.Time
	// FlapPeriod/FlapDown describe a deterministic link-flap schedule:
	// the link is down (all frames lost) during the first FlapDown of
	// every FlapPeriod, starting at time zero. Both must be positive for
	// flapping to engage.
	FlapPeriod netsim.Time
	FlapDown   netsim.Time
}

// LinkFaults is a seeded netsim.LinkFault implementing the wire-level
// fault classes. It is not safe for concurrent use: it runs on the
// simulator's event loop.
type LinkFaults struct {
	cfg LinkFaultConfig
	rng *rand.Rand

	// Per-class event counters, for scenario accounting and tests.
	Dropped     uint64
	Corrupted   uint64
	Duplicated  uint64
	Reordered   uint64
	FlapDropped uint64
}

// NewLinkFaults builds an injector with its own RNG stream. Attach it
// with link.Fault = f.
func NewLinkFaults(seed int64, cfg LinkFaultConfig) *LinkFaults {
	return &LinkFaults{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Apply implements netsim.LinkFault. The flap schedule is checked
// first (it is time-driven, not random); the probabilistic classes
// then draw in a fixed order — drop, corrupt, duplicate, reorder —
// each guarded by its rate so disabled classes consume no draws.
func (f *LinkFaults) Apply(now netsim.Time, fromA bool, buf []byte) netsim.FaultAction {
	var act netsim.FaultAction
	if f.cfg.FlapPeriod > 0 && f.cfg.FlapDown > 0 && now%f.cfg.FlapPeriod < f.cfg.FlapDown {
		f.FlapDropped++
		act.Drop = true
		return act
	}
	if f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate {
		f.Dropped++
		act.Drop = true
		return act
	}
	if f.cfg.CorruptRate > 0 && f.rng.Float64() < f.cfg.CorruptRate && len(buf) > 15 {
		off := 14 + f.rng.Intn(len(buf)-14)
		buf[off] ^= 1 << uint(f.rng.Intn(8))
		f.Corrupted++
	}
	if f.cfg.DupRate > 0 && f.rng.Float64() < f.cfg.DupRate {
		f.Duplicated++
		act.Duplicate = true
		act.DupDelay = f.cfg.DupDelay
	}
	if f.cfg.ReorderRate > 0 && f.cfg.ReorderJitter > 0 && f.rng.Float64() < f.cfg.ReorderRate {
		f.Reordered++
		act.ExtraDelay = netsim.Time(1 + f.rng.Int63n(int64(f.cfg.ReorderJitter)))
	}
	return act
}
