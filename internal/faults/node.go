package faults

import (
	"math/rand"

	"repro/internal/dataplane"
	"repro/internal/netsim"
)

// NodeFaultConfig selects the node-level fault classes for one switch.
// As with links, a zero rate disables a class without touching the RNG.
type NodeFaultConfig struct {
	// MisrouteRate is the per-packet probability of overriding the
	// forwarding decision with MisroutePort — a stale or corrupted
	// next-hop entry sending traffic the wrong way.
	MisrouteRate float64
	MisroutePort int
	// TeleRewriteRate is the per-packet probability of a rogue rewrite:
	// the switch zeroes the packet's Hydra telemetry blob in place
	// (shape preserved), modeling a compromised or buggy node scrubbing
	// the evidence upstream hops recorded.
	TeleRewriteRate float64
	// CrashAt/CrashUntil define a crash window [CrashAt, CrashUntil):
	// while down, the switch blackholes every packet (forwarding returns
	// nil — a silent drop, exactly what a dead linecard does). Restart
	// with register wipe is modeled separately, by
	// controlplane.(*Controller).WipeSwitch at the restart instant.
	CrashAt    netsim.Time
	CrashUntil netsim.Time
}

// NodeFaults wraps a switch's ForwardingProgram with fault behavior.
// Like the program it wraps, it runs on the simulator's single thread.
type NodeFaults struct {
	inner netsim.ForwardingProgram
	cfg   NodeFaultConfig
	rng   *rand.Rand

	Misrouted    uint64
	Rewritten    uint64
	CrashDropped uint64
}

// WrapNode interposes a seeded NodeFaults between sw and its current
// forwarding program, and returns the injector for counter inspection.
func WrapNode(sw *netsim.Switch, seed int64, cfg NodeFaultConfig) *NodeFaults {
	nf := &NodeFaults{inner: sw.Forwarding, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	sw.Forwarding = nf
	return nf
}

// Process implements netsim.ForwardingProgram. Crash windows are
// checked first (time-driven); tele-rewrite and misroute then draw in
// that fixed order.
func (f *NodeFaults) Process(sw *netsim.Switch, pkt *dataplane.Decoded, meta *netsim.PacketMeta) []netsim.Egress {
	if f.cfg.CrashUntil > f.cfg.CrashAt {
		if now := sw.Sim().Now(); now >= f.cfg.CrashAt && now < f.cfg.CrashUntil {
			f.CrashDropped++
			return nil
		}
	}
	if f.cfg.TeleRewriteRate > 0 && f.rng.Float64() < f.cfg.TeleRewriteRate && len(pkt.Hydra.Blob) > 0 {
		f.Rewritten++
		for i := range pkt.Hydra.Blob {
			pkt.Hydra.Blob[i] = 0
		}
	}
	if f.cfg.MisrouteRate > 0 && f.rng.Float64() < f.cfg.MisrouteRate {
		f.Misrouted++
		if f.inner != nil {
			// Run the real program first so its packet rewrites (TTL
			// decrement, telemetry-relevant header edits) still happen;
			// only the egress decision is overridden.
			f.inner.Process(sw, pkt, meta)
		}
		return meta.OneEgress(f.cfg.MisroutePort)
	}
	if f.inner == nil {
		return nil
	}
	return f.inner.Process(sw, pkt, meta)
}
