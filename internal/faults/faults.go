// Package faults is the deterministic, seeded fault-injection substrate
// for the simulator and control plane. Hydra's value is only measurable
// under failure: the paper validates its checkers against misconfigured
// UPFs, broken source routes, and looping topologies (§5), but a healthy
// replay exercises nothing except the pass path. This package turns
// every corpus checker into a measurable detector by injecting the
// paper's bug taxonomy on purpose:
//
//   - Link-level faults (LinkFaults, hooked into netsim.Link.Fault):
//     probabilistic drop, single-bit corruption, duplication, reordering
//     via jittered delay, and link-flap schedules. The hook is one nil
//     check on the wire path — links without faults keep the
//     zero-allocation fast path byte-for-byte.
//   - Node-level faults (NodeFaults, a ForwardingProgram wrapper):
//     misrouted next-hops, rogue in-place telemetry rewrites (a
//     compromised switch scribbling on the Hydra blob), and crash
//     windows during which the switch blackholes everything. Register
//     wipe on restart is modeled by controlplane.Controller.WipeSwitch.
//   - Control-plane faults: Withhold selects a deterministic subset of
//     installs to suppress (partial table installs); delayed installs
//     are ordinary simulator events the scenario runner schedules.
//
// # Determinism contract
//
// Every fault site owns a rand.Rand seeded from (campaign seed,
// component name) via SubSeed. The simulator executes each node's
// events in a deterministic order — including under
// netsim.Simulator.Partition, where a node's callbacks run on exactly
// one shard in a shard-count-invariant order — so the sequence of
// random draws — and therefore every drop, flip, duplicate, and
// misroute — is a pure function of the seed and the fault
// configuration. Two runs with the same seed and config produce
// byte-identical fault schedules and byte-identical detection matrices
// at every shard count (pinned by TestChaosDeterministic and
// TestChaosShardInvariant in internal/experiments). Rates of zero draw
// nothing from the RNG, so a disabled fault class cannot perturb
// another class's stream.
//
// Parallel constraint: a LinkFaults injector runs on the shard of the
// frame's *sender* (netsim.Link.Send applies it in the sender's
// execution context). An injector shared across several links
// therefore stays deterministic — and race-free — only if every frame
// it intercepts is sent by nodes of one shard; in practice, attach a
// shared injector only to links whose sending side is a single switch
// (the chaos campaign's leaf-1 uplinks qualify: campus traffic flows
// one way, so only leaf 1 transmits on them). NodeFaults wrap a single
// switch's forwarding program and are shard-safe by construction.
package faults

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Class identifies one fault class of the chaos campaign.
type Class string

// The fault taxonomy. Link-level classes perturb frames on the wire;
// node-level classes model misbehaving or crashing switches; the
// control-plane classes model installs that never (or only later)
// reach the switch.
const (
	Drop           Class = "drop"
	Corrupt        Class = "corrupt"
	Duplicate      Class = "duplicate"
	Reorder        Class = "reorder"
	Flap           Class = "flap"
	Misroute       Class = "misroute"
	TeleRewrite    Class = "tele-rewrite"
	Crash          Class = "crash"
	StaleTable     Class = "stale-table"
	PartialInstall Class = "partial-install"
	DelayedInstall Class = "delayed-install"
)

// Classes returns every fault class in canonical campaign order.
func Classes() []Class {
	return []Class{
		Drop, Corrupt, Duplicate, Reorder, Flap,
		Misroute, TeleRewrite, Crash, StaleTable,
		PartialInstall, DelayedInstall,
	}
}

// SubSeed derives a stable per-component seed from the campaign seed
// and a component name, so each fault site draws from an independent
// stream and adding a site never shifts another site's draws.
func SubSeed(base int64, name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Withhold deterministically selects ~rate of n items to withhold from
// installation (the partial-install fault): out[i] is true when item i
// must NOT be installed.
func Withhold(seed int64, n int, rate float64) []bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bool, n)
	if rate <= 0 {
		return out
	}
	for i := range out {
		out[i] = rng.Float64() < rate
	}
	return out
}
