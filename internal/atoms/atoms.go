// Package atoms is the static half of the two-layer verification story:
// a Delta-net-style incremental control-plane verifier that rechecks
// network-wide invariants on every route mutation, in time proportional
// to the part of the header space the mutation touches.
//
// The IPv4 destination space [0, 2^32) is partitioned into *atoms* —
// disjoint half-open ranges whose boundaries are exactly the boundaries
// of every prefix ever installed. Within one atom, every switch forwards
// all addresses identically (its longest-prefix match is a single route
// entry), so invariants are properties of atoms, not of addresses: the
// atom's forwarding behavior is a tiny graph with one out-edge set per
// switch, and loop freedom, blackholes, reachability and misdelivery are
// graph checks over ~#switches nodes.
//
// Installing a prefix splits at most two atoms (at its endpoints) and
// contests ownership — by prefix length — of the atoms it covers;
// removing a route re-elects owners from the surviving table. Only the
// atoms whose owner actually changed are rechecked, which is what makes
// per-update verification cheap: a /32 host route touches one atom, and
// only a default route touches them all. Removals never merge atoms;
// boundaries are monotone, which keeps split bookkeeping trivial and is
// harmless at fabric scale (a k=8 fat-tree settles around 170 atoms).
//
// Violations are diffed per recheck: the verifier raises OnViolation
// when a (kind, switch, host) first appears in an atom and OnResolved
// when a recheck clears it, so a consumer sees install-time transitions,
// not steady-state noise. Outstanding() snapshots the current violation
// set with contiguous equal-key atom ranges merged back together.
//
// Reachability-style checks are opt-in per address: only hosts declared
// with ExpectHost are traced, which is what keeps the verifier
// false-positive-free on fabrics that legitimately blackhole unrouted
// space (a fat-tree core has no route for non-fabric prefixes, and that
// is correct, not a violation).
package atoms

import (
	"fmt"
	"sort"

	"repro/internal/dataplane"
)

// Kind classifies a violation.
type Kind uint8

const (
	// KindLoop: the atom's forwarding graph has a cycle through Switch.
	// One loop is reported per atom (the first found in deterministic
	// switch order).
	KindLoop Kind = iota
	// KindBlackhole: traffic for expected host Host is dropped at Switch
	// (no matching route, an empty port set, or an unwired egress port)
	// on some path from a traffic source.
	KindBlackhole
	// KindMisdeliver: traffic for expected host Host egresses a
	// host-facing port of Switch that is attached to a different host.
	KindMisdeliver
)

func (k Kind) String() string {
	switch k {
	case KindLoop:
		return "loop"
	case KindBlackhole:
		return "blackhole"
	case KindMisdeliver:
		return "misdeliver"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Violation is one invariant failure over a destination range.
// Lo and Hi are inclusive.
type Violation struct {
	Kind   Kind
	Switch uint32
	// Host is the expected destination whose delivery failed; zero for
	// loops, which are a property of the range itself.
	Host   dataplane.IP4
	Lo, Hi dataplane.IP4
}

func (x Violation) String() string {
	rng := fmt.Sprintf("[%s, %s]", x.Lo, x.Hi)
	if x.Lo == x.Hi {
		rng = x.Lo.String()
	}
	if x.Kind == KindLoop {
		return fmt.Sprintf("loop via switch %d for %s", x.Switch, rng)
	}
	return fmt.Sprintf("%s at switch %d for host %s (%s)", x.Kind, x.Switch, x.Host, rng)
}

// violKey identifies a violation within one atom; its range is
// materialized only at report time (span).
type violKey struct {
	kind Kind
	sw   uint32
	host uint32
}

// span is the range [lo, hi) a violation covers in atom a: a loop is a
// property of the whole atom, a delivery violation concerns its host's
// address alone, wherever routes happen to split the space.
func (k violKey) span(a *atom) (lo, hi uint64) {
	if k.kind == KindLoop {
		return a.lo, a.hi
	}
	return uint64(k.host), uint64(k.host) + 1
}

// within reports whether a violation can hold in the range [lo, hi): a
// loop anywhere, a delivery violation only where its host is.
func (k violKey) within(lo, hi uint64) bool {
	return k.kind == KindLoop || lo <= uint64(k.host) && uint64(k.host) < hi
}

// Update summarizes the incremental work one mutation caused — the
// observable proof that rechecking is partial: Affected counts the atoms
// recheck actually visited.
type Update struct {
	// Affected is the number of atoms rechecked.
	Affected int
	// Split is the number of new atoms created by boundary splits (0..2).
	Split int
	// Raised and Resolved count violation transitions emitted.
	Raised, Resolved int
}

// Stats are cumulative verifier counters.
type Stats struct {
	Switches int
	Atoms    int
	// Routes counts live route entries across all switches.
	Routes int
	// Updates counts Install/Remove/ExpectHost mutations processed.
	Updates uint64
	// Splits counts atom splits; Rechecks counts per-atom invariant
	// recomputations.
	Splits, Rechecks uint64
	// Raised and Resolved count violation transitions.
	Raised, Resolved uint64
	// Outstanding counts currently-failing (atom, violation) pairs.
	Outstanding int
}

type routeKey struct {
	prefix uint32
	bits   int
}

// routeSlot is one installed route. Slots are tombstoned, never
// compacted: atom owner fields index into this slice, so indices must
// stay stable; freed slots are reused through the free list.
type routeSlot struct {
	key   routeKey
	ports []int
	live  bool
}

// portDest is what a switch port is wired to.
type portDest struct {
	isHost bool
	sw     int    // dense switch index, when !isHost
	hostIP uint32 // attached host address, when isHost
}

type swState struct {
	id     uint32
	routes []routeSlot
	free   []int32
	byKey  map[routeKey]int32
	ports  map[int]portDest
	// hasHost marks traffic sources: reachability is traced from every
	// switch with an attached host.
	hasHost bool
}

// lpm returns the live slot with the longest prefix containing addr, or
// -1. Used to re-elect an atom's owner after a removal; addr is the
// atom's lo, which is equivalent to testing the whole atom because every
// installed prefix aligns with atom boundaries.
func (s *swState) lpm(addr uint64) int32 {
	best, bestBits := int32(-1), -1
	for i := range s.routes {
		r := &s.routes[i]
		if !r.live || r.key.bits <= bestBits {
			continue
		}
		lo, hi := prefixRange(r.key)
		if lo <= addr && addr < hi {
			best, bestBits = int32(i), r.key.bits
		}
	}
	return best
}

// atom is one disjoint destination range [lo, hi) with uniform
// forwarding: owner[i] is switch i's LPM route slot for the whole range
// (-1: no route).
type atom struct {
	lo, hi uint64
	owner  []int32
	viols  map[violKey]struct{}
}

// Verifier is the incremental control-plane verifier. It is
// single-threaded, like the netsim event loop it watches.
type Verifier struct {
	sws  []*swState
	idx  map[uint32]int
	atos []*atom // sorted by lo, contiguous cover of [0, 2^32)

	// expect is the set of host addresses whose delivery invariants
	// (reachability from every source, no blackhole, no misdelivery) are
	// checked; see ExpectHost.
	expect map[uint32]struct{}

	// OnViolation and OnResolved observe per-atom violation transitions,
	// in deterministic order within one mutation. Either may be nil.
	OnViolation func(Violation)
	OnResolved  func(Violation)

	stats Stats

	// scratch for rechecks, reused across calls.
	color []uint8
}

// New returns an empty verifier: one atom covering the whole space, no
// switches, no expectations.
func New() *Verifier {
	return &Verifier{
		idx:    map[uint32]int{},
		atos:   []*atom{{lo: 0, hi: 1 << 32}},
		expect: map[uint32]struct{}{},
	}
}

func prefixRange(k routeKey) (lo, hi uint64) {
	lo = uint64(k.prefix)
	return lo, lo + 1<<(32-uint(k.bits))
}

func canon(prefix dataplane.IP4, bits int) routeKey {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("atoms: prefix length %d out of range", bits))
	}
	var mask uint32
	if bits > 0 {
		mask = ^uint32(0) << (32 - uint(bits))
	}
	return routeKey{prefix: uint32(prefix) & mask, bits: bits}
}

// AddSwitch registers a switch; idempotent. Switches may also be
// registered implicitly by Install/Connect/AttachHost.
func (v *Verifier) AddSwitch(id uint32) {
	v.ensure(id)
}

func (v *Verifier) ensure(id uint32) int {
	if i, ok := v.idx[id]; ok {
		return i
	}
	i := len(v.sws)
	v.idx[id] = i
	v.sws = append(v.sws, &swState{id: id, byKey: map[routeKey]int32{}, ports: map[int]portDest{}})
	for _, a := range v.atos {
		a.owner = append(a.owner, -1)
	}
	v.stats.Switches = len(v.sws)
	return i
}

// AttachHost wires a host with the given address to a switch port and
// marks the switch as a traffic source. Attachment alone enables the
// misdelivery check against this port; delivery to ip is only verified
// once ExpectHost(ip) is declared.
func (v *Verifier) AttachHost(swID uint32, port int, ip dataplane.IP4) {
	si := v.ensure(swID)
	v.sws[si].ports[port] = portDest{isHost: true, hostIP: uint32(ip)}
	v.sws[si].hasHost = true
}

// ExpectHost declares that traffic for ip must reach its attached host
// from every traffic source, and rechecks the atom containing ip. Call
// it after the intended routes are installed: expectations declared over
// a half-built table report the build transient as violations.
func (v *Verifier) ExpectHost(ip dataplane.IP4) Update {
	v.stats.Updates++
	var u Update
	if _, ok := v.expect[uint32(ip)]; ok {
		return u
	}
	v.expect[uint32(ip)] = struct{}{}
	a := v.atos[v.find(uint64(uint32(ip)))]
	v.recheck(a, &u)
	return u
}

// find returns the index of the atom containing addr.
func (v *Verifier) find(addr uint64) int {
	return sort.Search(len(v.atos), func(i int) bool { return v.atos[i].lo > addr }) - 1
}

// splitAt ensures an atom boundary exists at addr, splitting the
// containing atom if needed. The new right half inherits the left's
// owners; each half keeps the violations that hold within it (both had
// identical forwarding, so the loop check's outcome is identical by
// construction and a delivery check's follows its host — no recheck
// needed).
func (v *Verifier) splitAt(addr uint64, u *Update) {
	if addr == 0 || addr >= 1<<32 {
		return
	}
	i := v.find(addr)
	a := v.atos[i]
	if a.lo == addr {
		return
	}
	b := &atom{lo: addr, hi: a.hi, owner: append([]int32(nil), a.owner...)}
	for k := range a.viols {
		if k.within(b.lo, b.hi) {
			if b.viols == nil {
				b.viols = make(map[violKey]struct{}, len(a.viols))
			}
			b.viols[k] = struct{}{}
			v.stats.Outstanding++
		}
		if !k.within(a.lo, addr) {
			delete(a.viols, k)
			v.stats.Outstanding--
		}
	}
	a.hi = addr
	v.atos = append(v.atos, nil)
	copy(v.atos[i+2:], v.atos[i+1:])
	v.atos[i+1] = b
	u.Split++
	v.stats.Splits++
	v.stats.Atoms = len(v.atos)
}

// Install installs or replaces route (prefix/bits -> ports) on a switch
// and rechecks the affected atoms. The switch is registered implicitly.
func (v *Verifier) Install(swID uint32, prefix dataplane.IP4, bits int, ports []int) Update {
	v.stats.Updates++
	var u Update
	si := v.ensure(swID)
	s := v.sws[si]
	key := canon(prefix, bits)
	lo, hi := prefixRange(key)

	if slot, ok := s.byKey[key]; ok {
		// Replacement: ownership (decided by prefix length) is unchanged;
		// only the out-edges of atoms this slot already owns move.
		s.routes[slot].ports = append([]int(nil), ports...)
		for i := v.find(lo); i < len(v.atos) && v.atos[i].lo < hi; i++ {
			if a := v.atos[i]; a.owner[si] == slot {
				v.recheck(a, &u)
			}
		}
		return u
	}

	v.splitAt(lo, &u)
	v.splitAt(hi, &u)

	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.routes[slot] = routeSlot{key: key, ports: append([]int(nil), ports...), live: true}
	} else {
		slot = int32(len(s.routes))
		s.routes = append(s.routes, routeSlot{key: key, ports: append([]int(nil), ports...), live: true})
	}
	s.byKey[key] = slot
	v.stats.Routes++

	// Contest ownership of every atom the prefix covers. Longer prefixes
	// win; an equal-length incumbent is impossible (two distinct prefixes
	// of one length are disjoint, so both cannot cover this atom).
	for i := v.find(lo); i < len(v.atos) && v.atos[i].lo < hi; i++ {
		a := v.atos[i]
		if cur := a.owner[si]; cur >= 0 && s.routes[cur].key.bits > key.bits {
			continue
		}
		a.owner[si] = slot
		v.recheck(a, &u)
	}
	return u
}

// Remove deletes route (prefix/bits) from a switch, re-elects owners for
// the atoms it owned from the surviving table, and rechecks them.
// Removing an absent route is a no-op.
func (v *Verifier) Remove(swID uint32, prefix dataplane.IP4, bits int) Update {
	v.stats.Updates++
	var u Update
	si, ok := v.idx[swID]
	if !ok {
		return u
	}
	s := v.sws[si]
	key := canon(prefix, bits)
	slot, ok := s.byKey[key]
	if !ok {
		return u
	}
	delete(s.byKey, key)
	s.routes[slot].live = false
	v.stats.Routes--

	lo, hi := prefixRange(key)
	for i := v.find(lo); i < len(v.atos) && v.atos[i].lo < hi; i++ {
		a := v.atos[i]
		if a.owner[si] != slot {
			continue
		}
		a.owner[si] = s.lpm(a.lo)
		v.recheck(a, &u)
	}

	s.routes[slot].ports = nil
	s.free = append(s.free, slot)
	return u
}

// ---------------------------------------------------------------------------
// Invariant checks

// recheck recomputes one atom's violation set from scratch and emits the
// diff against the previous set through OnViolation/OnResolved.
func (v *Verifier) recheck(a *atom, u *Update) {
	u.Affected++
	v.stats.Rechecks++

	fresh := map[violKey]struct{}{}
	v.checkLoops(a, fresh)
	for ip := range v.expect {
		if addr := uint64(ip); a.lo <= addr && addr < a.hi {
			v.checkDelivery(a, ip, fresh)
		}
	}

	// Diff, in deterministic order.
	var raised, resolved []violKey
	for k := range fresh {
		if _, ok := a.viols[k]; !ok {
			raised = append(raised, k)
		}
	}
	for k := range a.viols {
		if _, ok := fresh[k]; !ok {
			resolved = append(resolved, k)
		}
	}
	if len(raised) == 0 && len(resolved) == 0 {
		return
	}
	sortKeys(raised)
	sortKeys(resolved)
	v.stats.Outstanding += len(raised) - len(resolved)
	u.Raised += len(raised)
	u.Resolved += len(resolved)
	v.stats.Raised += uint64(len(raised))
	v.stats.Resolved += uint64(len(resolved))
	if len(fresh) == 0 {
		fresh = nil
	}
	a.viols = fresh
	for _, k := range raised {
		if v.OnViolation != nil {
			v.OnViolation(v.materialize(a, k))
		}
	}
	for _, k := range resolved {
		if v.OnResolved != nil {
			v.OnResolved(v.materialize(a, k))
		}
	}
}

func (v *Verifier) materialize(a *atom, k violKey) Violation {
	lo, hi := k.span(a)
	return Violation{
		Kind: k.kind, Switch: k.sw, Host: dataplane.IP4(k.host),
		Lo: dataplane.IP4(lo), Hi: dataplane.IP4(hi - 1),
	}
}

func sortKeys(ks []violKey) {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.sw != b.sw {
			return a.sw < b.sw
		}
		return a.host < b.host
	})
}

// checkLoops runs a 3-color DFS over the atom's switch graph (switch i's
// out-edges are the switch-bound ports of its owner route) and records
// the first cycle found, keyed by the switch the back edge re-enters.
// Iteration is by dense switch index and route port order, so the
// representative is deterministic.
func (v *Verifier) checkLoops(a *atom, out map[violKey]struct{}) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	if cap(v.color) < len(v.sws) {
		v.color = make([]uint8, len(v.sws))
	}
	color := v.color[:len(v.sws)]
	for i := range color {
		color[i] = white
	}
	var dfs func(si int) (loopAt int)
	dfs = func(si int) int {
		color[si] = gray
		if slot := a.owner[si]; slot >= 0 {
			for _, p := range v.sws[si].routes[slot].ports {
				d, ok := v.sws[si].ports[p]
				if !ok || d.isHost {
					continue
				}
				switch color[d.sw] {
				case gray:
					return d.sw
				case white:
					if at := dfs(d.sw); at >= 0 {
						return at
					}
				}
			}
		}
		color[si] = black
		return -1
	}
	for si := range v.sws {
		if color[si] != white {
			continue
		}
		if at := dfs(si); at >= 0 {
			out[violKey{kind: KindLoop, sw: v.sws[at].id}] = struct{}{}
			return
		}
	}
}

// deliveryQuery traces all forwarding paths for one expected host within
// one atom. Outcomes are per-switch and source-independent, so one memo
// serves every traffic source; only switches reachable from some source
// are ever visited, and each exactly once.
type deliveryQuery struct {
	v    *Verifier
	a    *atom
	host uint32
	// state: 0 unvisited, 1 on stack, 2 done.
	state []uint8
	out   map[violKey]struct{}
}

// trace walks from switch si. Every maximal path ends in exactly one of:
// delivery to the expected host (fine), delivery to another host
// (misdeliver), a dead end (blackhole), or a cycle — which is already
// reported by the loop check and deliberately not double-counted here.
func (q *deliveryQuery) trace(si int) {
	if q.state[si] != 0 {
		return
	}
	q.state[si] = 1
	s := q.v.sws[si]
	slot := q.a.owner[si]
	if slot < 0 || len(s.routes[slot].ports) == 0 {
		q.out[violKey{kind: KindBlackhole, sw: s.id, host: q.host}] = struct{}{}
		q.state[si] = 2
		return
	}
	for _, p := range s.routes[slot].ports {
		d, ok := s.ports[p]
		switch {
		case !ok:
			q.out[violKey{kind: KindBlackhole, sw: s.id, host: q.host}] = struct{}{}
		case d.isHost:
			if d.hostIP != q.host {
				q.out[violKey{kind: KindMisdeliver, sw: s.id, host: q.host}] = struct{}{}
			}
		default:
			q.trace(d.sw)
		}
	}
	q.state[si] = 2
}

func (v *Verifier) checkDelivery(a *atom, host uint32, out map[violKey]struct{}) {
	q := &deliveryQuery{v: v, a: a, host: host, state: make([]uint8, len(v.sws)), out: out}
	for si, s := range v.sws {
		if s.hasHost {
			q.trace(si)
		}
	}
}

// ---------------------------------------------------------------------------
// Reporting

// Outstanding snapshots the current violation set, merging contiguous
// atoms that fail identically, sorted by (kind, switch, host, lo).
func (v *Verifier) Outstanding() []Violation {
	type span struct{ lo, hi uint64 }
	spans := map[violKey][]span{}
	for _, a := range v.atos {
		for k := range a.viols {
			lo, hi := k.span(a)
			ss := spans[k]
			if n := len(ss); n > 0 && ss[n-1].hi == lo {
				ss[n-1].hi = hi
			} else {
				ss = append(ss, span{lo, hi})
			}
			spans[k] = ss
		}
	}
	var out []Violation
	for k, ss := range spans {
		for _, s := range ss {
			out = append(out, Violation{
				Kind: k.kind, Switch: k.sw, Host: dataplane.IP4(k.host),
				Lo: dataplane.IP4(s.lo), Hi: dataplane.IP4(s.hi - 1),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.Lo < b.Lo
	})
	return out
}

// Stats returns cumulative counters.
func (v *Verifier) Stats() Stats {
	st := v.stats
	st.Atoms = len(v.atos)
	st.Switches = len(v.sws)
	return st
}
