package atoms

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/reportbus"
)

func ip(s string) dataplane.IP4 { return dataplane.MustIP4(s) }

// connect wires a bidirectional switch-to-switch link, as WatchFabric
// does for each wired netsim link.
func connect(v *Verifier, aID uint32, aPort int, bID uint32, bPort int) {
	ai, bi := v.ensure(aID), v.ensure(bID)
	v.sws[ai].ports[aPort] = portDest{sw: bi}
	v.sws[bi].ports[bPort] = portDest{sw: ai}
}

// triangle builds a 3-switch ring 1->2->3->1 on port 1, with a host on
// port 9 of each switch, ready for loop/delivery scenarios.
func triangle() *Verifier {
	v := New()
	connect(v, 1, 1, 2, 2)
	connect(v, 2, 1, 3, 2)
	connect(v, 3, 1, 1, 2)
	v.AttachHost(1, 9, ip("10.0.0.1"))
	v.AttachHost(2, 9, ip("10.0.0.2"))
	v.AttachHost(3, 9, ip("10.0.0.3"))
	return v
}

func TestAtomSplitting(t *testing.T) {
	v := New()
	if got := len(v.atos); got != 1 {
		t.Fatalf("fresh verifier has %d atoms, want 1", got)
	}
	u := v.Install(1, ip("10.0.0.0"), 8, []int{1})
	if u.Split != 2 {
		t.Errorf("/8 install split %d atoms, want 2 (both endpoints interior)", u.Split)
	}
	if got := len(v.atos); got != 3 {
		t.Fatalf("%d atoms after /8, want 3", got)
	}
	// A /16 inside the /8 splits twice more; re-installing it splits
	// nothing (boundaries exist, key is replaced in place).
	v.Install(1, ip("10.1.0.0"), 16, []int{2})
	if got := len(v.atos); got != 5 {
		t.Fatalf("%d atoms after /16, want 5", got)
	}
	u = v.Install(1, ip("10.1.0.0"), 16, []int{3})
	if u.Split != 0 || len(v.atos) != 5 {
		t.Errorf("replacement split %d atoms (total %d), want 0 (total 5)", u.Split, len(v.atos))
	}
	// Atoms stay a contiguous cover of the space.
	var at uint64
	for _, a := range v.atos {
		if a.lo != at {
			t.Fatalf("atom gap: next lo %d, want %d", a.lo, at)
		}
		at = a.hi
	}
	if at != 1<<32 {
		t.Fatalf("atoms cover [0, %d), want [0, 2^32)", at)
	}
}

func TestLoopDetectionAndResolution(t *testing.T) {
	v := triangle()
	var raised, resolved []Violation
	v.OnViolation = func(x Violation) { raised = append(raised, x) }
	v.OnResolved = func(x Violation) { resolved = append(resolved, x) }

	v.Install(1, ip("10.0.0.0"), 24, []int{1})
	v.Install(2, ip("10.0.0.0"), 24, []int{1})
	if len(raised) != 0 {
		t.Fatalf("open chain raised %v", raised)
	}
	u := v.Install(3, ip("10.0.0.0"), 24, []int{1})
	if u.Raised != 1 || len(raised) != 1 || raised[0].Kind != KindLoop {
		t.Fatalf("closing the ring raised %v, want one loop", raised)
	}
	if got := raised[0]; got.Lo != ip("10.0.0.0") || got.Hi != ip("10.0.0.255") {
		t.Errorf("loop range [%s, %s], want the /24", got.Lo, got.Hi)
	}
	out := v.Outstanding()
	if len(out) != 1 || out[0].Kind != KindLoop {
		t.Fatalf("Outstanding = %v, want the one loop", out)
	}

	// Breaking the ring resolves it.
	u = v.Remove(2, ip("10.0.0.0"), 24)
	if u.Resolved != 1 || len(resolved) != 1 || resolved[0].Kind != KindLoop {
		t.Fatalf("breaking the ring resolved %v, want one loop", resolved)
	}
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("Outstanding after resolution = %v, want empty", out)
	}
}

func TestDeliveryChecks(t *testing.T) {
	v := triangle()
	host := ip("10.0.0.3")
	// 1 -> 2 -> 3 -> host on port 9.
	v.Install(1, host, 32, []int{1})
	v.Install(2, host, 32, []int{1})
	v.Install(3, host, 32, []int{9})
	if u := v.ExpectHost(host); u.Raised != 0 {
		t.Fatalf("healthy chain raised %d violations", u.Raised)
	}

	// Blackhole: switch 2 loses its route; paths from sources 1 and 2
	// now die at 2. (Switch 3 still delivers its own traffic.)
	v.Remove(2, host, 32)
	out := v.Outstanding()
	if len(out) != 1 || out[0].Kind != KindBlackhole || out[0].Switch != 2 || out[0].Host != host {
		t.Fatalf("Outstanding = %v, want one blackhole at switch 2 for %s", out, host)
	}
	if out[0].Lo != host || out[0].Hi != host {
		t.Errorf("blackhole range [%s, %s], want the single /32 atom", out[0].Lo, out[0].Hi)
	}

	// Misdelivery: switch 2 sends the host's traffic to its own host
	// port instead.
	v.Install(2, host, 32, []int{9})
	out = v.Outstanding()
	if len(out) != 1 || out[0].Kind != KindMisdeliver || out[0].Switch != 2 {
		t.Fatalf("Outstanding = %v, want one misdelivery at switch 2", out)
	}

	// Repair.
	v.Install(2, host, 32, []int{1})
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("Outstanding after repair = %v, want empty", out)
	}
}

// TestSplitMovesDeliveryWithHost: a delivery violation belongs to the
// atom holding its host. A split leaves no copy in a piece without the
// host (nothing would ever recheck it), and the violation covers the
// host's address alone, however wide its atom.
func TestSplitMovesDeliveryWithHost(t *testing.T) {
	v := triangle()
	host := ip("10.0.0.200")
	v.AttachHost(3, 8, host)
	v.Install(3, ip("10.0.0.0"), 24, []int{8})
	v.ExpectHost(host) // blackholed at switches 1 and 2, in the atom 10.0.0.0/24
	want := func(what string, n int) {
		t.Helper()
		out := v.Outstanding()
		if len(out) != n {
			t.Fatalf("%s: Outstanding = %v, want %d violations", what, out, n)
		}
		for _, x := range out {
			if x.Kind != KindBlackhole || x.Lo != host || x.Hi != host {
				t.Fatalf("%s: %v, want a blackhole for %s alone", what, x, host)
			}
		}
	}
	want("wide atom", 2)
	// Split the atom around a /26 that misses the host: the host's
	// violations stay in its piece only.
	v.Install(1, ip("10.0.0.128"), 26, []int{1})
	want("after split", 2)
	// Repair with /32s that recheck the host's atom alone.
	v.Install(1, host, 32, []int{1})
	v.Install(2, host, 32, []int{1})
	want("after repair", 0)
	if st := v.Stats(); st.Outstanding != 0 {
		t.Fatalf("Stats().Outstanding = %d after repair", st.Outstanding)
	}
}

// TestECMPAllPaths pins the all-paths semantics: one bad member of an
// ECMP port set is a violation even though the other members deliver.
func TestECMPAllPaths(t *testing.T) {
	v := New()
	connect(v, 1, 1, 2, 1)
	connect(v, 1, 2, 3, 1)
	v.AttachHost(1, 9, ip("10.0.0.1"))
	v.AttachHost(2, 9, ip("10.0.0.2"))
	host := ip("10.0.0.2")
	v.Install(1, host, 32, []int{1, 2}) // ECMP toward 2 (good) and 3 (routeless)
	v.Install(2, host, 32, []int{9})
	v.ExpectHost(host)
	out := v.Outstanding()
	if len(out) != 1 || out[0].Kind != KindBlackhole || out[0].Switch != 3 {
		t.Fatalf("Outstanding = %v, want one blackhole at the routeless ECMP branch", out)
	}
}

// TestNoExpectationNoReachabilityFP: without ExpectHost, routeless
// space is not a violation — only loops are unconditional.
func TestNoExpectationNoReachabilityFP(t *testing.T) {
	v := triangle()
	v.Install(1, ip("10.0.0.0"), 24, []int{1})
	// Switches 2 and 3 have no routes at all: dead ends everywhere, but
	// nothing is expected, so nothing is wrong.
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("Outstanding = %v, want empty without expectations", out)
	}
}

// TestRemoveFallback pins owner re-election: removing a /32 hands its
// atom to the covering /24, not to nothing.
func TestRemoveFallback(t *testing.T) {
	v := New()
	connect(v, 1, 1, 2, 1)
	v.AttachHost(1, 9, ip("10.0.1.1"))
	v.AttachHost(2, 9, ip("10.0.0.5"))
	host := ip("10.0.0.5")
	v.Install(1, ip("10.0.0.0"), 24, []int{1}) // covering route toward 2
	v.Install(1, host, 32, []int{1})
	v.Install(2, ip("10.0.0.0"), 24, []int{9})
	v.ExpectHost(host)
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("pre-removal Outstanding = %v", out)
	}
	v.Remove(1, host, 32)
	if out := v.Outstanding(); len(out) != 0 {
		t.Fatalf("post-removal Outstanding = %v, want empty (the /24 covers)", out)
	}
	// Removing the covering /24 too blackholes the host at switch 1.
	v.Remove(1, ip("10.0.0.0"), 24)
	out := v.Outstanding()
	if len(out) != 1 || out[0].Kind != KindBlackhole || out[0].Switch != 1 {
		t.Fatalf("Outstanding = %v, want one blackhole at switch 1", out)
	}
}

// TestOutstandingMergesAdjacentAtoms: a violation spanning several
// contiguous atoms reports as one merged range.
func TestOutstandingMergesAdjacentAtoms(t *testing.T) {
	v := triangle()
	// Split the /24 into pieces first, then close a ring over all of it.
	v.Install(1, ip("10.0.0.0"), 25, []int{1})
	v.Install(1, ip("10.0.0.128"), 25, []int{1})
	v.Install(2, ip("10.0.0.0"), 24, []int{1})
	v.Install(3, ip("10.0.0.0"), 24, []int{1})
	v.Install(1, ip("10.0.0.0"), 24, []int{1}) // owner for both /25 atoms stays the /25s
	out := v.Outstanding()
	if len(out) != 1 {
		t.Fatalf("Outstanding = %v, want one merged loop", out)
	}
	if out[0].Lo != ip("10.0.0.0") || out[0].Hi != ip("10.0.0.255") {
		t.Errorf("merged range [%s, %s], want the whole /24", out[0].Lo, out[0].Hi)
	}
}

// TestPublishDigests: raised violations flow onto the report bus as
// digests under the atoms checker ID, and a previously-set OnViolation
// callback still runs first.
func TestPublishDigests(t *testing.T) {
	v := triangle()
	var cbFirst []Violation
	v.OnViolation = func(x Violation) { cbFirst = append(cbFirst, x) }

	clock := int64(42)
	bus := reportbus.New(reportbus.Config{Clock: func() int64 { return clock }})
	var got []reportbus.Digest
	bus.Tap(func(d reportbus.Digest) { got = append(got, d) })
	Publish(v, bus.InlineProducer("static"), bus.Now)

	v.Install(1, ip("10.0.0.0"), 24, []int{1})
	v.Install(2, ip("10.0.0.0"), 24, []int{1})
	v.Install(3, ip("10.0.0.0"), 24, []int{1})
	if len(got) != 1 {
		t.Fatalf("published %d digests, want 1 (the loop)", len(got))
	}
	d := got[0]
	if d.Checker != CheckerID || d.At != clock {
		t.Errorf("digest provenance = (%s, %d), want (%s, %d)", d.Checker, d.At, CheckerID, clock)
	}
	if d.NArgs != 4 || d.Args[0] != uint64(KindLoop) ||
		d.Args[2] != uint64(ip("10.0.0.0")) || d.Args[3] != uint64(ip("10.0.0.255")) {
		t.Errorf("digest args = %v, want [kind host lo hi] for the /24 loop", d.Args[:d.NArgs])
	}
	if len(cbFirst) != 1 {
		t.Errorf("chained OnViolation ran %d times, want 1", len(cbFirst))
	}
}

// TestAuditMissing covers the control-variable audit: withheld installs
// are missing, applied ones are not.
func TestAuditMissing(t *testing.T) {
	a := NewAudit()
	key := []uint64{10, 20}
	a.Expect("stateful-firewall", "allowed", key, 1, 2, 3)
	if got := len(a.Missing()); got != 3 {
		t.Fatalf("%d missing before installs, want 3", got)
	}
	a.ControlInstalled("stateful-firewall", 1, "allowed", key, 1)
	a.ControlInstalled("stateful-firewall", 3, "allowed", key, 1)
	miss := a.Missing()
	if len(miss) != 1 || miss[0].Switch != 2 {
		t.Fatalf("Missing = %v, want only switch 2", miss)
	}
	a.ControlInstalled("stateful-firewall", 2, "allowed", key, 1)
	if got := a.Missing(); len(got) != 0 {
		t.Fatalf("Missing after full install = %v", got)
	}
}
