package compiler_test

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/difftest"
)

// TestFuzzDifferential generates random well-typed programs
// (difftest.RandomProgram), random control-plane state, and random
// traces, and requires the reference interpreter and the compiled
// pipeline to agree on verdicts, reports, and report payloads for every
// packet.
func TestFuzzDifferential(t *testing.T) {
	count := 150
	if testing.Short() {
		count = 30
	}
	run := func(seed int64) bool {
		fuzzDifferentialDraw(t, seed)
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzDifferentialPinned replays draws that once diverged. All five
// push into (or through eviction shift) the array a for loop is
// iterating: the interpreter used to iterate a snapshot of the array
// taken at loop entry, while the compiled unrolling tests each index's
// validity when it reaches it (§4.1). The interpreter was ruled wrong;
// see DESIGN.md, "Loops over an array the body mutates".
func TestFuzzDifferentialPinned(t *testing.T) {
	for _, seed := range []int64{8905, 15472, 28399, 30664, 33410} {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { fuzzDifferentialDraw(t, seed) })
	}
}

// fuzzDifferentialDraw is one draw of the differential fuzz: everything
// random in it comes from rand.NewSource(seed).
func fuzzDifferentialDraw(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	src := difftest.RandomProgram(rng)

	h := difftest.NewHarness(t, src)

	// Random control state across up to 3 switches.
	for id := uint32(1); id <= 3; id++ {
		h.InstallScalar(id, "c0", uint64(rng.Intn(256)))
		for i := 0; i < rng.Intn(5); i++ {
			h.InstallDict(id, "d0", []uint64{uint64(rng.Intn(8))}, uint64(rng.Intn(256)))
			h.InstallDict(id, "d1", []uint64{uint64(rng.Intn(8)), uint64(rng.Intn(1000))}, uint64(rng.Intn(256)))
			h.InstallSet(id, "set0", uint64(rng.Intn(8)))
		}
	}

	// Several random traces through the same switch states, so
	// sensor persistence is exercised too.
	for p := 0; p < 3; p++ {
		n := 1 + rng.Intn(4)
		trace := make([]difftest.HopSpec, n)
		for i := range trace {
			trace[i] = difftest.HopSpec{
				SW: uint32(rng.Intn(3) + 1),
				Headers: map[string]uint64{
					"h0": uint64(rng.Intn(256)),
					"h1": uint64(rng.Intn(65536)),
				},
				PktLen: uint32(64 + rng.Intn(1400)),
			}
		}
		h.RunBoth(trace) // fails the test on any divergence
	}
}
