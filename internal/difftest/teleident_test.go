package difftest

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/indus/ast"
)

// TestTeleRoundTripIsIdentity holds the telemetry codec to the identity
// on every PHV a pass leaves: after each pass kind a switch runs — init,
// telemetry, telemetry with the checker — encoding the Set's telemetry and
// decoding the blob back changes no slot, neither its width nor its value.
// A switch runs its first hop's egress pass on the PHV the init pass left,
// with no blob in between, and a multicast clone re-decodes the blob the
// init pass encoded; both are the wire's hop only because of this.
// DecodeTele writes only telemetry slots, so the whole PHV is compared.
func TestTeleRoundTripIsIdentity(t *testing.T) {
	const switches = 3
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	corpus, err := CompileCorpusSet()
	if err != nil {
		t.Fatal(err)
	}
	passes := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*7907 + 3))
		// Odd seeds link the corpus, even ones 2–5 random programs (some
		// with headers at paths of their own, some init-only); either way
		// some members check at every hop.
		members := corpus
		if seed%2 == 0 {
			members = make([]*Compiled, 2+rng.Intn(4))
			for m := range members {
				src := RandomProgram(rng)
				switch rng.Intn(5) {
				case 0:
					src = strings.Replace(src, "header bit<8> h0;", `header bit<8> h0 @ "hdr.alt8";`, 1)
				case 1:
					src = initOnlySrc
				}
				if members[m], err = CompileSource(src); err != nil {
					t.Fatalf("seed %d member %d: %v\n%s", seed, m, err, src)
				}
			}
		}
		everyHop := make([]bool, len(members))
		for m := range everyHop {
			everyHop[m] = rng.Intn(3) == 0
		}
		s := NewSetRunner(members, everyHop)
		cfg := newRandomConfig(rng)
		for _, r := range s.Members {
			installRandomState(&Harness{tb: t, r: r}, cfg, switches)
		}
		l, err := Link(s.rts...)
		if err != nil {
			t.Fatal(err)
		}
		for trace := 0; trace < 3; trace++ {
			hops := make([]HopSpec, 1+rng.Intn(4))
			for i := range hops {
				hops[i] = HopSpec{SW: uint32(1 + rng.Intn(switches)), Headers: map[string]uint64{}, PktLen: uint32(64 + rng.Intn(1400))}
				for _, c := range members {
					for _, d := range c.Info.Prog.DeclsOfKind(ast.KindHeader) {
						path := c.Prog.HeaderBindings[d.Name]
						if _, ok := hops[i].Headers[path]; !ok {
							hops[i].Headers[path] = cfg.value(widthOf(d.Type))
						}
					}
				}
			}
			passes += checkRoundTrips(t, l, s, hops)
		}
	}
	if passes == 0 {
		t.Fatal("vacuous: no pass ran")
	}
}

// checkRoundTrips runs a trace keyed by annotation path through l pass by
// pass, the way a switch cuts it (Wire), and after every pass encodes the
// telemetry, decodes it back and compares the PHV with the pass's. It
// returns the number of passes checked.
func checkRoundTrips(t *testing.T, l *Linked, s *SetRunner, trace []HopSpec) int {
	t.Helper()
	envs := make([][]HopEnv, len(s.Members))
	for k, r := range s.Members {
		all, err := r.envs(r.byName(trace))
		if err != nil {
			t.Fatal(err)
		}
		envs[k] = all[beSetWire]
	}
	// The init pass of the first hop starts from the decode-empty blob.
	if err := l.Set.DecodeTele(nil, l.Ctx.PHV); err != nil {
		t.Fatal(err)
	}
	hop := make([]HopEnv, len(envs))
	n := 0
	for i := range trace {
		for k := range hop {
			hop[k] = envs[k][i]
		}
		first, last := i == 0, i == len(trace)-1
		for _, b := range Wire.passes(first, last) {
			l.run(hop, b, first, last)
			want := slices.Clone(l.Ctx.PHV)
			blob := l.Set.EncodeTele(nil, l.Ctx.PHV)
			if err := l.Set.DecodeTele(blob, l.Ctx.PHV); err != nil {
				t.Fatal(err)
			}
			for sl, v := range l.Ctx.PHV {
				if v != want[sl] {
					t.Fatalf("hop %d pass %03b: slot %d is %+v after the round trip, %+v after the pass", i, b, sl, v, want[sl])
				}
			}
			n++
		}
	}
	return n
}
