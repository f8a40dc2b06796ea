package difftest

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/indus/ast"
)

// randomConfig draws values for a program's control state and header
// bindings from shared per-width pools, so randomly installed dict keys
// and randomly bound header values actually collide and both the hit
// and miss paths of every lookup get exercised.
type randomConfig struct {
	rng   *rand.Rand
	pools map[int][]uint64
}

func newRandomConfig(rng *rand.Rand) *randomConfig {
	return &randomConfig{rng: rng, pools: map[int][]uint64{}}
}

func (c *randomConfig) pool(w int) []uint64 {
	if p, ok := c.pools[w]; ok {
		return p
	}
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<uint(w) - 1
	}
	p := []uint64{0, 1 & mask}
	for i := 0; i < 4; i++ {
		p = append(p, uint64(c.rng.Intn(8))&mask)
	}
	for i := 0; i < 3; i++ {
		p = append(p, c.rng.Uint64()&mask)
	}
	c.pools[w] = p
	return p
}

func (c *randomConfig) value(w int) uint64 {
	p := c.pool(w)
	return p[c.rng.Intn(len(p))]
}

func widthOf(t ast.Type) int {
	switch t := t.(type) {
	case ast.BitType:
		return t.Width
	case ast.BoolType:
		return 1
	}
	return 0
}

// keyWidths flattens a dict/set key type into scalar widths.
func keyWidths(t ast.Type) []int {
	if tt, ok := t.(ast.TupleType); ok {
		ws := make([]int, len(tt.Elems))
		for i, et := range tt.Elems {
			ws[i] = widthOf(et)
		}
		return ws
	}
	return []int{widthOf(t)}
}

// installRandomState installs random control-plane state — scalars,
// dict entries, set members — on every switch, mirrored across both
// backends, driven purely by the program's declarations.
func installRandomState(h *Harness, cfg *randomConfig, switches uint32) {
	for _, d := range h.Info().Prog.DeclsOfKind(ast.KindControl) {
		for id := uint32(1); id <= switches; id++ {
			switch tt := d.Type.(type) {
			case ast.DictType:
				kws := keyWidths(tt.Key)
				vw := widthOf(tt.Val)
				for i := 0; i < 1+cfg.rng.Intn(4); i++ {
					key := make([]uint64, len(kws))
					for j, w := range kws {
						key[j] = cfg.value(w)
					}
					h.InstallDict(id, d.Name, key, cfg.value(vw))
				}
			case ast.SetType:
				kws := keyWidths(tt.Elem)
				for i := 0; i < 1+cfg.rng.Intn(4); i++ {
					key := make([]uint64, len(kws))
					for j, w := range kws {
						key[j] = cfg.value(w)
					}
					h.InstallSet(id, d.Name, key...)
				}
			default:
				h.InstallScalar(id, d.Name, cfg.value(widthOf(d.Type)))
			}
		}
	}
}

// TestConformanceCorpus is the differential conformance suite: every
// corpus checker runs over randomized hop traces — random control
// state, random header bindings, random paths, repeated traces against
// persistent sensor state — through both the reference interpreter and
// the compiled pipeline, and the harness fails on any divergence in
// verdict or report payloads.
func TestConformanceCorpus(t *testing.T) {
	const switches = 4
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for _, p := range checkers.All {
		p := p
		t.Run(p.Key, func(t *testing.T) {
			t.Parallel()
			base := fnv.New64a()
			base.Write([]byte(p.Key))
			for s := 0; s < seeds; s++ {
				rng := rand.New(rand.NewSource(int64(base.Sum64()) + int64(s)*7919))
				h := CorpusHarness(t, p.Key)
				cfg := newRandomConfig(rng)
				installRandomState(h, cfg, switches)
				headerDecls := h.Info().Prog.DeclsOfKind(ast.KindHeader)
				for trace := 0; trace < 3; trace++ {
					n := 1 + rng.Intn(5)
					hops := make([]HopSpec, n)
					for i := range hops {
						hdrs := make(map[string]uint64, len(headerDecls))
						for _, d := range headerDecls {
							hdrs[d.Name] = cfg.value(widthOf(d.Type))
						}
						hops[i] = HopSpec{
							SW:      uint32(1 + rng.Intn(switches)),
							Headers: hdrs,
							PktLen:  uint32(64 + rng.Intn(1400)),
						}
					}
					h.RunBoth(hops)
				}
			}
		})
	}
}

// TestConformanceCoversCorpus pins the suite's coverage: the corpus
// must contain the 11 Table 1 checkers (plus the §5.1 valley-free case
// study), and a conformance subtest runs for each.
func TestConformanceCoversCorpus(t *testing.T) {
	if len(checkers.All) < 11 {
		t.Fatalf("corpus has %d checkers, expected at least the 11 of Table 1", len(checkers.All))
	}
	seen := map[string]bool{}
	for _, p := range checkers.All {
		if seen[p.Key] {
			t.Fatalf("duplicate corpus key %s", p.Key)
		}
		seen[p.Key] = true
	}
}

// initOnlySrc is a member whose init block alone does anything: past the
// first hop it contributes no instruction to the linked code. It reuses
// the names RandomProgram declares.
const initOnlySrc = `
tele bit<8> t8_0 = 3;
sensor bit<8> s0 = 0;
header bit<8> h0;
control bit<8> c0;
{ t8_0 = h0 + c0; s0 = h0; }
{ }
{ }
`

// TestSetConformanceRandom links random sets of 2–5 RandomProgram
// programs and checks each set against the product of its members
// (SetRunner). Every member declares the same variable names, so any
// leak between slot namespaces shows. Some members bind their headers to
// annotation paths of their own, so one name means different paths — and
// different values — across the set (a pass has one packet, so one path
// has one value for every member that binds it: Stage.SetHeader); some
// run their checker at every hop among last-hop members, which is also
// where mid-path rejects come from; some are initOnlySrc.
func TestSetConformanceRandom(t *testing.T) {
	seeds := 80
	if testing.Short() {
		seeds = 20
	}
	var rejects, everyHopRejects, reports int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*104729 + 17))
		k := 2 + rng.Intn(4)
		members := make([]*Compiled, k)
		everyHop := make([]bool, k)
		for m := range members {
			src := RandomProgram(rng)
			switch rng.Intn(5) {
			case 0:
				src = strings.Replace(src, "header bit<8> h0;", `header bit<8> h0 @ "hdr.alt8";`, 1)
				src = strings.Replace(src, "header bit<16> h1;", `header bit<16> h1 @ "hdr.alt16";`, 1)
			case 1:
				src = initOnlySrc
			}
			c, err := CompileSource(src)
			if err != nil {
				t.Fatalf("seed %d member %d: %v\n%s", seed, m, err, src)
			}
			members[m], everyHop[m] = c, rng.Intn(3) == 0
		}
		s := NewSetRunner(members, everyHop)
		cfg := newRandomConfig(rng)
		for _, r := range s.Members {
			installRandomState(&Harness{tb: t, r: r}, cfg, 3)
		}
		for trace := 0; trace < 3; trace++ {
			// The set's row bindings and their snapshots outlive the
			// members' scalar installs, deletes and clears.
			for _, r := range s.Members {
				if err := r.ChurnScalars(rng, 3, cfg.value); err != nil {
					t.Fatal(err)
				}
			}
			hops := make([]HopSpec, 1+rng.Intn(4))
			for i := range hops {
				hops[i] = HopSpec{
					SW:      uint32(1 + rng.Intn(3)),
					Headers: map[string]uint64{"hdr.h0": cfg.value(8), "hdr.h1": cfg.value(16), "hdr.alt8": cfg.value(8), "hdr.alt16": cfg.value(16)},
					PktLen:  uint32(64 + rng.Intn(1400)),
				}
			}
			outs, err := s.RunTrace(hops)
			if err != nil {
				t.Fatalf("seed %d trace %d: %v", seed, trace, err)
			}
			for m, o := range outs {
				reports += len(o.Reports)
				if o.Reject {
					rejects++
					if everyHop[m] {
						everyHopRejects++
					}
				}
			}
		}
	}
	if rejects == 0 || everyHopRejects == 0 || reports == 0 {
		t.Fatalf("vacuous: %d rejects (%d under CheckEveryHop), %d reports", rejects, everyHopRejects, reports)
	}
}
