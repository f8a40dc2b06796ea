package difftest_test

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/difftest"
)

// TestSetConformanceCorpus links all 12 corpus checkers into one
// bytecode.Set — the program the engine runs — and replays every golden
// trace and every committed frontier pair through it. SetRunner demands,
// per member, the verdict, reports in order and final telemetry bytes of
// that member's solo run (oracle ≡ map reference ≡ VM); on top of that
// the checker the trace was written for must keep its pinned verdict
// with eleven other programs sharing its PHV.
func TestSetConformanceCorpus(t *testing.T) {
	corpus, err := difftest.CompileCorpusSet()
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for k, p := range checkers.All {
		index[p.Key] = k
	}
	replay := func(s *difftest.SetRunner, key string, trace []difftest.HopSpec) difftest.Outcome {
		t.Helper()
		outs, err := s.RunTrace(corpus[index[key]].ByPath(trace))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return outs[index[key]]
	}
	fresh := func() *difftest.SetRunner {
		t.Helper()
		s, err := difftest.NewCorpusSetRunner(corpus, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// One long-lived runner takes every golden trace in turn, so sensor
	// state and the resident context carry from trace to trace.
	resident := fresh()
	for _, gt := range goldenTraces {
		if out := replay(fresh(), gt.key, gt.conform); out.Violation() {
			t.Errorf("%s: conforming golden trace flagged in the set: %+v", gt.key, out)
		}
		if out := replay(fresh(), gt.key, gt.violate); !out.Violation() {
			t.Errorf("%s: violating golden trace passed in the set", gt.key)
		}
		replay(resident, gt.key, gt.conform)
		replay(resident, gt.key, gt.violate)
	}

	files, err := difftest.LoadFrontierDir(difftest.FrontierSeedDir)
	if err != nil {
		t.Fatalf("loading frontier corpus: %v", err)
	}
	for _, f := range files {
		for i, pair := range f.Pairs {
			c := replay(fresh(), f.Checker, difftest.HopSpecs(pair.Conform))
			if c.Reject != pair.ConformVerdict.Reject || len(c.Reports) != pair.ConformVerdict.Reports {
				t.Errorf("%s pair %d conform (%s): pinned %+v, set %+v", f.Checker, i, pair.Cond, pair.ConformVerdict, c)
			}
			v := replay(fresh(), f.Checker, difftest.HopSpecs(pair.Violate))
			if v.Reject != pair.ViolateVerdict.Reject || len(v.Reports) != pair.ViolateVerdict.Reports {
				t.Errorf("%s pair %d violate (%s): pinned %+v, set %+v", f.Checker, i, pair.Cond, pair.ViolateVerdict, v)
			}
		}
	}
}

// TestSetWireShapeCorpus runs the corpus set with every other member
// checking at every hop — in a switch's image those run their checker in
// the telemetry-only egress pass of a middle hop — through every golden
// trace. SetRunner holds the three set shapes (resident; {init} then
// {telemetry} or {telemetry, checker} per hop over the whole blob; the
// last hop's {checker} alone, when no member checks at every hop) to each
// member's solo run, the every-hop members' on the map reference.
func TestSetWireShapeCorpus(t *testing.T) {
	corpus, err := difftest.CompileCorpusSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, stride := range []int{0, 2} {
		everyHop := make([]bool, len(corpus))
		for k := range everyHop {
			everyHop[k] = stride != 0 && k%stride == 0
		}
		resident, err := difftest.NewCorpusSetRunner(corpus, everyHop)
		if err != nil {
			t.Fatal(err)
		}
		reports := 0
		for k, p := range checkers.All {
			for _, gt := range goldenTraces {
				if gt.key != p.Key {
					continue
				}
				for _, trace := range [][]difftest.HopSpec{gt.conform, gt.violate, gt.conform} {
					outs, err := resident.RunTrace(corpus[k].ByPath(trace))
					if err != nil {
						t.Fatalf("every-hop stride %d, %s: %v", stride, p.Key, err)
					}
					for _, o := range outs {
						reports += len(o.Reports)
					}
				}
			}
		}
		if reports == 0 {
			t.Fatalf("every-hop stride %d: vacuous, no member reported", stride)
		}
	}
}
