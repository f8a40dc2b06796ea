package difftest_test

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkers"
	"repro/internal/difftest"
)

var updateGolden = flag.Bool("update", false, "rewrite golden verdict files")

// goldenOutcome is the pinned result of one canonical trace.
type goldenOutcome struct {
	Reject    bool       `json:"reject"`
	Reports   [][]uint64 `json:"reports"`
	FinalBlob string     `json:"final_blob"` // hex
}

type goldenFile struct {
	Checker string        `json:"checker"`
	Conform goldenOutcome `json:"conform"`
	Violate goldenOutcome `json:"violate"`
}

func toGolden(o difftest.Outcome) goldenOutcome {
	g := goldenOutcome{Reject: o.Reject, Reports: o.Reports, FinalBlob: hex.EncodeToString(o.FinalBlob)}
	if g.Reports == nil {
		g.Reports = [][]uint64{}
	}
	return g
}

// TestGoldenVerdicts replays each checker's canonical conforming and
// violating trace and pins the full agreed outcome — verdict, report
// payloads, and the final telemetry blob — against committed golden
// files. Any semantic change to a checker, the compiler, or a runtime
// shows up here as a readable diff. Refresh with:
//
//	go test ./internal/difftest/ -run TestGoldenVerdicts -update
func TestGoldenVerdicts(t *testing.T) {
	covered := map[string]bool{}
	for _, gt := range goldenTraces {
		gt := gt
		covered[gt.key] = true
		t.Run(gt.key, func(t *testing.T) {
			comp, err := difftest.CompileCorpus(gt.key)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			model := checkers.SymModelFor(gt.key)
			run := func(trace []difftest.HopSpec) difftest.Outcome {
				r := comp.NewRunner()
				if err := r.ApplyModel(model); err != nil {
					t.Fatalf("install model: %v", err)
				}
				out, err := r.RunTrace(trace)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return out
			}
			conform := run(gt.conform)
			violate := run(gt.violate)
			if conform.Violation() {
				t.Errorf("canonical conforming trace violates: %+v", conform)
			}
			if !violate.Violation() {
				t.Errorf("canonical violating trace conforms: %+v", violate)
			}

			got := goldenFile{Checker: gt.key, Conform: toGolden(conform), Violate: toGolden(violate)}
			path := filepath.Join("testdata", "golden", gt.key+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			var want goldenFile
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("bad golden file: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				gotJSON, _ := json.MarshalIndent(got, "", "  ")
				t.Errorf("outcome drifted from golden %s:\n got %s\nwant %s", path, gotJSON, data)
			}
		})
	}
	for _, p := range checkers.All {
		if !covered[p.Key] {
			t.Errorf("corpus checker %s has no canonical golden traces", p.Key)
		}
	}
}

// TestLoopFreedomWindow pins loop-freedom's bound as its contract. The
// checker keeps the last four switches in `tele bit<32>[4] path`, and a
// push onto the full array evicts the oldest entry, so a revisit is
// caught only while the earlier visit is among the four before it:
// 1 2 3 4 1 is rejected, 1 2 3 4 5 1 passes. Every backend agrees on
// each trace (RunTrace fails on a divergence).
func TestLoopFreedomWindow(t *testing.T) {
	comp, err := difftest.CompileCorpus("loop-freedom")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path    []uint32
		reports [][]uint64
	}{
		{[]uint32{1, 2, 1}, [][]uint64{{1}}},
		{[]uint32{1, 2, 3, 4, 1}, [][]uint64{{1}}},
		{[]uint32{1, 2, 3, 4, 5, 1}, nil},
	} {
		trace := make([]difftest.HopSpec, len(tc.path))
		for i, sw := range tc.path {
			trace[i] = difftest.HopSpec{SW: sw}
		}
		out, err := comp.NewRunner().RunTrace(trace)
		if err != nil {
			t.Fatalf("%v: %v", tc.path, err)
		}
		if out.Reject != (tc.reports != nil) || !reflect.DeepEqual(out.Reports, tc.reports) {
			t.Errorf("%v: reject %v, reports %v; want reject %v, reports %v",
				tc.path, out.Reject, out.Reports, tc.reports != nil, tc.reports)
		}
	}
}
