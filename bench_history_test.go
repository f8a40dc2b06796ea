package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestBenchHistory keeps BENCH_history.jsonl, the committed trajectory
// of the repository benchmark, well-formed: one JSON object a line,
// every workload and metric a name BENCHMARK.json declares, both medians
// positive, and no (pr, workload, metric) recorded twice. Nothing reads
// the file on a packet path; a ledger row appends to it by hand.
func TestBenchHistory(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads, units := map[string]bool{}, map[string]string{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range decl.EndToEnd {
		units[m.Name] = m.Unit
	}

	f, err := os.Open("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]int{}
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	line := 0
	for dec.More() {
		line++
		var r struct {
			PR         int     `json:"pr"`
			Experiment string  `json:"experiment"`
			Workload   string  `json:"workload"`
			Metric     string  `json:"metric"`
			Unit       string  `json:"unit"`
			Parent     float64 `json:"parent"`
			Change     float64 `json:"change"`
			Pairs      int     `json:"pairs"`
			Host       string  `json:"host"`
		}
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		if !workloads[r.Workload] {
			t.Errorf("line %d: workload %q is not in BENCHMARK.json", line, r.Workload)
		}
		if unit, ok := units[r.Metric]; !ok {
			t.Errorf("line %d: metric %q is not an end-to-end metric of BENCHMARK.json", line, r.Metric)
		} else if r.Unit != unit {
			t.Errorf("line %d: %s in %q, BENCHMARK.json says %q", line, r.Metric, r.Unit, unit)
		}
		if r.Parent <= 0 || r.Change <= 0 {
			t.Errorf("line %d: parent %v and change %v must both be positive", line, r.Parent, r.Change)
		}
		if r.PR <= 0 || r.Pairs <= 0 || r.Experiment == "" || r.Host == "" {
			t.Errorf("line %d: pr, pairs, experiment and host must all be set: %+v", line, r)
		}
		key := fmt.Sprintf("%d %s %s", r.PR, r.Workload, r.Metric)
		if first, dup := seen[key]; dup {
			t.Errorf("line %d: (%s) is already on line %d", line, key, first)
		}
		seen[key] = line
	}
	if line == 0 {
		t.Fatal("BENCH_history.jsonl is empty")
	}
}
