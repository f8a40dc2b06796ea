package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// chainFrom is the first PR the pps trajectory chains from: PR 26 (E29),
// the first ledger row after identical code read 1.36–1.48× apart
// between E27 and E28.
const chainFrom = 26

// TestBenchHistory keeps BENCH_history.jsonl, the committed trajectory
// of the repository benchmark, well-formed: one JSON object a line,
// every workload and metric a name BENCHMARK.json declares, both medians
// positive, and no (pr, workload, metric) recorded twice. Nothing reads
// the file on a packet path; a ledger row appends to it by hand.
//
// Absolute medians from different PRs ran in different sessions and are
// not comparable; each row's change/parent ratio is. The test logs, per
// workload, the product of the pps ratios from chainFrom on and the PRs
// that contributed (go test -run TestBenchHistory -v .).
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
	chain, chainPRs := map[string]float64{}, map[string][]string{}
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
		if r.Metric == "pps" && r.PR >= chainFrom {
			if _, ok := chain[r.Workload]; !ok {
				chain[r.Workload] = 1
			}
			chain[r.Workload] *= r.Change / r.Parent
			chainPRs[r.Workload] = append(chainPRs[r.Workload], fmt.Sprint(r.PR))
		}
	}
	if line == 0 {
		t.Fatal("BENCH_history.jsonl is empty")
	}
	var names []string
	for w := range chain {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		t.Logf("%s pps since PR %d: ×%.3f over PRs %s", w, chainFrom, chain[w], strings.Join(chainPRs[w], ", "))
	}
}
