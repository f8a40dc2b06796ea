package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOrderStatistics(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same data.
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{7, 5}, 4.5, 6, 7.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) || !near(median(tc.xs), tc.med) {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v %v %v", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.med, tc.q3)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if p50, p99 := percentile(xs, 50), percentile(xs, 99); p50 != 50 || p99 != 99 {
		t.Errorf("percentiles of 1..100: p50 %v p99 %v, want 50 and 99", p50, p99)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}

}

// TestQuietWindow checks that the window standing for a run sits at the
// same percentile whatever the number of windows, and that wall and CPU
// time are priced at that window's speed.
func TestQuietWindow(t *testing.T) {
	for _, tc := range []struct{ n, faster int }{{5000, 50}, {600, 6}, {100, 1}, {3, 0}, {1, 0}} {
		var tm timed
		for i := 1; i <= tc.n; i++ {
			// Repetitions of one window: 1000 packets at i packets per second.
			wall := time.Duration(float64(time.Second) * 1000 / float64(i))
			tm.add(sample{wall: wall, packets: 1000, windows: []window{{packets: 1000, wall: wall}}})
		}
		want := float64(tc.n - tc.faster)
		if got := tm.quiet(); math.Abs(got-want) > 1e-6*want || tm.faster() != tc.faster {
			t.Errorf("%d windows: quiet window %v with %d faster, want %v with %d", tc.n, got, tm.faster(), want, tc.faster)
		}
		// The windows tile the repetitions, so pps is the quiet window.
		if got := tm.pps(); math.Abs(got-want) > 1e-6*want {
			t.Errorf("%d windows: pps %v, want the quiet window %v", tc.n, got, want)
		}
	}

	// Two windows of 100 packets: a quiet one of 1 ms and one the
	// neighbours stretched to 3 ms, CPU time alike; 1.5 cores busy.
	var tm timed
	tm.add(sample{wall: 4 * time.Millisecond, cpu: 6 * time.Millisecond, packets: 200,
		windows: []window{{100, time.Millisecond}, {100, 3 * time.Millisecond}}})
	if pps, cpu := tm.pps(), tm.cpuPerPacket(); !near(pps, 100_000) || !near(cpu, 15_000) {
		t.Errorf("pps %v cpu_ns_per_pkt %v, want 100000 and 15000", pps, cpu)
	}
	if raw, rawCPU := tm.rawPPS(), tm.rawCPUPerPacket(); !near(raw, 50_000) || !near(rawCPU, 30_000) {
		t.Errorf("all timed work together: pps %v cpu_ns_per_pkt %v, want 50000 and 30000", raw, rawCPU)
	}
	if f := tm.hostFactor([]window{{100, 3 * time.Millisecond}}); !near(f, 3) {
		t.Errorf("host factor of the stretched window %v, want 3", f)
	}

	// Sessions whose windows cover only half of them: 1000 packets, 10 ms
	// quiet with 5 ms of windows, and the same at half speed throughout.
	// Both are 100000 packets per second on a quiet host.
	var fleet timed
	for _, slow := range []time.Duration{1, 2, 2} {
		fleet.add(sample{wall: slow * 10 * time.Millisecond, packets: 1000,
			windows: []window{{250, slow * 2500 * time.Microsecond}, {250, slow * 2500 * time.Microsecond}}})
	}
	if pps := fleet.pps(); !near(pps, 100_000) {
		t.Errorf("sessions at one and at half speed: pps %v, want 100000", pps)
	}
}

func TestPromValues(t *testing.T) {
	text := `# HELP hydra_worker_batch_seconds Wall time checking one batch.
# TYPE hydra_worker_batch_seconds histogram
hydra_worker_batch_seconds_bucket{le="0.005"} 3
hydra_worker_batch_seconds_bucket{le="+Inf"} 4
hydra_worker_batch_seconds_sum 0.0125
hydra_worker_batch_seconds_count 4
hydra_worker_packets_total{node="a"} 1000
hydra_worker_packets_total{node="b"} 24
hydra_ingest_pps 1.5e+06
`
	got, err := promValues(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"hydra_worker_batch_seconds_sum":   0.0125,
		"hydra_worker_batch_seconds_count": 4,
		"hydra_worker_packets_total":       1024, // same name, labels dropped, summed
		"hydra_ingest_pps":                 1.5e6,
	} {
		if !near(got[name], want) {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if _, err := promValues("hydra_x notanumber\n"); err == nil {
		t.Error("a non-numeric value was accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "parent", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "child", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "child", Start: 20, End: 50, Parent: 0},  // overlaps span 1: 10..50 counted once
		{ID: 3, Name: "child", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{ID: 4, Name: "grandchild", Start: 12, End: 17, Parent: 1},
	}
	want := []int64{50, 15, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestChunkedStage checks that a stage cut into chunks covers its items
// once, one span per chunk under the open span, and that the spans a
// chunk opens are its children.
func TestChunkedStage(t *testing.T) {
	l := &ladder{tr: newTracer("test"), cur: -1}
	covered := 0
	l.stage("round", 0, func() {
		l.chunked("stage", 2*ladderChunk+100, func(lo, hi int) {
			covered += hi - lo
			l.stage("call", 1, func() {})
		})
	})
	wantItems := []int{0, ladderChunk, 1, ladderChunk, 1, 100, 1}
	wantParent := []int{-1, 0, 1, 0, 3, 0, 5}
	if covered != 2*ladderChunk+100 || len(l.tr.spans) != len(wantItems) {
		t.Fatalf("covered %d items in %d spans", covered, len(l.tr.spans))
	}
	for i, s := range l.tr.spans {
		if s.Items != wantItems[i] || s.Parent != wantParent[i] || s.End < s.Start {
			t.Errorf("span %d = %+v, want items %d parent %d", i, s, wantItems[i], wantParent[i])
		}
	}
	if l.cur != -1 {
		t.Errorf("open span after the stage returned: %d", l.cur)
	}
}

func TestNamesAndCatalogue(t *testing.T) {
	if err := checkNames(); err != nil {
		t.Fatal(err)
	}
	if _, err := findWorkload("engine-campus "); err == nil {
		t.Error("an unknown workload name was accepted")
	}
	var res result
	if err := res.fill(endToEnd, map[string]float64{"pps": 1, "cpu_ns_per_pkt": 1, "peak_rss_mb": 1, "setup_s": 1, "ppss": 1}); err == nil {
		t.Error("a value for an undeclared metric was accepted")
	}
	if err := res.fill(endToEnd, map[string]float64{"pps": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's catalogue the
// same list: the driver refuses a run whose metrics differ from the file.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bf struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, file []jsonMetric, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(file), kind, len(prog))
		}
		for i, d := range prog {
			if f := file[i]; f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, f, d)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer())
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// seedCounts draws a small campus input set and returns exact counts
// that depend on the traffic: firewall pairs, capture bytes, digests.
func seedCounts(t *testing.T, seed int64) [3]uint64 {
	t.Helper()
	const n = 4000
	_, pairs := experiments.CampusEnginePackets(n, seed)
	pcap, err := renderCampusPcap(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.RunFleetReference(n, 1, skipSeedEvery, batchSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	return [3]uint64{uint64(len(pairs)), uint64(len(pcap)), ref.Counts.Reports}
}

func TestSeedDeterminism(t *testing.T) {
	a, again, b := seedCounts(t, 1), seedCounts(t, 1), seedCounts(t, 2)
	if a != again {
		t.Errorf("seed 1 gave (pairs, capture bytes, digests) %v, then %v", a, again)
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("seeds 1 and 2 agree on count %d: %v and %v", i, a, b)
		}
	}
}

// TestQuickWorkloads runs every workload once at smoke size: no
// operation may fail, and the result line must hold exactly the
// end-to-end metrics.
func TestQuickWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var report strings.Builder
			res, err := runWorkload(w, options{seed: 1, seconds: 1, quick: true}, &report)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %+v", d.Name, m)
				}
			}
			if !strings.Contains(report.String(), "QUICK") {
				t.Error("a quick run's report is not marked as not comparable")
			}
		})
	}
}

func TestQuickLadder(t *testing.T) {
	spanFile := filepath.Join(t.TempDir(), "spans.jsonl")
	w, err := findWorkload("fleet-campus")
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	res, err := runLadder(w, options{seed: 1, seconds: 1, quick: true, trace: true, spanFile: spanFile}, &report)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%t failed=%d\n%s", res.Correct, res.Failed, report.String())
	}
	for _, d := range perLayer() {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s is missing", d.Name)
		}
		if !strings.Contains(report.String(), d.Name) {
			t.Errorf("the printed ladder does not name %s", d.Name)
		}
	}
	// Ladder sum plus unexplained is the sessions' CPU per packet.
	sum, rest := res.Metrics["fleet.ladder_sum_ns_per_pkt"].Value, res.Metrics["fleet.unexplained_ns_per_pkt"].Value
	if sum <= 0 || sum+rest <= 0 {
		t.Errorf("fleet ladder sum %v + unexplained %v is not a CPU cost per packet", sum, rest)
	}

	f, err := os.Open(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", lines, err)
		}
		if s.End < s.Start || s.Workload != "fleet-campus" || s.Name == "" {
			t.Fatalf("span line %d is malformed: %+v", lines, s)
		}
		lines++
	}
	if lines < 50 {
		t.Errorf("span file has %d spans", lines)
	}
}

// TestWrongReferenceIsCaught arms the storm probe (3 digests per packet)
// but tells the checker to expect 2: every packet must count as failed
// and the broken rule must be named.
func TestWrongReferenceIsCaught(t *testing.T) {
	const n = 2000
	r, err := setupEngine(1, n, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	run := r.(*engineRun)
	good, err := run.rep()
	if err != nil || good.failed != 0 {
		t.Fatalf("correct reference: failed=%d rule=%q err=%v", good.failed, good.rule, err)
	}
	run.want.Reports = 2
	bad, err := run.rep()
	if err != nil {
		t.Fatal(err)
	}
	if bad.failed != n || !strings.Contains(bad.rule, "reports=2") {
		t.Errorf("wrong reference: failed=%d of %d, rule=%q", bad.failed, n, bad.rule)
	}
}
