package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// runChild runs one workload in a fresh process of this binary, so its
// set-up time and peak memory belong to that workload alone, and
// returns the result line it printed. The child's report is passed
// through when verbose, and only its remarks (broken rules, notes)
// otherwise.
func runChild(workload string, seed int64, seconds float64, trace int, quick, verbose bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace),
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, line := range lines[:len(lines)-1] {
		if verbose {
			fmt.Println(line)
		} else if strings.HasPrefix(line, "  BROKEN ") || strings.HasPrefix(line, "  note ") {
			fmt.Fprintf(os.Stderr, "%s seed %d:%s\n", workload, seed, line)
		}
	}
	if runErr != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last output line is not a result: %w", workload, seed, err)
	}
	return res, nil
}

// runAll runs every workload once, each in its own process.
func runAll(seed int64, seconds float64, trace int, quick bool) error {
	var failed []string
	for _, w := range workloads {
		if _, err := runChild(w.name, seed, seconds, trace, quick, true); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the A/A check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaRuns is how many runs per workload make one set of the A/A check,
// with seeds 1..aaRuns: the sample the bounds in BENCHMARK.json are set
// for.
const aaRuns = 10

// runAA is the acceptance check this benchmark has to pass on unchanged
// code: two sets of runs, one after the other, each set being aaRuns
// runs per workload. For every workload and end-to-end metric it prints
// both medians, how much worse the second is than the first, each set's
// quartile spread as a share of its median, and the bound from
// BENCHMARK.json. It fails when the second median is worse than the
// first by more than the bound or, setup_s apart, a spread exceeds it.
func runAA(seconds float64, quick bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[set][w.name] = map[string][]float64{}
			for seed := int64(1); seed <= aaRuns; seed++ {
				res, err := runChild(w.name, seed, seconds, 0, quick, false)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d:", set+1, w.name, seed)
				for _, m := range bf.EndToEnd {
					fmt.Fprintf(os.Stderr, " %s=%.4f", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	spread := func(xs []float64) float64 {
		if len(xs) < 2 {
			return 0
		}
		q1, q3 := quartiles(xs)
		return (q3 - q1) / median(xs)
	}
	fmt.Printf("%-14s %-15s %14s %14s %8s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "verdict")
	ok := true
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := values[0][w.name][m.Name], values[1][w.name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which %s did not report", m.Name, w.name)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "FAIL"
				ok = false
			}
			fmt.Printf("%-14s %-15s %14.4f %14.4f %+7.2f%% %8.2f%% %8.2f%% %6.0f%%  %s\n",
				w.name, m.Name, ma, mb, worse*100, sa*100, sb*100, m.Bound*100, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("A/A check failed: two sets of runs of the same code disagree by more than a bound")
	}
	return nil
}
