// Command hydra-bench regenerates every table and figure of the paper's
// evaluation (§6) from the simulated substrate.
//
// Usage:
//
//	hydra-bench -table1                    # Table 1 (LoC, stages, PHV)
//	hydra-bench -fig12a -fig12b            # Figure 12 RTT experiment
//	hydra-bench -throughput                # campus-replay throughput
//	hydra-bench -engine -shards 1,4,8      # sharded checker-engine replay
//	hydra-bench -wire                      # end-to-end wire-path replay
//	hydra-bench -storm                     # report-storm replay on the bus
//	hydra-bench -chaos -seed 1 -faultrate 0.02   # fault-injection detection matrix
//	hydra-bench -symcheck                  # symbolic backend-equivalence proof
//	hydra-bench -atoms                     # incremental control-plane verification churn
//	hydra-bench -fleet                     # multi-process fleet parity harness
//	hydra-bench -soak                      # fleet harness with a worker kill/restart
//	hydra-bench -all                       # every in-process experiment
//
// -fleet and -soak spawn the hydra-ingestd/workerd/aggd process tree
// and therefore cannot be combined with the in-process modes (or each
// other) in one invocation.
//
// Figure 12's duration/background scale with -duration and -bps; see
// EXPERIMENTS.md for how the defaults relate to the paper's setup.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main returning its exit code instead of calling os.Exit, so the
// deferred profile writers also run when an experiment fails: a profile
// of the failing run is the one worth having.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("hydra-bench", flag.ContinueOnError)
	var (
		table1     = fs.Bool("table1", false, "regenerate Table 1")
		fig12a     = fs.Bool("fig12a", false, "regenerate Figure 12a (RTT over time)")
		fig12b     = fs.Bool("fig12b", false, "regenerate Figure 12b (RTT CDF + t-test)")
		throughput = fs.Bool("throughput", false, "regenerate the throughput comparison")
		engineRun  = fs.Bool("engine", false, "run the sharded checker-engine replay")
		wireRun    = fs.Bool("wire", false, "run the end-to-end wire-path replay")
		stormRun   = fs.Bool("storm", false, "run the report-storm replay (baseline vs always-violating probe on the report bus)")
		chaosRun   = fs.Bool("chaos", false, "run the fault-injection campaign and print the checker detection matrix")
		symRun     = fs.Bool("symcheck", false, "prove interpreter/map/VM backend equivalence over the modeled space (E13)")
		atomsRun   = fs.Bool("atoms", false, "run the incremental control-plane verification churn on a fat-tree (E16)")
		fleetRun   = fs.Bool("fleet", false, "run the multi-process fleet harness and assert verdict parity with the in-process engine (E17)")
		soakRun    = fs.Bool("soak", false, "run the fleet harness with a worker kill/restart mid-stream; asserts conservation (E17)")
		all        = fs.Bool("all", false, "run every in-process experiment")

		durationS = fs.Float64("duration", 5, "figure 12: seconds of simulated time per configuration")
		bps       = fs.Int64("bps", 2_000_000_000, "figure 12: background load per direction (bit/s)")
		pingMs    = fs.Float64("ping-ms", 10, "figure 12: ping interval (ms)")
		packets   = fs.Int("packets", 50000, "throughput: packets to replay")
		shards    = fs.String("shards", "1,4,8", "engine: comma-separated worker counts (0 = GOMAXPROCS)")
		simShards = fs.Int("simshards", 1, "wire/chaos: partition the netsim event loop into N parallel shards (1 = sequential; results are byte-identical at any count)")
		seed      = fs.Int64("seed", 1, "chaos: campaign seed (traffic + every fault injector)")
		faultRate = fs.Float64("faultrate", 0.02, "chaos: per-packet/per-frame fault probability")
		chaosJSON = fs.String("chaosjson", "", "chaos: write the byte-reproducible detection matrix as JSON to this file (- for stdout)")

		atomsK       = fs.Int("atomsk", 8, "atoms: fat-tree arity")
		atomsUpdates = fs.Int("atomsupdates", 2000, "atoms: route mutations to drive")

		fleetWorkers = fs.Int("fleetworkers", 2, "fleet/soak: engine worker processes")
		fleetLoops   = fs.Int("fleetloops", 1, "fleet/soak: replay the capture this many times")
		fleetBin     = fs.String("fleetbin", "", "fleet/soak: directory with prebuilt hydra-{ingestd,workerd,aggd} (empty builds them)")
		fleetRSS     = fs.Uint64("fleetrss", 0, "fleet/soak: fail if any daemon's peak RSS exceeds this many KB (0 = unchecked)")

		symJSON     = fs.String("symjson", "", "symcheck: write the full report as JSON to this file (- for stdout)")
		frontierOut = fs.String("frontierout", "", "symcheck: regenerate the frontier seed corpus into this directory")
		fuzzSeedOut = fs.String("fuzzseedout", "", "symcheck: write FuzzParse seeds for the frontier packets into this directory")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				code = fail(err)
			}
		}()
	}

	if *all {
		*table1, *fig12a, *fig12b, *throughput, *engineRun, *wireRun, *stormRun, *chaosRun, *symRun, *atomsRun = true, true, true, true, true, true, true, true, true, true
	}
	var selected []string
	for _, m := range []struct {
		name string
		set  bool
	}{
		{"table1", *table1}, {"fig12a", *fig12a}, {"fig12b", *fig12b},
		{"throughput", *throughput}, {"engine", *engineRun}, {"wire", *wireRun},
		{"storm", *stormRun}, {"chaos", *chaosRun}, {"symcheck", *symRun},
		{"atoms", *atomsRun}, {"fleet", *fleetRun}, {"soak", *soakRun},
	} {
		if m.set {
			selected = append(selected, m.name)
		}
	}
	if err := validateModes(selected); err != nil {
		fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
		fs.Usage()
		return 2
	}

	if *table1 {
		rows, err := experiments.Table1()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatTable1(rows))
	}

	if *fig12a || *fig12b {
		fmt.Fprintf(os.Stderr, "running figure 12 experiment (%.1fs sim time x 2 configurations)...\n", *durationS)
		r, err := experiments.RunFig12(experiments.Fig12Config{
			Duration:      netsim.Time(*durationS * float64(netsim.Second)),
			PingInterval:  netsim.Time(*pingMs * float64(netsim.Millisecond)),
			BackgroundBps: *bps,
		})
		if err != nil {
			return fail(err)
		}
		if *fig12a {
			fmt.Println(experiments.FormatFig12a(r))
		}
		if *fig12b {
			fmt.Println(experiments.FormatFig12b(r))
		}
	}

	if *throughput {
		fmt.Fprintln(os.Stderr, "running throughput replay x 2 configurations...")
		base, chk, err := experiments.RunThroughput(experiments.ThroughputConfig{Packets: *packets})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatThroughput(base, chk))
	}

	if *engineRun {
		counts, err := parseShards(*shards)
		if err != nil {
			return fail(err)
		}
		var results []experiments.EngineReplayResult
		for _, n := range counts {
			fmt.Fprintf(os.Stderr, "running engine replay with %d shard(s)...\n", n)
			r, err := experiments.RunEngineReplay(experiments.EngineReplayConfig{
				Packets: *packets, Shards: n,
			})
			if err != nil {
				return fail(err)
			}
			results = append(results, r)
		}
		fmt.Println(experiments.FormatEngineReplay(results))
		fmt.Fprintln(os.Stderr, "running batched single-shard replay (no dispatch queues)...")
		r, err := experiments.RunSequentialReplay(experiments.EngineReplayConfig{Packets: *packets, BatchSize: 64})
		if err != nil {
			return fail(err)
		}
		fmt.Printf("Batch:  steady-state batched checking, 1 shard: %.0f pkts/s (%.0f ns/pkt)\n\n",
			r.WallPktsPerSec, 1e9/r.WallPktsPerSec)
	}

	if *wireRun {
		fmt.Fprintf(os.Stderr, "running end-to-end wire replay (simshards=%d)...\n", *simShards)
		r, err := experiments.RunWireReplay(experiments.WireReplayConfig{Packets: *packets, SimShards: *simShards})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatWireReplay(r))
	}

	if *stormRun {
		fmt.Fprintln(os.Stderr, "running report-storm replay (baseline + storm passes)...")
		r, err := experiments.RunStorm(experiments.StormConfig{Packets: *packets, Seed: 5})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatStorm(r))
	}

	if *chaosRun {
		fmt.Fprintf(os.Stderr, "running chaos campaign (seed=%d rate=%g, baseline + %d fault classes)...\n",
			*seed, *faultRate, len(faults.Classes()))
		r, err := experiments.RunChaos(experiments.ChaosConfig{
			Packets: *packets, Seed: *seed, FaultRate: *faultRate, SimShards: *simShards,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatChaos(r))
		if *chaosJSON != "" {
			data, err := r.Matrix.JSON()
			if err == nil {
				err = writeOutput(*chaosJSON, data)
			}
			if err != nil {
				return fail(err)
			}
		}
	}

	if *symRun {
		fmt.Fprintln(os.Stderr, "running symbolic backend-equivalence suite over the checker corpus...")
		r, err := experiments.RunSymcheck(experiments.SymcheckConfig{
			FrontierDir: *frontierOut,
			FuzzSeedDir: *fuzzSeedOut,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatSymcheck(r))
		if *symJSON != "" {
			data, err := json.MarshalIndent(r, "", "  ")
			if err == nil {
				err = writeOutput(*symJSON, data)
			}
			if err != nil {
				return fail(err)
			}
		}
		if !r.Passed {
			return fail(errors.New("symcheck failed"))
		}
	}

	if *atomsRun {
		fmt.Fprintf(os.Stderr, "running atoms churn (k=%d, %d updates)...\n", *atomsK, *atomsUpdates)
		r, err := experiments.RunAtomsChurn(experiments.AtomsConfig{
			K: *atomsK, Updates: *atomsUpdates, Seed: *seed,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatAtoms(r))
	}

	if *fleetRun || *soakRun {
		kind := "fleet parity"
		if *soakRun {
			kind = "fleet soak (worker kill/restart)"
		}
		fmt.Fprintf(os.Stderr, "running %s harness (%d packets, %d workers, %d loop(s))...\n",
			kind, *packets, *fleetWorkers, *fleetLoops)
		res, err := experiments.RunFleet(experiments.FleetConfig{
			Packets:  *packets,
			Seed:     *seed,
			Workers:  *fleetWorkers,
			Loops:    *fleetLoops,
			Kill:     *soakRun,
			MaxRSSKB: *fleetRSS,
			BinDir:   *fleetBin,
			Logf:     func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
		})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatFleet(res))
		if !res.OK() {
			return fail(errors.New("fleet run failed its acceptance checks"))
		}
	}
	return 0
}

// writeOutput writes data and a final newline to path, "-" being
// standard output.
func writeOutput(path string, data []byte) error {
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeHeapProfile writes the heap profile, after a collection so it
// shows what is live.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close() // the write error is the one reported
		return err
	}
	return f.Close()
}

// validateModes enforces the mode-flag contract: at least one mode,
// and the process-tree modes (-fleet, -soak) standalone — they own
// the machine's cores and the measurement, so combining them with
// each other or with in-process experiments would skew both.
func validateModes(selected []string) error {
	var heavy, inproc []string
	for _, m := range selected {
		if m == "fleet" || m == "soak" {
			heavy = append(heavy, m)
		} else {
			inproc = append(inproc, m)
		}
	}
	if len(heavy) > 1 {
		return fmt.Errorf("-%s and -%s are mutually exclusive", heavy[0], heavy[1])
	}
	if len(heavy) == 1 && len(inproc) > 0 {
		return fmt.Errorf("-%s cannot be combined with -%s: the fleet harness runs standalone", heavy[0], inproc[0])
	}
	if len(selected) == 0 {
		return fmt.Errorf("no mode selected: pass one or more experiment flags (or -all), or -fleet / -soak")
	}
	return nil
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -shards value %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
