// Command hydra-bench regenerates every table and figure of the paper's
// evaluation (§6) from the simulated substrate.
//
// Usage:
//
//	hydra-bench -table1                    # Table 1 (LoC, stages, PHV)
//	hydra-bench -fig12a -fig12b            # Figure 12 RTT experiment
//	hydra-bench -throughput                # campus-replay throughput
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
//
// The throughput figure of each deployment shape (engine, storm, wire,
// fleet) is the repository benchmark's: bash bench/run.sh. -cpuprofile
// and -memprofile profile the modes that run; -throughput's second
// replay is the wire path with every checker attached.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// mode is one experiment flag: -name runs run, and -all selects every
// mode that is not standalone. A standalone mode owns the process tree
// and the machine's cores, so it runs alone.
type mode struct {
	name, help string
	standalone bool
	run        func() error
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main returning its exit code instead of calling os.Exit, so the
// deferred profile writers also run when an experiment fails: a profile
// of the failing run is the one worth having.
func run(args []string) (code int) {
	selected, cpuProfile, memProfile, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
		return 1
	}

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
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
	if memProfile != "" {
		defer func() {
			if err := writeHeapProfile(memProfile); err != nil {
				code = fail(err)
			}
		}()
	}

	for _, m := range selected {
		if err := m.run(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// parseFlags registers a flag per mode row plus the options the rows
// read, parses args and returns the selected rows in table order (the
// order they run) with the profile paths. A usage error has been printed
// by the time it returns one.
func parseFlags(args []string) (selected []mode, cpuProfile, memProfile string, err error) {
	fs := flag.NewFlagSet("hydra-bench", flag.ContinueOnError)
	var (
		durationS = fs.Float64("duration", 5, "figure 12: seconds of simulated time per configuration")
		bps       = fs.Int64("bps", 2_000_000_000, "figure 12: background load per direction (bit/s)")
		pingMs    = fs.Float64("ping-ms", 10, "figure 12: ping interval (ms)")
		packets   = fs.Int("packets", 50000, "throughput, storm, chaos, fleet/soak: packets to replay")
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
	)
	fs.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&memProfile, "memprofile", "", "write a heap profile to this file on exit")

	// -fig12a and -fig12b print two renderings of one run.
	var fig12 *experiments.Fig12Result
	runFig12 := func(format func(experiments.Fig12Result) string) error {
		if fig12 == nil {
			fmt.Fprintf(os.Stderr, "running figure 12 experiment (%.1fs sim time x 2 configurations)...\n", *durationS)
			r, err := experiments.RunFig12(experiments.Fig12Config{
				Duration:      netsim.Time(*durationS * float64(netsim.Second)),
				PingInterval:  netsim.Time(*pingMs * float64(netsim.Millisecond)),
				BackgroundBps: *bps,
			})
			if err != nil {
				return err
			}
			fig12 = &r
		}
		fmt.Println(format(*fig12))
		return nil
	}
	runFleet := func(kill bool) error {
		kind := "fleet parity"
		if kill {
			kind = "fleet soak (worker kill/restart)"
		}
		fmt.Fprintf(os.Stderr, "running %s harness (%d packets, %d workers, %d loop(s))...\n",
			kind, *packets, *fleetWorkers, *fleetLoops)
		res, err := experiments.RunFleet(experiments.FleetConfig{
			Packets:  *packets,
			Seed:     *seed,
			Workers:  *fleetWorkers,
			Loops:    *fleetLoops,
			Kill:     kill,
			MaxRSSKB: *fleetRSS,
			BinDir:   *fleetBin,
			Logf:     func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
		})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFleet(res))
		if !res.OK() {
			return errors.New("fleet run failed its acceptance checks")
		}
		return nil
	}

	modes := []mode{
		{"table1", "regenerate Table 1", false, func() error {
			rows, err := experiments.Table1()
			return show(experiments.FormatTable1, rows, err)
		}},
		{"fig12a", "regenerate Figure 12a (RTT over time)", false, func() error { return runFig12(experiments.FormatFig12a) }},
		{"fig12b", "regenerate Figure 12b (RTT CDF + t-test)", false, func() error { return runFig12(experiments.FormatFig12b) }},
		{"throughput", "regenerate the throughput comparison", false, func() error {
			fmt.Fprintln(os.Stderr, "running throughput replay x 2 configurations...")
			base, chk, err := experiments.RunThroughput(experiments.WireReplayConfig{Packets: *packets})
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatThroughput(base, chk))
			return nil
		}},
		{"storm", "run the report-storm replay (baseline vs always-violating probe on the report bus)", false, func() error {
			fmt.Fprintln(os.Stderr, "running report-storm replay (baseline + storm passes)...")
			r, err := experiments.RunStorm(experiments.StormConfig{Packets: *packets, Seed: 5})
			return show(experiments.FormatStorm, r, err)
		}},
		{"chaos", "run the fault-injection campaign and print the checker detection matrix", false, func() error {
			fmt.Fprintf(os.Stderr, "running chaos campaign (seed=%d rate=%g, baseline + %d fault classes)...\n",
				*seed, *faultRate, len(faults.Classes()))
			r, err := experiments.RunChaos(experiments.ChaosConfig{Packets: *packets, Seed: *seed, FaultRate: *faultRate})
			if err := show(experiments.FormatChaos, r, err); err != nil {
				return err
			}
			return writeJSON(*chaosJSON, r.Matrix)
		}},
		{"symcheck", "prove interpreter/map/VM backend equivalence over the modeled space (E13)", false, func() error {
			fmt.Fprintln(os.Stderr, "running symbolic backend-equivalence suite over the checker corpus...")
			r, err := experiments.RunSymcheck(experiments.SymcheckConfig{FrontierDir: *frontierOut, FuzzSeedDir: *fuzzSeedOut})
			if err := show(experiments.FormatSymcheck, r, err); err != nil {
				return err
			}
			if err := writeJSON(*symJSON, r); err != nil {
				return err
			}
			if !r.Passed {
				return errors.New("symcheck failed")
			}
			return nil
		}},
		{"atoms", "run the incremental control-plane verification churn on a fat-tree (E16)", false, func() error {
			fmt.Fprintf(os.Stderr, "running atoms churn (k=%d, %d updates)...\n", *atomsK, *atomsUpdates)
			r, err := experiments.RunAtomsChurn(experiments.AtomsConfig{K: *atomsK, Updates: *atomsUpdates, Seed: *seed})
			return show(experiments.FormatAtoms, r, err)
		}},
		{"fleet", "run the multi-process fleet harness and assert verdict parity with the in-process engine (E17)", true, func() error { return runFleet(false) }},
		{"soak", "run the fleet harness with a worker kill/restart mid-stream; asserts conservation (E17)", true, func() error { return runFleet(true) }},
	}
	set := make([]*bool, len(modes))
	for i, m := range modes {
		set[i] = fs.Bool(m.name, false, m.help)
	}
	all := fs.Bool("all", false, "run every in-process experiment")
	if err := fs.Parse(args); err != nil {
		return nil, "", "", err
	}

	for i, m := range modes {
		if *set[i] || (*all && !m.standalone) {
			selected = append(selected, m)
		}
	}
	if err := validateModes(selected); err != nil {
		fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
		fs.Usage()
		return nil, "", "", err
	}
	return selected, cpuProfile, memProfile, nil
}

// show prints a mode's rendered result, unless the mode failed.
func show[R any](format func(R) string, r R, err error) error {
	if err == nil {
		fmt.Println(format(r))
	}
	return err
}

// writeJSON writes v as indented JSON and a final newline to path, "-"
// being standard output; an empty path writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
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
// and a standalone mode (-fleet, -soak) alone — it owns the machine's
// cores and the measurement, so combining it with another mode would
// skew both.
func validateModes(selected []mode) error {
	var heavy, inproc []string
	for _, m := range selected {
		if m.standalone {
			heavy = append(heavy, m.name)
		} else {
			inproc = append(inproc, m.name)
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
