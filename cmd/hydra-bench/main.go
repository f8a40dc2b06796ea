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

func main() {
	var (
		table1     = flag.Bool("table1", false, "regenerate Table 1")
		fig12a     = flag.Bool("fig12a", false, "regenerate Figure 12a (RTT over time)")
		fig12b     = flag.Bool("fig12b", false, "regenerate Figure 12b (RTT CDF + t-test)")
		throughput = flag.Bool("throughput", false, "regenerate the throughput comparison")
		engineRun  = flag.Bool("engine", false, "run the sharded checker-engine replay")
		wireRun    = flag.Bool("wire", false, "run the end-to-end wire-path replay")
		stormRun   = flag.Bool("storm", false, "run the report-storm replay (baseline vs always-violating probe on the report bus)")
		chaosRun   = flag.Bool("chaos", false, "run the fault-injection campaign and print the checker detection matrix")
		symRun     = flag.Bool("symcheck", false, "prove interpreter/map/VM backend equivalence over the modeled space (E13)")
		atomsRun   = flag.Bool("atoms", false, "run the incremental control-plane verification churn on a fat-tree (E16)")
		fleetRun   = flag.Bool("fleet", false, "run the multi-process fleet harness and assert verdict parity with the in-process engine (E17)")
		soakRun    = flag.Bool("soak", false, "run the fleet harness with a worker kill/restart mid-stream; asserts conservation (E17)")
		all        = flag.Bool("all", false, "run every in-process experiment")

		durationS = flag.Float64("duration", 5, "figure 12: seconds of simulated time per configuration")
		bps       = flag.Int64("bps", 2_000_000_000, "figure 12: background load per direction (bit/s)")
		pingMs    = flag.Float64("ping-ms", 10, "figure 12: ping interval (ms)")
		packets   = flag.Int("packets", 50000, "throughput: packets to replay")
		shards    = flag.String("shards", "1,4,8", "engine: comma-separated worker counts (0 = GOMAXPROCS)")
		simShards = flag.Int("simshards", 1, "wire/chaos: partition the netsim event loop into N parallel shards (1 = sequential; results are byte-identical at any count)")
		seed      = flag.Int64("seed", 1, "chaos: campaign seed (traffic + every fault injector)")
		faultRate = flag.Float64("faultrate", 0.02, "chaos: per-packet/per-frame fault probability")
		chaosJSON = flag.String("chaosjson", "", "chaos: write the byte-reproducible detection matrix as JSON to this file (- for stdout)")

		atomsK       = flag.Int("atomsk", 8, "atoms: fat-tree arity")
		atomsUpdates = flag.Int("atomsupdates", 2000, "atoms: route mutations to drive")

		fleetWorkers = flag.Int("fleetworkers", 2, "fleet/soak: engine worker processes")
		fleetLoops   = flag.Int("fleetloops", 1, "fleet/soak: replay the capture this many times")
		fleetBin     = flag.String("fleetbin", "", "fleet/soak: directory with prebuilt hydra-{ingestd,workerd,aggd} (empty builds them)")
		fleetRSS     = flag.Uint64("fleetrss", 0, "fleet/soak: fail if any daemon's peak RSS exceeds this many KB (0 = unchecked)")

		symJSON     = flag.String("symjson", "", "symcheck: write the full report as JSON to this file (- for stdout)")
		frontierOut = flag.String("frontierout", "", "symcheck: regenerate the frontier seed corpus into this directory")
		fuzzSeedOut = flag.String("fuzzseedout", "", "symcheck: write FuzzParse seeds for the frontier packets into this directory")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchJSON  = flag.String("benchjson", "", "write engine replay results as JSON to this file (- for stdout)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		must(err)
		must(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			must(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			must(err)
			runtime.GC()
			must(pprof.WriteHeapProfile(f))
			must(f.Close())
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
		flag.Usage()
		os.Exit(2)
	}

	if *table1 {
		rows, err := experiments.Table1()
		must(err)
		fmt.Println(experiments.FormatTable1(rows))
	}

	if *fig12a || *fig12b {
		fmt.Fprintf(os.Stderr, "running figure 12 experiment (%.1fs sim time x 2 configurations)...\n", *durationS)
		r, err := experiments.RunFig12(experiments.Fig12Config{
			Duration:      netsim.Time(*durationS * float64(netsim.Second)),
			PingInterval:  netsim.Time(*pingMs * float64(netsim.Millisecond)),
			BackgroundBps: *bps,
		})
		must(err)
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
		must(err)
		fmt.Println(experiments.FormatThroughput(base, chk))
	}

	var engineResults []experiments.EngineReplayResult
	var batchResult *experiments.EngineReplayResult
	var wireResult *experiments.WireReplayResult
	if *engineRun {
		counts, err := parseShards(*shards)
		must(err)
		for _, n := range counts {
			fmt.Fprintf(os.Stderr, "running engine replay with %d shard(s)...\n", n)
			r, err := experiments.RunEngineReplay(experiments.EngineReplayConfig{
				Packets: *packets, Shards: n,
			})
			must(err)
			engineResults = append(engineResults, r)
		}
		fmt.Println(experiments.FormatEngineReplay(engineResults))
		fmt.Fprintln(os.Stderr, "running batched single-shard replay (no dispatch queues)...")
		r, err := experiments.RunSequentialReplay(experiments.EngineReplayConfig{Packets: *packets, BatchSize: 64})
		must(err)
		batchResult = &r
		fmt.Printf("Batch:  steady-state batched checking, 1 shard: %.0f pkts/s (%.0f ns/pkt)\n\n",
			r.WallPktsPerSec, 1e9/r.WallPktsPerSec)
	}

	if *wireRun {
		fmt.Fprintf(os.Stderr, "running end-to-end wire replay (simshards=%d)...\n", *simShards)
		r, err := experiments.RunWireReplay(experiments.WireReplayConfig{Packets: *packets, SimShards: *simShards})
		must(err)
		wireResult = &r
		fmt.Println(experiments.FormatWireReplay(r))
	}

	var stormResult *experiments.StormResult
	if *stormRun {
		fmt.Fprintln(os.Stderr, "running report-storm replay (baseline + storm passes)...")
		r, err := experiments.RunStorm(experiments.StormConfig{Packets: *packets, Seed: 5})
		must(err)
		stormResult = &r
		fmt.Println(experiments.FormatStorm(r))
	}

	if *chaosRun {
		fmt.Fprintf(os.Stderr, "running chaos campaign (seed=%d rate=%g, baseline + %d fault classes)...\n",
			*seed, *faultRate, len(faults.Classes()))
		r, err := experiments.RunChaos(experiments.ChaosConfig{
			Packets: *packets, Seed: *seed, FaultRate: *faultRate, SimShards: *simShards,
		})
		must(err)
		fmt.Println(experiments.FormatChaos(r))
		if *chaosJSON != "" {
			data, err := r.Matrix.JSON()
			must(err)
			data = append(data, '\n')
			if *chaosJSON == "-" {
				_, err = os.Stdout.Write(data)
				must(err)
			} else {
				must(os.WriteFile(*chaosJSON, data, 0o644))
			}
		}
	}

	if *symRun {
		fmt.Fprintln(os.Stderr, "running symbolic backend-equivalence suite over the checker corpus...")
		r, err := experiments.RunSymcheck(experiments.SymcheckConfig{
			FrontierDir: *frontierOut,
			FuzzSeedDir: *fuzzSeedOut,
		})
		must(err)
		fmt.Println(experiments.FormatSymcheck(r))
		if *symJSON != "" {
			data, err := json.MarshalIndent(r, "", "  ")
			must(err)
			data = append(data, '\n')
			if *symJSON == "-" {
				_, err = os.Stdout.Write(data)
				must(err)
			} else {
				must(os.WriteFile(*symJSON, data, 0o644))
			}
		}
		if !r.Passed {
			fmt.Fprintln(os.Stderr, "hydra-bench: symcheck failed")
			os.Exit(1)
		}
	}

	var atomsResult *experiments.AtomsResult
	if *atomsRun {
		fmt.Fprintf(os.Stderr, "running atoms churn (k=%d, %d updates)...\n", *atomsK, *atomsUpdates)
		r, err := experiments.RunAtomsChurn(experiments.AtomsConfig{
			K: *atomsK, Updates: *atomsUpdates, Seed: *seed,
		})
		must(err)
		atomsResult = &r
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
		must(err)
		fmt.Println(experiments.FormatFleet(res))
		if !res.OK() {
			fmt.Fprintln(os.Stderr, "hydra-bench: fleet run failed its acceptance checks")
			os.Exit(1)
		}
	}

	if *benchJSON != "" {
		if !*engineRun && !*wireRun && !*stormRun && !*atomsRun {
			fmt.Fprintln(os.Stderr, "hydra-bench: -benchjson requires -engine, -wire, -storm or -atoms (or -all)")
			os.Exit(2)
		}
		must(writeBenchJSON(*benchJSON, engineResults, batchResult, wireResult, stormResult, atomsResult))
	}
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

// writeBenchJSON emits the replay results in a flat, machine-readable
// form for dashboards and regression tooling.
func writeBenchJSON(path string, engine []experiments.EngineReplayResult, batch *experiments.EngineReplayResult, wire *experiments.WireReplayResult, storm *experiments.StormResult, atoms *experiments.AtomsResult) error {
	type engineRow struct {
		Shards    int     `json:"shards"`
		Packets   uint64  `json:"packets"`
		Forwarded uint64  `json:"forwarded"`
		Rejected  uint64  `json:"rejected"`
		Reports   uint64  `json:"reports"`
		Errors    uint64  `json:"errors"`
		PPS       float64 `json:"pps"`
	}
	type batchRow struct {
		BatchPPS float64 `json:"batch_pps"`
		NsPerPkt float64 `json:"ns_per_pkt"`
	}
	type wireRow struct {
		PPS       float64 `json:"pps"`
		Delivered uint64  `json:"delivered"`
		Checked   uint64  `json:"checked"`
		Rejected  uint64  `json:"rejected"`
		FastTx    uint64  `json:"fast_tx"`
		SlowTx    uint64  `json:"slow_tx"`
		Errors    uint64  `json:"errors"`
	}
	// simRow surfaces where a partitioned run's barrier time goes:
	// events per run, window count, the lookahead bound, and how evenly
	// the shards split the event load.
	type simRow struct {
		Shards      int      `json:"shards"`
		LookaheadNs int64    `json:"lookahead_ns"`
		Barriers    uint64   `json:"barriers"`
		Events      uint64   `json:"events"`
		ShardEvents []uint64 `json:"shard_events,omitempty"`
	}
	type stormRow struct {
		BaselinePPS float64 `json:"baseline_pps"`
		StormPPS    float64 `json:"storm_pps"`
		PPSRatio    float64 `json:"pps_ratio"`
		Raised      uint64  `json:"raised"`
		Exported    uint64  `json:"exported"`
		Aggregates  uint64  `json:"aggregates"`
		Suppressed  uint64  `json:"suppressed"`
		Overflow    uint64  `json:"overflow"`
		MaxLive     int     `json:"max_live"`
		Unaccounted int64   `json:"unaccounted"`
	}
	type atomsRow struct {
		Atoms       int     `json:"atoms"`
		Routes      int     `json:"routes"`
		ReplayNs    float64 `json:"replay_ns_per_update"`
		ChurnNs     float64 `json:"churn_ns_per_update"`
		MaxAffected int     `json:"max_affected"`
		AvgAffected float64 `json:"avg_affected"`
	}
	out := struct {
		Engine []engineRow `json:"engine,omitempty"`
		Batch  *batchRow   `json:"batch,omitempty"`
		Wire   *wireRow    `json:"wire,omitempty"`
		Sim    *simRow     `json:"sim,omitempty"`
		Storm  *stormRow   `json:"storm,omitempty"`
		Atoms  *atomsRow   `json:"atoms,omitempty"`
	}{}
	if batch != nil {
		out.Batch = &batchRow{
			BatchPPS: batch.WallPktsPerSec,
			NsPerPkt: 1e9 / batch.WallPktsPerSec,
		}
	}
	for _, r := range engine {
		out.Engine = append(out.Engine, engineRow{
			Shards:    r.Shards,
			Packets:   r.Counts.Packets,
			Forwarded: r.Counts.Forwarded,
			Rejected:  r.Counts.Rejected,
			Reports:   r.Counts.Reports,
			Errors:    r.Counts.Errors,
			PPS:       r.WallPktsPerSec,
		})
	}
	if wire != nil {
		out.Wire = &wireRow{
			PPS:       wire.WallPktsPerSec,
			Delivered: wire.Delivered,
			Checked:   wire.Checked,
			Rejected:  wire.Rejected,
			FastTx:    wire.FastTxFrames,
			SlowTx:    wire.SlowTxFrames,
			Errors:    wire.ParseErrors,
		}
		out.Sim = &simRow{
			Shards:      wire.Sim.Shards,
			LookaheadNs: int64(wire.Sim.Lookahead),
			Barriers:    wire.Sim.Barriers,
			Events:      wire.Sim.EventsRun,
			ShardEvents: wire.Sim.ShardEvents,
		}
	}
	if storm != nil {
		out.Storm = &stormRow{
			BaselinePPS: storm.Baseline.WallPktsPerSec,
			StormPPS:    storm.Storm.WallPktsPerSec,
			PPSRatio:    storm.PPSRatio,
			Raised:      storm.Storm.Raised,
			Exported:    storm.Storm.ExportedDigests,
			Aggregates:  storm.Storm.EmittedAggregates,
			Suppressed:  storm.Storm.Suppressed,
			Overflow:    storm.Storm.OverflowDigests,
			MaxLive:     storm.Storm.MaxLiveAggregates,
			Unaccounted: storm.Storm.Unaccounted,
		}
	}
	if atoms != nil {
		out.Atoms = &atomsRow{
			Atoms:       atoms.Atoms,
			Routes:      atoms.Routes,
			ReplayNs:    atoms.ReplayNsPerUpdate,
			ChurnNs:     atoms.ChurnNsPerUpdate,
			MaxAffected: atoms.MaxAffected,
			AvgAffected: atoms.AvgAffected,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
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

func must(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
		os.Exit(1)
	}
}
