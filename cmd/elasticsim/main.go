// Command elasticsim runs the elastic scheduler of paper §4.3 on one of two
// backends: the discrete-event simulator of §4.3.1 (-backend sim, the
// default) or the full-stack cluster emulation of §4.3.2 (-backend cluster:
// the k8s substrate, the Charm operator and the policy on a virtual clock).
// It prints the series behind Figures 7, 8 and 9, Table 1 (Simulation
// columns, or Actual beside Simulation on the cluster backend), and the
// scenario sweeps of the workload engine. Sweeps fan out over a bounded
// worker pool (-parallel). The run is described by a runspec.Spec; each mode
// below declares the flags it reads, and a flag the selected mode does not
// read is rejected, never silently dropped.
//
// -record FILE records one run instead — one -policy, elastic by default, on
// one simulator, a fleet of simulators (-clusters N, the capacity profile on
// its last member) or the emulation (-backend cluster) — and writes its
// decision stream, with the Meta that re-runs it, to FILE: what conftest
// replays, diffs, and runs in its equivalence matrix. Only the record modes
// read the engine knobs -gap -waves -policy -capacity -rescale-gap
// -streaming -log; the decision log is on unless -log=false.
//
// Usage:
//
//	elasticsim -sweep gap                  # Figure 7: submission-gap sweep
//	elasticsim -sweep rescale              # Figure 8: rescale-gap sweep
//	elasticsim -sweep scenario             # all scenarios × policies × seeds
//	elasticsim -sweep availability         # all capacity profiles × policies × seeds
//	elasticsim -sweep federation           # all routing policies × policies × seeds
//	elasticsim -clusters 4 -route least_loaded -scenario burst   # one federated run
//	elasticsim -clusters 4 -skew 0.5       # heterogeneous fleet (capacity ramp)
//	elasticsim -clusters 4 -rebalance 300 -migrate-running -scenario burst
//	                                       # co-simulated fleet with the
//	                                       # checkpoint-migrating rebalancer
//	elasticsim -table1                     # Table 1, Simulation columns
//	elasticsim -profiles -ascii            # Figure 9a: utilization profiles per policy
//	elasticsim -xlarge-timeline            # Figure 9b: replica evolution of an xlarge job
//	elasticsim -scenario diurnal           # one scenario under all policies
//	elasticsim -trace wl.csv               # replay a saved trace
//	elasticsim -availability spot          # spot preemptions over the scenario run
//	elasticsim -availability failures -mttf 900          # tune the failure rate
//	elasticsim -sweep gap -seeds 100 -jobs 16   # paper-scale averaging
//	elasticsim -parallel 1 -sweep gap      # sequential reference run
//	elasticsim -scenario burst -shards 8   # up to 8 time epochs in parallel (0, the default: automatic; 1: sequential)
//	elasticsim -scenario burst -save-workload wl.csv    # export a workload
//	elasticsim -availability spot -save-availability cap.csv    # export a capacity trace
//	elasticsim -table1 -json table1.json   # also write a metrics.Report
//	elasticsim -table1 -backend cluster    # Table 1, Actual beside Simulation
//	elasticsim -sweep gap -backend cluster -seeds 3     # Figure 7 through the emulation
//	elasticsim -scenario uniform -availability spot -backend cluster
//	                                       # a failure/preemption scenario
//	                                       # through the full emulation
//	elasticsim -clusters 4 -route least_loaded -backend cluster
//	                                       # a fleet of emulated clusters
//	elasticsim -record stream.json -scenario burst -policy moldable
//	                                       # record one run's decision stream
//	elasticsim -record fleet.json -clusters 3 -rebalance 300 -availability drain
//	                                       # record a rebalanced fleet
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"elastichpc/internal/chart"
	"elastichpc/internal/cluster"
	"elastichpc/internal/conformance"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/metrics"
	"elastichpc/internal/model"
	"elastichpc/internal/profiling"
	"elastichpc/internal/runspec"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// The modes, in selection order. Each declares the flags it reads; any other
// flag on the command line is rejected rather than silently dropped.
const (
	saveAvailability = iota
	saveWorkload
	sweepFigure
	sweepScenario
	sweepAvailability
	sweepFederation
	table1
	profiles
	xlargeTimeline
	fleetRun
	singleRun
	fleetCluster
	singleCluster
	recordRun
	recordFleet
	recordCluster
	noMode
)

// recordReads is what -record reads on every backend; each record mode adds
// what its run has a setting for: the emulation has no shards or streaming,
// one cluster no fleet.
const recordReads = runspec.Scenario | runspec.Seed | runspec.Jobs | runspec.Availability

var modes = []runspec.Mode{
	saveAvailability:  {Name: "-save-availability", Reads: runspec.Scenario | runspec.Seed | runspec.Availability},
	saveWorkload:      {Name: "-save-workload", Reads: runspec.Scenario | runspec.Seed},
	sweepFigure:       {Name: "-sweep gap|rescale", Reads: runspec.Jobs | runspec.Parallel, Also: []string{"seeds"}},
	sweepScenario:     {Name: "-sweep scenario", Reads: runspec.Scenario | runspec.Parallel, Also: []string{"seeds"}},
	sweepAvailability: {Name: "-sweep availability", Reads: runspec.Scenario | runspec.Availability | runspec.Parallel, Also: []string{"seeds"}},
	sweepFederation:   {Name: "-sweep federation", Reads: runspec.Scenario | runspec.Fleet | runspec.Skew | runspec.Parallel, Also: []string{"seeds"}},
	table1:            {Name: "-table1"},
	profiles:          {Name: "-profiles", Also: []string{"ascii"}},
	xlargeTimeline:    {Name: "-xlarge-timeline"},
	fleetRun:          {Name: "-clusters N", Reads: runspec.Scenario | runspec.Seed | runspec.Fleet | runspec.Skew | runspec.Rebalance | runspec.Parallel},
	// An explicit -clusters 1 asks for exactly this mode.
	singleRun: {Name: "-scenario/-trace/-availability", Reads: runspec.Scenario | runspec.Seed | runspec.Availability | runspec.Shards, Also: []string{"clusters"}},
	// The emulation has no shards, and its fleet members neither skew nor
	// step for a rebalancer; it checkpoints every -ckpt-period iterations.
	fleetCluster:  {Name: "-clusters N -backend cluster", Reads: runspec.Scenario | runspec.Seed | runspec.Fleet, Also: []string{"ckpt-period"}},
	singleCluster: {Name: "-scenario/-trace/-availability -backend cluster", Reads: runspec.Scenario | runspec.Seed | runspec.Availability, Also: []string{"ckpt-period", "clusters"}},
	recordRun:     {Name: "-record", Reads: recordReads | runspec.Shards | runspec.Engine, Also: []string{"clusters"}},
	recordFleet:   {Name: "-record -clusters N", Reads: runspec.CLI&^runspec.Backend | runspec.Engine},
	recordCluster: {Name: "-record -backend cluster", Reads: recordReads, Also: []string{"gap", "waves", "policy", "capacity",
		"rescale-gap", "log", "clusters"}},
	noMode: {Name: "a run with no mode selected"},
}

// selectors are the flags that select a mode; a command line sets one at most.
var selectors = []string{"record", "save-availability", "save-workload", "sweep", "table1", "profiles", "xlarge-timeline"}

var sweeps = map[string]int{
	"gap": sweepFigure, "rescale": sweepFigure, "scenario": sweepScenario,
	"availability": sweepAvailability, "federation": sweepFederation,
}

// onCluster is the mode each mode runs as on -backend cluster; a mode with no
// entry runs on the simulator only.
var onCluster = map[int]int{
	sweepFigure: sweepFigure, table1: table1, profiles: profiles, xlargeTimeline: xlargeTimeline,
	fleetRun: fleetCluster, singleRun: singleCluster, recordRun: recordCluster, recordFleet: recordCluster, noMode: noMode,
}

func main() {
	var (
		recordTo  = flag.String("record", "", "record one run's decision stream, with the meta that replays it, to this file")
		sweep     = flag.String("sweep", "", `sweep to run: "gap" (Fig. 7), "rescale" (Fig. 8), "scenario", "availability", or "federation"`)
		doTable1  = flag.Bool("table1", false, "run Table 1 (on -backend cluster: Actual beside Simulation)")
		doProfile = flag.Bool("profiles", false, "print Figure 9a utilization profiles")
		ascii     = flag.Bool("ascii", false, "render profiles as ASCII charts instead of CSV")
		xlarge    = flag.Bool("xlarge-timeline", false, "print Figure 9b replica timeline")
		seeds     = flag.Int("seeds", 100, "random workloads a sweep averages over")
		ckpt      = flag.Int("ckpt-period", 1000, "cluster backend: periodic checkpoint interval in iterations for scenario and fleet runs (0 = restart from scratch)")
		saveWL    = flag.String("save-workload", "", "write the selected scenario's workload to this path and exit")
		saveAvail = flag.String("save-availability", "", "write the selected availability profile's capacity trace to this path and exit")
		jsonPath  = flag.String("json", "", "also write the results as a metrics.Report to this path")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this path on exit")
	)
	// The recorded stream is the point of -record, so its log defaults on.
	spec := runspec.Default()
	spec.Log = true
	spec.Bind(flag.CommandLine, runspec.CLI|runspec.Engine)
	// A flag that does not parse is rejected as every other flag is: exit 1.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(1)
	}
	defer profiling.Start(*cpuprofile, *memprofile)()
	set := map[string]bool{}
	var selected []string
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if slices.Contains(selectors, f.Name) {
			selected = append(selected, "-"+f.Name)
		}
	})
	if len(selected) > 1 {
		log.Fatalf("%s: exactly one mode at a time", strings.Join(selected, ", "))
	}

	mode := noMode
	switch {
	case *recordTo != "" && spec.Clusters > 1:
		mode = recordFleet
	case *recordTo != "":
		mode = recordRun
	case *saveAvail != "":
		mode = saveAvailability
	case *saveWL != "":
		mode = saveWorkload
	case *sweep != "":
		var ok bool
		if mode, ok = sweeps[*sweep]; !ok {
			log.Fatalf(`unknown sweep %q (have "gap", "rescale", "scenario", "availability", "federation")`, *sweep)
		}
	case *doTable1:
		mode = table1
	case *doProfile:
		mode = profiles
	case *xlarge:
		mode = xlargeTimeline
	case spec.Clusters > 1:
		mode = fleetRun
	case runspec.Set(flag.CommandLine, runspec.Scenario|runspec.Availability):
		mode = singleRun
	}
	if spec.Backend == "cluster" {
		m, ok := onCluster[mode]
		if !ok {
			log.Fatalf("-backend cluster: %s runs on the simulator only", modes[mode].Name)
		}
		mode = m
	}
	if err := runspec.Check(flag.CommandLine, modes, mode); err != nil {
		log.Fatal(err)
	}
	if *seeds < 1 {
		log.Fatalf("-seeds %d: a sweep averages over at least 1 workload", *seeds)
	}
	if *ckpt < 0 {
		log.Fatalf("-ckpt-period %d: want a checkpoint interval in iterations, or 0 to restart from scratch", *ckpt)
	}
	if *jsonPath != "" && (mode == saveAvailability || mode == saveWorkload || *recordTo != "") {
		log.Fatalf("-json: %s produces no metrics report", modes[mode].Name)
	}
	if err := errors.Join(runspec.TracePath("save-workload", *saveWL), runspec.TracePath("save-availability", *saveAvail)); err != nil {
		log.Fatal(err)
	}
	if mode == sweepFederation && !set["clusters"] {
		spec.Clusters = 4 // the default swept fleet; an explicit -clusters (even 1) is honored
	}
	spec.Resolve()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	if mode == noMode {
		flag.Usage()
		os.Exit(2)
	}
	if *recordTo != "" {
		recordStream(spec, *recordTo)
		return
	}
	params := runspec.Params(flag.CommandLine, modes[mode])
	if spec.Backend != "sim" {
		params["backend"] = spec.Backend
	}
	if mode != singleCluster && mode != fleetCluster {
		*ckpt = 0 // only the scenario and fleet emulations checkpoint
	}
	run := runner(spec.Backend, 180, spec.Shards, *ckpt)
	gen, err := spec.Generator()
	if err != nil {
		log.Fatal(err)
	}
	profile, err := spec.Profile()
	if err != nil {
		log.Fatal(err)
	}
	// base is the cluster capacity both backends run with; availability
	// traces are generated and restored against the same value so outage
	// depths always line up with the cluster.
	base := sim.DefaultConfig(core.Elastic).Capacity

	var runs []metrics.Run
	var swept *metrics.Sweep
	switch mode {
	case saveAvailability:
		if profile == nil {
			log.Fatal("-save-availability needs -availability")
		}
		_, tr, err := sim.Inputs(gen, profile, spec.Seed, base)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.SaveAvailabilityFile(*saveAvail, tr, ""); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d capacity events)\n", *saveAvail, len(tr.Events))
	case saveWorkload:
		w, err := gen.Generate(spec.Seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := workload.SaveFile(*saveWL, w, ""); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *saveWL)
	case sweepFigure:
		sw := sweepGaps(*sweep, spec, *seeds)
		swept = &sw
	case sweepScenario:
		// With -scenario, sweep just that one; otherwise every built-in
		// scenario, plus the trace if one is given.
		gens := []workload.Generator{gen}
		if !set["scenario"] {
			delete(params, "scenario")
			gens = workload.DefaultScenarios()
			if spec.Trace != "" {
				gens = append(gens, gen)
			}
		}
		results, err := sim.ScenarioSweep(gens, *seeds, 180, spec.Parallel)
		if err != nil {
			log.Fatal(err)
		}
		sw := metrics.FromScenarios(results)
		metrics.WriteCSV(os.Stdout, "scenario", sw, metrics.PaperColumns)
		swept = &sw
	case sweepAvailability:
		profiles := workload.DefaultAvailabilityProfiles()
		if profile != nil {
			profiles = []workload.AvailabilityProfile{profile}
		}
		results, err := sim.AvailabilitySweep(profiles, gen, *seeds, 180, spec.Parallel)
		if err != nil {
			log.Fatal(err)
		}
		sw := metrics.FromScenarios(results)
		sw.Name = "availability"
		metrics.WriteCSV(os.Stdout, "availability", sw, []string{"utilization", "goodput", "total_time_s",
			"weighted_response_s", "weighted_completion_s", "shrinks", "requeues", "work_lost_s"})
		swept = &sw
	case sweepFederation:
		// With -route, sweep just that one; otherwise every routing policy.
		routes := []federation.Route{spec.Route}
		if !set["route"] {
			delete(params, "route")
			routes = federation.AllRoutes()
		}
		results, err := federation.Sweep(routes, gen, spec.Clusters, *seeds, 180, spec.Skew, spec.Parallel)
		if err != nil {
			log.Fatal(err)
		}
		sw := metrics.FromScenarios(results)
		sw.Name, sw.X = "federation", "route index"
		metrics.WriteCSV(os.Stdout, "route", sw, []string{"utilization", "imbalance", "total_time_s",
			"weighted_response_s", "weighted_completion_s"})
		swept = &sw
	case table1:
		if spec.Backend == "cluster" {
			runs = runTable1(run, runner("sim", 180, 0, 0))
			break
		}
		runs = runWorkload(run, "Table 1 (Simulation columns): 16 jobs, 90 s submission gap, T_rescale_gap = 180 s",
			"table1", sim.Table1Workload(), workload.AvailabilityTrace{})
	case profiles:
		runs = runProfiles(run, *ascii)
	case xlargeTimeline:
		runs, params["job"] = runXLargeTimeline(run)
	case fleetRun, fleetCluster:
		w, err := gen.Generate(spec.Seed)
		if err != nil {
			log.Fatal(err)
		}
		runs = runFederation(spec, w, *ckpt)
	case singleRun, singleCluster:
		w, avail, err := sim.Inputs(gen, profile, spec.Seed, base)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("Replaying %d-job %s workload", len(w.Jobs), spec.Scenario)
		if !avail.Empty() {
			title += fmt.Sprintf(" with %d capacity events", len(avail.Events))
		}
		runs = runWorkload(run, title+" under all policies (T_rescale_gap = 180 s)", spec.Scenario, w, avail)
	}

	if *jsonPath != "" {
		report := metrics.New("elasticsim", metrics.KindRun)
		report.Params, report.Runs = params, runs
		if swept != nil {
			report.Kind, report.Sweeps = metrics.KindSweep, []metrics.Sweep{*swept}
		}
		if err := metrics.Write(*jsonPath, report); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

// recordStream records the spec's run through the conformance harness, as
// every matrix cell runs, and writes its stream to path.
func recordStream(spec runspec.Spec, path string) {
	st, err := conformance.RunSpec(spec).Execute()
	if err != nil {
		log.Fatal(err)
	}
	if err := st.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d decisions to %s\n", st.DecisionCount(), path)
}

// runFunc runs one workload under one policy, on a backend runner chose.
type runFunc func(core.Policy, workload.Workload, workload.AvailabilityTrace) (sim.Result, error)

// runner is the per-policy run of the named backend at the given rescale gap
// (seconds): the simulator at the given shard count, or the cluster
// emulation checkpointing every ckpt iterations. Every mode that runs on both
// backends calls what it returns.
func runner(backend string, rescaleGap float64, shards, ckpt int) runFunc {
	if backend == "cluster" {
		return func(p core.Policy, w workload.Workload, avail workload.AvailabilityTrace) (sim.Result, error) {
			cfg := cluster.DefaultConfig(p)
			cfg.RescaleGap = model.Duration(rescaleGap)
			cfg.Availability, cfg.CheckpointPeriod = avail, ckpt
			return cluster.RunExperiment(cfg, w)
		}
	}
	return func(p core.Policy, w workload.Workload, avail workload.AvailabilityTrace) (sim.Result, error) {
		cfg := sim.DefaultConfig(p)
		cfg.RescaleGap, cfg.Availability, cfg.Shards = rescaleGap, avail, shards
		return sim.Run(cfg, w)
	}
}

// runPolicies runs w under every policy, in core.AllPolicies order.
func runPolicies(run runFunc, w workload.Workload, avail workload.AvailabilityTrace) []sim.Result {
	results := make([]sim.Result, 0, len(core.AllPolicies()))
	for _, p := range core.AllPolicies() {
		r, err := run(p, w, avail)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
	}
	return results
}

// sweepGaps runs the Figure 7 (gap) or Figure 8 (rescale) sweep and prints
// its CSV. Figure 7 varies the submission gap at T_rescale_gap = 180 s;
// Figure 8 varies T_rescale_gap at a 180 s submission gap. The cluster
// backend runs the same grid through the emulation, cell by cell on the
// -parallel pool.
func sweepGaps(which string, spec runspec.Spec, seeds int) metrics.Sweep {
	xName, xs := "submission_gap", []float64{0, 30, 60, 90, 120, 150, 180, 210, 240, 270, 300}
	if which == "rescale" {
		xName, xs = "rescale_gap", []float64{0, 60, 120, 180, 300, 450, 600, 900, 1200}
	}
	var points []sim.SweepPoint
	var err error
	switch {
	case spec.Backend == "cluster":
		points, err = sim.SweepGrid(xs, seeds, spec.Parallel, func(x float64, p core.Policy, seed int64) (sim.Result, error) {
			gap, rescaleGap := x, 180.0
			if which == "rescale" {
				gap, rescaleGap = 180, x
			}
			w, err := workload.Uniform{Jobs: spec.Jobs, Gap: gap}.Generate(seed)
			if err != nil {
				return sim.Result{}, err
			}
			return runner(spec.Backend, rescaleGap, 0, 0)(p, w, workload.AvailabilityTrace{})
		}, (*sim.AverageResult).Accumulate)
	case which == "rescale":
		points, err = sim.RescaleGapSweep(xs, spec.Jobs, seeds, 180, spec.Parallel)
	default:
		points, err = sim.SubmissionGapSweep(xs, spec.Jobs, seeds, 180, spec.Parallel)
	}
	if err != nil {
		log.Fatal(err)
	}
	sw := metrics.FromSweep(xName, xName+" (s)", points)
	metrics.WriteCSV(os.Stdout, xName, sw, metrics.PaperColumns)
	return sw
}

// runFederation routes one workload across the spec's fleet under every
// scheduling policy and prints the fleet metrics plus the per-cluster job
// split. The members are simulators, skewed by spec.Skew, or on the cluster
// backend emulated clusters checkpointing every ckpt iterations; a non-zero
// spec.RebalanceEvery turns on the checkpoint-migrating rebalancer, which
// steps simulator members only. Every policy runs before anything is
// printed, so a run that fails leaves stdout empty.
func runFederation(spec runspec.Spec, w workload.Workload, ckpt int) []metrics.Run {
	var results []federation.Result
	for _, p := range core.AllPolicies() {
		cfg := federation.Config{
			Route:     spec.Route,
			RouteSeed: spec.Seed,
			Workers:   spec.Parallel,
			Rebalance: federation.RebalanceConfig{Every: spec.RebalanceEvery, MigrateRunning: spec.MigrateRunning},
		}
		if spec.Backend == "cluster" {
			member := cluster.DefaultConfig(p)
			member.CheckpointPeriod = ckpt
			cfg.Backends = slices.Repeat([]federation.Member{federation.ClusterMember{Config: member}}, spec.Clusters)
		} else {
			cfg.Members = federation.Skewed(sim.DefaultConfig(p), spec.Clusters, spec.Skew)
		}
		r, err := federation.Run(cfg, w)
		if err != nil && spec.Skew != 0 {
			err = fmt.Errorf("-skew %g: %w", spec.Skew, err)
		}
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, r)
	}
	// With the rebalancer on, the header names its period and a Migrations
	// column sits before the per-cluster job split.
	round, migrations := "", ""
	if spec.RebalanceEvery > 0 {
		round = fmt.Sprintf(", rebalance every %g s", spec.RebalanceEvery)
		migrations = fmt.Sprintf(" %10s", "Migrations")
	}
	fmt.Printf("Routing %d-job %s workload across %d clusters (%s route, skew %g%s) under all policies\n",
		len(w.Jobs), spec.Scenario, spec.Clusters, spec.Route, spec.Skew, round)
	fmt.Printf("%-14s %12s %12s %16s %18s %10s%s %s\n",
		"Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)", "Imbalance", migrations, "Jobs/cluster")
	var runs []metrics.Run
	for i, p := range core.AllPolicies() {
		r := results[i]
		if spec.RebalanceEvery > 0 {
			migrations = fmt.Sprintf(" %10d", len(r.Migrations))
		}
		fmt.Printf("%-14s %12.0f %11.2f%% %16.2f %18.2f %9.2f%%%s %v\n",
			p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion,
			100*r.Imbalance, migrations, r.JobsPerMember)
		runs = append(runs, metrics.FromFederation(spec.Scenario, r))
	}
	return runs
}

// runWorkload runs one workload under every policy, then prints the title
// and the table.
func runWorkload(run runFunc, title, name string, w workload.Workload, avail workload.AvailabilityTrace) []metrics.Run {
	var runs []metrics.Run
	for _, r := range runPolicies(run, w, avail) {
		runs = append(runs, metrics.FromResult(name, r))
	}
	fmt.Println(title)
	metrics.WritePolicyTable(os.Stdout, runs, !avail.Empty())
	return runs
}

// runTable1 prints Table 1's Actual columns, the emulation's runs of the
// fixed workload, beside its Simulation columns.
func runTable1(actual, simulated runFunc) []metrics.Run {
	w := sim.Table1Workload()
	act := runPolicies(actual, w, workload.AvailabilityTrace{})
	simRes := runPolicies(simulated, w, workload.AvailabilityTrace{})
	fmt.Println("Table 1: Actual (full k8s emulation) vs Simulation (DES), same fixed 16-job workload")
	fmt.Printf("%-14s %10s %10s | %8s %8s | %9s %9s | %9s %9s\n",
		"Scheduler", "Tot.act", "Tot.sim", "Util.act", "Util.sim", "Resp.act", "Resp.sim", "Comp.act", "Comp.sim")
	var runs []metrics.Run
	for i, p := range core.AllPolicies() {
		a, s := act[i], simRes[i]
		fmt.Printf("%-14s %10.0f %10.0f | %7.2f%% %7.2f%% | %9.2f %9.2f | %9.2f %9.2f\n",
			p, a.TotalTime, s.TotalTime,
			100*a.Utilization, 100*s.Utilization,
			a.WeightedResponse, s.WeightedResponse,
			a.WeightedCompletion, s.WeightedCompletion)
		runs = append(runs, metrics.FromResult("table1-actual", a), metrics.FromResult("table1-sim", s))
	}
	return runs
}

// runProfiles prints Figure 9a: every policy's busy slots over time on the
// Table 1 workload, as CSV or as ASCII charts.
func runProfiles(run runFunc, ascii bool) []metrics.Run {
	var runs []metrics.Run
	var series []chart.Series
	if !ascii {
		fmt.Println("policy,t_seconds,used_slots")
	}
	for i, res := range runPolicies(run, sim.Table1Workload(), workload.AvailabilityTrace{}) {
		p := core.AllPolicies()[i]
		runs = append(runs, metrics.FromResult("fig9a", res))
		if ascii {
			s := chart.Series{Name: fmt.Sprintf("%s (mean %.1f%%)", p, 100*res.Utilization)}
			for _, u := range res.UtilTimeline {
				s.Points = append(s.Points, chart.Point{X: u.At, Y: float64(u.Used)})
			}
			series = append(series, s)
			continue
		}
		for _, s := range res.UtilTimeline {
			fmt.Printf("%s,%.1f,%d\n", p, s.At, s.Used)
		}
	}
	if ascii {
		fmt.Print(chart.RenderMulti(series, chart.Options{Width: 72, Height: 8, YMin: 0, YMax: 64, YLabel: "busy worker slots"}))
	}
	return runs
}

// runXLargeTimeline prints Figure 9b, "an xlarge job that rescales multiple
// times": the replica timeline of the Table 1 workload's xlarge job with the
// most rescale events under the elastic policy. It returns the run and the
// job's ID.
func runXLargeTimeline(run runFunc) ([]metrics.Run, string) {
	w := sim.Table1Workload()
	res, err := run(core.Elastic, w, workload.AvailabilityTrace{})
	if err != nil {
		log.Fatal(err)
	}
	timelines := make(map[string][]sim.ReplicaSample, len(res.Jobs))
	for _, j := range res.Jobs {
		timelines[j.ID] = j.Timeline
	}
	specs := model.Specs()
	var best string
	bestLen := 0
	for _, js := range w.Jobs {
		if specs[js.Class].Class != model.XLarge {
			continue
		}
		if tl := timelines[js.ID]; len(tl) > bestLen {
			best, bestLen = js.ID, len(tl)
		}
	}
	if best == "" {
		log.Fatal("workload contains no xlarge job")
	}
	fmt.Printf("job,%s\n", best)
	fmt.Println("t_seconds,replicas")
	for _, s := range timelines[best] {
		fmt.Printf("%.1f,%d\n", s.At, s.Replicas)
	}
	return []metrics.Run{metrics.FromResult("fig9b", res)}, best
}
