// Command elasticsim runs the discrete-event scheduling simulator of paper
// §4.3.1 and prints the series behind Figures 7 and 8 and the Simulation
// columns of Table 1, plus the scenario sweeps of the workload engine.
// Sweeps fan out over a bounded worker pool (-parallel). The run is described
// by a runspec.Spec; each mode below declares the flags it reads, and a flag
// the selected mode does not read is rejected, never silently dropped.
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
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/metrics"
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
	fleetRun
	singleRun
	noMode
)

var modes = []runspec.Mode{
	saveAvailability:  {Name: "-save-availability", Reads: runspec.Scenario | runspec.Seed | runspec.Availability},
	saveWorkload:      {Name: "-save-workload", Reads: runspec.Scenario | runspec.Seed},
	sweepFigure:       {Name: "-sweep gap|rescale", Reads: runspec.Jobs | runspec.Parallel, Also: []string{"seeds"}},
	sweepScenario:     {Name: "-sweep scenario", Reads: runspec.Scenario | runspec.Parallel, Also: []string{"seeds"}},
	sweepAvailability: {Name: "-sweep availability", Reads: runspec.Scenario | runspec.Availability | runspec.Parallel, Also: []string{"seeds"}},
	sweepFederation:   {Name: "-sweep federation", Reads: runspec.Scenario | runspec.Fleet | runspec.Skew | runspec.Parallel, Also: []string{"seeds"}},
	table1:            {Name: "-table1"},
	fleetRun:          {Name: "-clusters N", Reads: runspec.Scenario | runspec.Seed | runspec.Fleet | runspec.Skew | runspec.Rebalance | runspec.Parallel},
	// An explicit -clusters 1 asks for exactly this mode.
	singleRun: {Name: "-scenario/-trace/-availability", Reads: runspec.Scenario | runspec.Seed | runspec.Availability | runspec.Shards, Also: []string{"clusters"}},
	noMode:    {Name: "a run with no mode selected"},
}

var sweeps = map[string]int{
	"gap": sweepFigure, "rescale": sweepFigure, "scenario": sweepScenario,
	"availability": sweepAvailability, "federation": sweepFederation,
}

func main() {
	var (
		sweep     = flag.String("sweep", "", `sweep to run: "gap" (Fig. 7), "rescale" (Fig. 8), "scenario", "availability", or "federation"`)
		doTable1  = flag.Bool("table1", false, "run the Table 1 simulation")
		seeds     = flag.Int("seeds", 100, "random workloads a sweep averages over")
		saveWL    = flag.String("save-workload", "", "write the selected scenario's workload to this path and exit")
		saveAvail = flag.String("save-availability", "", "write the selected availability profile's capacity trace to this path and exit")
		jsonPath  = flag.String("json", "", "also write the results as a metrics.Report to this path")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this path on exit")
	)
	spec := runspec.Default()
	spec.Bind(flag.CommandLine, runspec.Scenario|runspec.Seed|runspec.Jobs|runspec.Availability|
		runspec.Shards|runspec.Fleet|runspec.Skew|runspec.Rebalance|runspec.Parallel)
	flag.Parse()
	defer profiling.Start(*cpuprofile, *memprofile)()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	mode := noMode
	switch {
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
	case spec.Members > 1:
		mode = fleetRun
	case runspec.Set(flag.CommandLine, runspec.Scenario|runspec.Availability):
		mode = singleRun
	}
	if err := runspec.Check(flag.CommandLine, modes, mode); err != nil {
		log.Fatal(err)
	}
	if mode == noMode {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" && (mode == saveAvailability || mode == saveWorkload) {
		log.Fatalf("-json: %s produces no metrics report", modes[mode].Name)
	}
	if err := errors.Join(runspec.TracePath("save-workload", *saveWL), runspec.TracePath("save-availability", *saveAvail)); err != nil {
		log.Fatal(err)
	}
	if mode == sweepFederation && !set["clusters"] {
		spec.Members = 4 // the default swept fleet; an explicit -clusters (even 1) is honored
	}
	spec.Resolve()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	params := runspec.Params(flag.CommandLine, modes[mode])
	gen, err := spec.Generator()
	if err != nil {
		log.Fatal(err)
	}
	profile, err := spec.Profile()
	if err != nil {
		log.Fatal(err)
	}
	// base is the cluster capacity the simulator runs with; availability
	// traces are generated and restored against the same value so outage
	// depths always line up with the simulated cluster.
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
		// Figure 7 varies the submission gap at T_rescale_gap = 180 s;
		// Figure 8 varies T_rescale_gap at a 180 s submission gap.
		xName, run := "submission_gap", sim.SubmissionGapSweep
		xs := []float64{0, 30, 60, 90, 120, 150, 180, 210, 240, 270, 300}
		if *sweep == "rescale" {
			xName, run = "rescale_gap", sim.RescaleGapSweep
			xs = []float64{0, 60, 120, 180, 300, 450, 600, 900, 1200}
		}
		points, err := run(xs, spec.Jobs, *seeds, 180, spec.Workers)
		if err != nil {
			log.Fatal(err)
		}
		sw := metrics.FromSweep(xName, xName+" (s)", points)
		metrics.WriteCSV(os.Stdout, xName, sw, metrics.PaperColumns)
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
		results, err := sim.ScenarioSweep(gens, *seeds, 180, spec.Workers)
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
		results, err := sim.AvailabilitySweep(profiles, gen, *seeds, 180, spec.Workers)
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
		results, err := federation.Sweep(routes, gen, spec.Members, *seeds, 180, spec.Skew, spec.Workers)
		if err != nil {
			log.Fatal(err)
		}
		sw := metrics.FromScenarios(results)
		sw.Name, sw.X = "federation", "route index"
		metrics.WriteCSV(os.Stdout, "route", sw, []string{"utilization", "imbalance", "total_time_s",
			"weighted_response_s", "weighted_completion_s"})
		swept = &sw
	case table1:
		runs = runWorkload("Table 1 (Simulation columns): 16 jobs, 90 s submission gap, T_rescale_gap = 180 s",
			"table1", sim.Table1Workload(), workload.AvailabilityTrace{}, 0)
	case fleetRun:
		w, err := gen.Generate(spec.Seed)
		if err != nil {
			log.Fatal(err)
		}
		runs = runFederation(spec, w)
	case singleRun:
		w, avail, err := sim.Inputs(gen, profile, spec.Seed, base)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("Replaying %d-job %s workload", len(w.Jobs), spec.Scenario)
		if !avail.Empty() {
			title += fmt.Sprintf(" with %d capacity events", len(avail.Events))
		}
		runs = runWorkload(title+" under all policies (T_rescale_gap = 180 s)", spec.Scenario, w, avail, spec.Shards)
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

// runFederation routes one workload across the spec's fleet under every
// scheduling policy and prints the fleet metrics plus the per-cluster job
// split; a non-zero spec.RebalanceEvery turns on the checkpoint-migrating
// rebalancer. Every policy runs before anything is printed, so a run that
// fails leaves stdout empty.
func runFederation(spec runspec.Spec, w workload.Workload) []metrics.Run {
	var results []federation.Result
	for _, p := range core.AllPolicies() {
		r, err := federation.Run(federation.Config{
			Members:   federation.Skewed(sim.DefaultConfig(p), spec.Members, spec.Skew),
			Route:     spec.Route,
			RouteSeed: spec.Seed,
			Workers:   spec.Workers,
			Rebalance: federation.RebalanceConfig{Every: spec.RebalanceEvery, MigrateRunning: spec.MigrateRunning},
		}, w)
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
		len(w.Jobs), spec.Scenario, spec.Members, spec.Route, spec.Skew, round)
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

// runWorkload runs one workload under every policy and prints the table.
func runWorkload(title, name string, w workload.Workload, avail workload.AvailabilityTrace, shards int) []metrics.Run {
	fmt.Println(title)
	var runs []metrics.Run
	for _, p := range core.AllPolicies() {
		cfg := sim.DefaultConfig(p)
		cfg.Availability = avail
		cfg.Shards = shards
		r, err := sim.Run(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, metrics.FromResult(name, r))
	}
	metrics.WritePolicyTable(os.Stdout, runs, !avail.Empty())
	return runs
}
