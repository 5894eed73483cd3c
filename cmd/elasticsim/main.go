// Command elasticsim runs the discrete-event scheduling simulator of paper
// §4.3.1 and prints the series behind Figures 7 and 8 and the Simulation
// columns of Table 1, plus the scenario sweeps of the workload engine.
// Sweeps fan out over a bounded worker pool (-parallel).
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
//	elasticsim -trace wl.csv               # replay a saved trace (JSON or CSV)
//	elasticsim -availability spot          # spot preemptions over the scenario run
//	elasticsim -availability failures -mttf 900          # tune the failure rate
//	elasticsim -sweep gap -seeds 100 -jobs 16   # paper-scale averaging
//	elasticsim -parallel 1 -sweep gap      # sequential reference run
//	elasticsim -scenario burst -shards 8   # shard the event loop by time epoch
//	elasticsim -scenario burst -save-workload wl.json   # export a workload
//	elasticsim -availability spot -save-availability cap.json   # export a capacity trace
//	elasticsim -table1 -json table1.json   # also write a metrics.Report
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/metrics"
	"elastichpc/internal/profiling"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func main() {
	var (
		sweep    = flag.String("sweep", "", `sweep to run: "gap" (Fig. 7), "rescale" (Fig. 8), "scenario", "availability", or "federation"`)
		table1   = flag.Bool("table1", false, "run the Table 1 simulation")
		jobs     = flag.Int("jobs", 16, "jobs per workload (-sweep gap|rescale only; scenarios and traces carry their own job count)")
		seeds    = flag.Int("seeds", 100, "random workloads to average over")
		scenario = flag.String("scenario", "", "workload scenario: uniform | poisson | burst | diurnal | trace")
		tracePth = flag.String("trace", "", "workload trace file to replay (JSON or CSV; implies -scenario trace)")
		parallel = flag.Int("parallel", 0, "sweep worker count (0 = all CPUs, 1 = sequential)")
		shards   = flag.Int("shards", 0, "shard a single run's event loop across N time epochs (0/1 = sequential; results are bit-identical)")
		seed     = flag.Int64("seed", 7, "seed for -scenario / -save-workload runs")
		saveWL   = flag.String("save-workload", "", "write the selected scenario's workload to this path and exit")
		jsonPath = flag.String("json", "", "also write the results as a metrics.Report to this path")

		clusters  = flag.Int("clusters", 1, "member clusters in a federated run (1 = single cluster)")
		routeFl   = flag.String("route", "round_robin", "federation routing policy: round_robin | least_loaded | priority | random")
		skew      = flag.Float64("skew", 0, "federation capacity skew: member i gets base×(1+skew·i) slots")
		rebalance = flag.Float64("rebalance", 0, "federation rebalance round period, seconds (0 = off): checkpoint-migrate jobs off backlogged/draining members")
		migRun    = flag.Bool("migrate-running", false, "let the rebalancer checkpoint-preempt and migrate running jobs off draining members (needs -rebalance)")

		availFl   = flag.String("availability", "", "capacity profile: failures | spot | drain | tides | trace")
		availTr   = flag.String("availability-trace", "", "capacity trace file for -availability trace (implies it)")
		mttf      = flag.Float64("mttf", 0, "failures profile: mean time to failure, seconds (0 = default)")
		mttr      = flag.Float64("mttr", 0, "failures profile: mean time to repair, seconds (0 = default)")
		preempt   = flag.Int("preempt", 0, "spot profile: slots reclaimed per preemption event (0 = default)")
		saveAvail = flag.String("save-availability", "", "write the selected availability profile's capacity trace to this path and exit")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this path on exit")
	)
	flag.Parse()
	defer profiling.Start(*cpuprofile, *memprofile)()
	// explicitScenario distinguishes a user-chosen -scenario from the
	// "-trace implies -scenario trace" normalization below; -sweep
	// scenario keeps its historical default (all scenarios plus the
	// trace) only in the implied case.
	explicitScenario := *scenario != ""
	if *tracePth != "" && *scenario == "" {
		*scenario = "trace"
	}
	if *availTr != "" && *availFl == "" {
		*availFl = "trace"
	}
	// base is the cluster capacity the simulator runs with; availability
	// traces are generated and restored against the same value so outage
	// depths always line up with the simulated cluster.
	base := sim.DefaultConfig(core.Elastic).Capacity
	var profile workload.AvailabilityProfile
	if *availFl != "" {
		var err error
		profile, err = workload.AvailabilityScenario(*availFl, workload.AvailabilityOptions{
			MTTF: *mttf, MTTR: *mttr, PreemptSlots: *preempt, TracePath: *availTr,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	var report *metrics.Report
	params := map[string]string{
		"jobs": strconv.Itoa(*jobs), "seeds": strconv.Itoa(*seeds), "seed": strconv.FormatInt(*seed, 10),
	}
	if profile != nil {
		params["availability"] = profile.Name()
	}
	route, err := federation.RouteByName(*routeFl)
	if err != nil {
		log.Fatal(err)
	}
	// routeSet/clustersSet/jobsSet distinguish explicit flags from their
	// defaults: the federation sweep covers all routes unless one was asked
	// for, and defaults to a 4-member fleet only when -clusters was not given.
	routeSet, clustersSet, jobsSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		routeSet = routeSet || f.Name == "route"
		clustersSet = clustersSet || f.Name == "clusters"
		jobsSet = jobsSet || f.Name == "jobs"
	})
	// -jobs sizes the uniform workloads of the gap and rescale sweeps and
	// nothing else; everywhere else it would be silently ignored.
	if jobsSet && *sweep != "gap" && *sweep != "rescale" {
		log.Fatal("-jobs applies to -sweep gap|rescale only (scenario generators and traces carry their own job count)")
	}
	// Reject -clusters where it would be silently ignored, mirroring the
	// -availability incompatibility errors; the federated branches stamp
	// their clusters/route/skew params themselves, so no report can claim
	// a federation that never ran.
	if *clusters < 1 {
		log.Fatalf("-clusters %d: a federation needs at least 1 member", *clusters)
	}
	if *clusters > 1 {
		if *sweep != "" && *sweep != "federation" {
			log.Fatalf("-clusters does not apply to -sweep %s (use -sweep federation)", *sweep)
		}
		if *table1 {
			log.Fatal("-clusters does not apply to -table1 (the Table 1 reproduction is single-cluster)")
		}
		if *saveWL != "" || *saveAvail != "" {
			log.Fatal("-clusters does not apply to the -save-* export modes")
		}
	} else if (routeSet || *skew != 0 || *rebalance != 0 || *migRun) && *sweep != "federation" {
		// The converse mistake: federation flags on a single-cluster run
		// would be silently dropped.
		log.Fatal("-route/-skew/-rebalance need a federation: pass -clusters N or -sweep federation")
	}
	if *migRun && *rebalance == 0 {
		log.Fatal("-migrate-running needs -rebalance")
	}
	if *rebalance != 0 && *sweep == "federation" {
		log.Fatal("-rebalance does not apply to -sweep federation (it compares routing policies on the batch path)")
	}
	// -shards drives the sharded event loop of a single simulation; sweeps
	// and federations parallelize across runs instead (-parallel), so reject
	// the flag where it would be silently ignored.
	if *shards > 1 && (*sweep != "" || *table1 || *clusters > 1 || *saveWL != "" || *saveAvail != "") {
		log.Fatal("-shards applies to single-cluster single-workload runs (sweeps and federations parallelize with -parallel)")
	}

	switch {
	case *saveAvail != "":
		if profile == nil {
			log.Fatal("-save-availability needs -availability")
		}
		w, _ := pickWorkload(*scenario, *tracePth, *seed)
		tr, err := profile.Events(*seed, base, sim.AvailabilityHorizon(w))
		if err != nil {
			log.Fatal(err)
		}
		comment := fmt.Sprintf("%s profile, seed %d, base %d", profile.Name(), *seed, base)
		if err := workload.SaveAvailabilityFile(*saveAvail, tr, comment); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d capacity events)\n", *saveAvail, len(tr.Events))
	case *sweep == "availability":
		gen := pickGenerator(*scenario, *tracePth)
		profiles := workload.DefaultAvailabilityProfiles()
		if profile != nil {
			profiles = []workload.AvailabilityProfile{profile}
		}
		results, err := sim.AvailabilitySweep(profiles, gen, *seeds, 180, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		printAvailability(results)
		r := metrics.New("elasticsim", metrics.KindSweep)
		r.Params = params
		sw := metrics.FromScenarios(results)
		sw.Name = "availability"
		r.Sweeps = []metrics.Sweep{sw}
		report = &r
	case *saveWL != "":
		w, comment := pickWorkload(*scenario, *tracePth, *seed)
		if err := workload.SaveFile(*saveWL, w, comment); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *saveWL)
	case *sweep == "gap" || *sweep == "rescale":
		// These sweeps are defined over the uniform workload family; a
		// scenario selection would be silently ignored, so reject it.
		if *scenario != "" || *tracePth != "" {
			log.Fatalf("-scenario/-trace do not apply to -sweep %s (use -sweep scenario)", *sweep)
		}
		if profile != nil {
			log.Fatalf("-availability does not apply to -sweep %s (use -sweep availability)", *sweep)
		}
		var points []sim.SweepPoint
		var err error
		xName := "submission_gap"
		if *sweep == "gap" {
			points, err = sim.SubmissionGapSweep([]float64{0, 30, 60, 90, 120, 150, 180, 210, 240, 270, 300}, *jobs, *seeds, 180, *parallel)
		} else {
			xName = "rescale_gap"
			points, err = sim.RescaleGapSweep([]float64{0, 60, 120, 180, 300, 450, 600, 900, 1200}, *jobs, *seeds, 180, *parallel)
		}
		if err != nil {
			log.Fatal(err)
		}
		printSweep(xName, points)
		r := metrics.New("elasticsim", metrics.KindSweep)
		r.Params = params
		r.Sweeps = []metrics.Sweep{metrics.FromSweep(xName, xName+" (s)", points)}
		report = &r
	case *sweep == "federation":
		if profile != nil {
			log.Fatal("-availability does not apply to -sweep federation (set per-member traces through the library)")
		}
		gen := pickGenerator(*scenario, *tracePth)
		n := *clusters
		if !clustersSet {
			n = 4 // default fleet; an explicit -clusters (even 1) is honored
		}
		// Default: every routing policy; with an explicit -route, just that
		// one. -skew applies to the swept fleet either way.
		routes := federation.AllRoutes()
		if routeSet {
			routes = []federation.Route{route}
			params["route"] = route.String()
		}
		params["clusters"] = strconv.Itoa(n)
		params["skew"] = strconv.FormatFloat(*skew, 'g', -1, 64)
		results, err := federation.Sweep(routes, gen, n, *seeds, 180, *skew, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		printRoutes(results)
		r := metrics.New("elasticsim", metrics.KindSweep)
		r.Params = params
		sw := metrics.FromScenarios(results)
		sw.Name = "federation"
		sw.X = "route index"
		r.Sweeps = []metrics.Sweep{sw}
		report = &r
	case *sweep == "scenario":
		if profile != nil {
			log.Fatal("-availability does not apply to -sweep scenario (use -sweep availability)")
		}
		// Default: every built-in scenario, plus the trace if one is given.
		// With -scenario, sweep just that one.
		var gens []workload.Generator
		switch {
		case explicitScenario:
			g, err := workload.Scenario(*scenario, *tracePth)
			if err != nil {
				log.Fatal(err)
			}
			gens = []workload.Generator{g}
		default:
			gens = workload.DefaultScenarios()
			if *tracePth != "" {
				gens = append(gens, workload.Trace{Path: *tracePth})
			}
		}
		results, err := sim.ScenarioSweep(gens, *seeds, 180, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		printScenarios(results)
		r := metrics.New("elasticsim", metrics.KindSweep)
		r.Params = params
		r.Sweeps = []metrics.Sweep{metrics.FromScenarios(results)}
		report = &r
	case *sweep != "":
		log.Fatalf(`unknown sweep %q (have "gap", "rescale", "scenario", "availability", "federation")`, *sweep)
	case *table1:
		if profile != nil {
			log.Fatal("-availability does not apply to -table1 (the Table 1 reproduction is fixed-capacity)")
		}
		report = runTable1(params)
	case *clusters > 1:
		if profile != nil {
			log.Fatal("-availability does not apply to -clusters (set per-member traces through the library)")
		}
		g := pickGenerator(*scenario, *tracePth)
		w, err := g.Generate(*seed)
		if err != nil {
			log.Fatal(err)
		}
		params["clusters"] = strconv.Itoa(*clusters)
		params["route"] = route.String()
		params["skew"] = strconv.FormatFloat(*skew, 'g', -1, 64)
		rb := federation.RebalanceConfig{Every: *rebalance, MigrateRunning: *migRun}
		if *rebalance != 0 {
			params["rebalance"] = strconv.FormatFloat(*rebalance, 'g', -1, 64)
			params["migrate_running"] = strconv.FormatBool(*migRun)
		}
		report = runFederation(g.Name(), w, *clusters, route, *skew, rb, *seed, *parallel, params)
	case *scenario != "" || *tracePth != "" || profile != nil:
		g := pickGenerator(*scenario, *tracePth)
		w, err := g.Generate(*seed)
		if err != nil {
			log.Fatal(err)
		}
		var avail workload.AvailabilityTrace
		if profile != nil {
			horizon := sim.AvailabilityHorizon(w)
			avail, err = profile.Events(*seed, base, horizon)
			if err != nil {
				log.Fatal(err)
			}
			avail = avail.WithRestore(base, horizon)
		}
		if *shards > 1 {
			params["shards"] = strconv.Itoa(*shards)
		}
		report = runWorkload(g.Name(), w, avail, *shards, params)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *jsonPath != "" {
		if report == nil {
			log.Fatalf("-json: mode produces no metrics report")
		}
		if err := metrics.Write(*jsonPath, *report); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

// pickGenerator resolves -scenario/-trace to a workload generator, falling
// back to the paper's uniform 16-job, 90 s-gap scenario when none is given.
func pickGenerator(scenario, tracePath string) workload.Generator {
	if scenario == "" {
		return workload.Uniform{Jobs: 16, Gap: 90}
	}
	g, err := workload.Scenario(scenario, tracePath)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// pickWorkload builds the workload selected by -scenario/-seed; with no
// scenario it falls back to the historical default, the Table 1 workload.
func pickWorkload(scenario, tracePath string, seed int64) (sim.Workload, string) {
	if scenario == "" && tracePath != "" {
		scenario = "trace"
	}
	if scenario == "" {
		return sim.Table1Workload(), "table 1 workload (seed 7, 90s gap)"
	}
	g, err := workload.Scenario(scenario, tracePath)
	if err != nil {
		log.Fatal(err)
	}
	w, err := g.Generate(seed)
	if err != nil {
		log.Fatal(err)
	}
	return w, fmt.Sprintf("%s scenario, seed %d", g.Name(), seed)
}

func printSweep(xName string, points []sim.SweepPoint) {
	fmt.Printf("%s,policy,utilization,total_time_s,weighted_response_s,weighted_completion_s\n", xName)
	for _, pt := range points {
		for _, p := range core.AllPolicies() {
			avg := pt.ByPolicy[p]
			fmt.Printf("%.0f,%s,%.4f,%.1f,%.2f,%.2f\n",
				pt.X, p, avg.Utilization, avg.TotalTime, avg.WeightedResponse, avg.WeightedCompletion)
		}
	}
}

func printScenarios(results []sim.ScenarioResult) {
	fmt.Println("scenario,policy,utilization,total_time_s,weighted_response_s,weighted_completion_s")
	for _, sr := range results {
		for _, p := range core.AllPolicies() {
			avg := sr.ByPolicy[p]
			fmt.Printf("%s,%s,%.4f,%.1f,%.2f,%.2f\n",
				sr.Name, p, avg.Utilization, avg.TotalTime, avg.WeightedResponse, avg.WeightedCompletion)
		}
	}
}

func printAvailability(results []sim.ScenarioResult) {
	fmt.Println("availability,policy,utilization,goodput,total_time_s,weighted_response_s,weighted_completion_s,shrinks,requeues,work_lost_s")
	for _, sr := range results {
		for _, p := range core.AllPolicies() {
			avg := sr.ByPolicy[p]
			fmt.Printf("%s,%s,%.4f,%.4f,%.1f,%.2f,%.2f,%.1f,%.1f,%.1f\n",
				sr.Name, p, avg.Utilization, avg.GoodputFrac, avg.TotalTime,
				avg.WeightedResponse, avg.WeightedCompletion,
				avg.ForcedShrinks, avg.Requeues, avg.WorkLostSec)
		}
	}
}

func printRoutes(results []sim.ScenarioResult) {
	fmt.Println("route,policy,utilization,imbalance,total_time_s,weighted_response_s,weighted_completion_s")
	for _, sr := range results {
		for _, p := range core.AllPolicies() {
			avg := sr.ByPolicy[p]
			fmt.Printf("%s,%s,%.4f,%.4f,%.1f,%.2f,%.2f\n",
				sr.Name, p, avg.Utilization, avg.Imbalance, avg.TotalTime, avg.WeightedResponse, avg.WeightedCompletion)
		}
	}
}

// runFederation routes one workload across a fleet of member clusters under
// every scheduling policy and prints the fleet metrics plus the per-cluster
// job split. workers bounds the member pool like -parallel bounds sweeps;
// a non-zero rb turns on the checkpoint-migrating rebalancer.
func runFederation(name string, w sim.Workload, clusters int, route federation.Route, skew float64, rb federation.RebalanceConfig, seed int64, workers int, params map[string]string) *metrics.Report {
	rebalancing := rb.Every > 0
	if rebalancing {
		fmt.Printf("Routing %d-job %s workload across %d clusters (%s route, skew %g, rebalance every %g s) under all policies\n",
			len(w.Jobs), name, clusters, route, skew, rb.Every)
		fmt.Printf("%-14s %12s %12s %16s %18s %10s %10s %s\n",
			"Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)", "Imbalance", "Migrations", "Jobs/cluster")
	} else {
		fmt.Printf("Routing %d-job %s workload across %d clusters (%s route, skew %g) under all policies\n",
			len(w.Jobs), name, clusters, route, skew)
		fmt.Printf("%-14s %12s %12s %16s %18s %10s %s\n",
			"Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)", "Imbalance", "Jobs/cluster")
	}
	rep := metrics.New("elasticsim", metrics.KindRun)
	rep.Params = params
	for _, p := range core.AllPolicies() {
		base := sim.DefaultConfig(p)
		base.RescaleGap = 180
		r, err := federation.Run(federation.Config{
			Members:   federation.Skewed(base, clusters, skew),
			Route:     route,
			RouteSeed: seed,
			Workers:   workers,
			Rebalance: rb,
		}, w)
		if err != nil {
			log.Fatal(err)
		}
		if rebalancing {
			fmt.Printf("%-14s %12.0f %11.2f%% %16.2f %18.2f %9.2f%% %10d %v\n",
				p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion,
				100*r.Imbalance, len(r.Migrations), r.JobsPerMember)
		} else {
			fmt.Printf("%-14s %12.0f %11.2f%% %16.2f %18.2f %9.2f%% %v\n",
				p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion,
				100*r.Imbalance, r.JobsPerMember)
		}
		rep.Runs = append(rep.Runs, metrics.FromFederation(name, r))
	}
	return &rep
}

func runWorkload(name string, w sim.Workload, avail workload.AvailabilityTrace, shards int, params map[string]string) *metrics.Report {
	withAvail := !avail.Empty()
	if withAvail {
		fmt.Printf("Replaying %d-job %s workload with %d capacity events under all policies (T_rescale_gap = 180 s)\n",
			len(w.Jobs), name, len(avail.Events))
		fmt.Printf("%-14s %12s %12s %16s %18s %9s %8s %8s %12s\n",
			"Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)",
			"Goodput", "Shrinks", "Requeues", "Lost (r·s)")
	} else {
		fmt.Printf("Replaying %d-job %s workload under all policies (T_rescale_gap = 180 s)\n", len(w.Jobs), name)
		fmt.Printf("%-14s %12s %12s %16s %18s\n",
			"Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)")
	}
	rep := metrics.New("elasticsim", metrics.KindRun)
	rep.Params = params
	for _, p := range core.AllPolicies() {
		cfg := sim.DefaultConfig(p)
		cfg.RescaleGap = 180
		cfg.Availability = avail
		cfg.Shards = shards
		s, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := s.Run(w)
		if err != nil {
			log.Fatal(err)
		}
		if withAvail {
			fmt.Printf("%-14s %12.0f %11.2f%% %16.2f %18.2f %8.2f%% %8d %8d %12.1f\n",
				p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion,
				100*r.GoodputFrac, r.ForcedShrinks, r.Requeues, r.WorkLostSec)
		} else {
			fmt.Printf("%-14s %12.0f %11.2f%% %16.2f %18.2f\n",
				p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion)
		}
		rep.Runs = append(rep.Runs, metrics.FromResult(name, r))
	}
	return &rep
}

func runTable1(params map[string]string) *metrics.Report {
	results, err := sim.Table1Simulation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 1 (Simulation columns): 16 jobs, 90 s submission gap, T_rescale_gap = 180 s")
	fmt.Printf("%-14s %12s %12s %16s %18s\n",
		"Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)")
	rep := metrics.New("elasticsim", metrics.KindRun)
	rep.Params = params
	for _, p := range core.AllPolicies() {
		r := results[p]
		fmt.Printf("%-14s %12.0f %11.2f%% %16.2f %18.2f\n",
			p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion)
		rep.Runs = append(rep.Runs, metrics.FromResult("table1", r))
	}
	return &rep
}
