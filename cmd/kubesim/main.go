// Command kubesim runs the full-stack cluster emulation of paper §4.3.2
// (k8s substrate + Charm operator + elastic policy on a virtual clock) and
// prints the Actual columns of Table 1 and the Figure 9 timelines.
//
// Usage:
//
//	kubesim -table1            # Table 1, Actual columns
//	kubesim -profiles          # Figure 9a: utilization profiles per policy
//	kubesim -xlarge-timeline   # Figure 9b: replica evolution of an xlarge job
//	kubesim -scenario uniform -availability spot   # failure/preemption scenario
//	                                               # through the full emulation
//	kubesim -clusters 4 -route least_loaded        # a fleet of emulated clusters
//	                                               # behind the federation router
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"elastichpc/internal/chart"
	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/metrics"
	"elastichpc/internal/model"
	"elastichpc/internal/runspec"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

var ascii = flag.Bool("ascii", false, "render profiles as ASCII charts instead of CSV")

// The modes, in selection order (main's run table is parallel). Each declares
// the flags it reads; any other flag on the command line is rejected rather
// than silently dropped.
var modes = []runspec.Mode{
	{Name: "-table1"},
	{Name: "-profiles", Also: []string{"ascii"}},
	{Name: "-xlarge-timeline"},
	{Name: "-sweep", Also: []string{"seeds"}},
	{Name: "-clusters N", Reads: runspec.Scenario | runspec.Seed | runspec.Fleet, Also: []string{"ckpt-period"}},
	// An explicit -clusters 1 asks for exactly this mode.
	{Name: "-scenario/-trace/-availability", Reads: runspec.Scenario | runspec.Seed | runspec.Availability, Also: []string{"ckpt-period", "clusters"}},
	{Name: "a run with no mode selected"},
}

func main() {
	var (
		table1   = flag.Bool("table1", false, "run the Table 1 Actual experiment")
		profiles = flag.Bool("profiles", false, "print Figure 9a utilization profiles")
		xlarge   = flag.Bool("xlarge-timeline", false, "print Figure 9b replica timeline")
		sweep    = flag.Bool("sweep", false, "cross-validate the Figure 7 submission-gap sweep through the emulation")
		seeds    = flag.Int("seeds", 3, "workloads per sweep point (emulation sweeps are slower than DES)")
		jsonPath = flag.String("json", "", "also write the results as a metrics.Report to this path")
		ckpt     = flag.Int("ckpt-period", 1000, "periodic checkpoint interval in iterations for scenario runs (0 = restart from scratch)")
	)
	spec := runspec.Default()
	spec.Bind(flag.CommandLine, runspec.Scenario|runspec.Seed|runspec.Availability|runspec.Fleet)
	flag.Parse()

	mode := len(modes) - 1
	for i, on := range []bool{*table1, *profiles, *xlarge, *sweep, spec.Members > 1,
		runspec.Set(flag.CommandLine, runspec.Scenario|runspec.Availability)} {
		if on {
			mode = i
			break
		}
	}
	if err := runspec.Check(flag.CommandLine, modes, mode); err != nil {
		log.Fatal(err)
	}
	spec.Resolve()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	run := []func() *metrics.Report{
		runTable1, runProfiles, runXLargeTimeline,
		func() *metrics.Report { return runSweep(*seeds) },
		func() *metrics.Report { return runFleet(spec, *ckpt) },
		func() *metrics.Report { return runScenario(spec, *ckpt) },
	}
	if mode == len(run) {
		flag.Usage()
		os.Exit(2)
	}
	report := run[mode]()
	if report.Params == nil {
		report.Params = runspec.Params(flag.CommandLine, modes[mode])
	}

	if *jsonPath != "" {
		if err := metrics.Write(*jsonPath, *report); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

// runScenario emulates one seeded workload scenario — optionally under a
// time-varying capacity profile — for every policy: the kubesim twin of
// `elasticsim -scenario X -availability Y`, deriving its inputs from the same
// spec so the two backends stay directly comparable.
func runScenario(spec runspec.Spec, ckpt int) *metrics.Report {
	gen, err := spec.Generator()
	if err != nil {
		log.Fatal(err)
	}
	profile, err := spec.Profile()
	if err != nil {
		log.Fatal(err)
	}
	if profile != nil {
		fmt.Printf("Emulating %s workload under %s capacity profile (seed %d, ckpt every %d iters)\n",
			gen.Name(), profile.Name(), spec.Seed, ckpt)
	} else {
		fmt.Printf("Emulating %s workload (seed %d)\n", gen.Name(), spec.Seed)
	}
	rep := metrics.New("kubesim", metrics.KindRun)
	for _, p := range core.AllPolicies() {
		cfg := cluster.DefaultConfig(p)
		cfg.CheckpointPeriod = ckpt
		res, err := cluster.RunAvailability(cfg, gen, profile, spec.Seed)
		if err != nil {
			log.Fatal(err)
		}
		rep.Runs = append(rep.Runs, metrics.FromResult(gen.Name(), res))
	}
	metrics.WritePolicyTable(os.Stdout, rep.Runs, profile != nil)
	return &rep
}

// runFleet emulates one seeded workload scenario on a federation of
// emulated clusters: each member is a full cluster.RunExperiment backend
// plugged into the fleet router through the federation Member interface, so
// the routing layer is exercised against the emulation rather than the
// simulator. Rebalancing needs steppable (simulator) members and is
// deliberately not offered here; use `elasticsim -clusters -rebalance` for
// the co-simulated fleet.
func runFleet(spec runspec.Spec, ckpt int) *metrics.Report {
	gen, err := spec.Generator()
	if err != nil {
		log.Fatal(err)
	}
	w, err := gen.Generate(spec.Seed)
	if err != nil {
		log.Fatal(err)
	}
	rep := metrics.New("kubesim", metrics.KindRun)
	fmt.Printf("Emulating %s workload across %d clusters, %s routing (seed %d)\n",
		spec.Scenario, spec.Members, spec.Route, spec.Seed)
	fmt.Printf("%-14s %12s %12s %16s %18s %10s %14s\n",
		"Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)",
		"Imbalance", "Jobs/cluster")
	for _, p := range core.AllPolicies() {
		backends := make([]federation.Member, spec.Members)
		for i := range backends {
			cfg := cluster.DefaultConfig(p)
			cfg.CheckpointPeriod = ckpt
			backends[i] = federation.ClusterMember{Config: cfg}
		}
		res, err := federation.Run(federation.Config{Backends: backends, Route: spec.Route, RouteSeed: spec.Seed}, w)
		if err != nil {
			log.Fatal(err)
		}
		counts := make([]string, len(res.JobsPerMember))
		for i, n := range res.JobsPerMember {
			counts[i] = fmt.Sprint(n)
		}
		fmt.Printf("%-14s %12.0f %11.2f%% %16.2f %18.2f %10.3f %14s\n",
			p, res.TotalTime, 100*res.Utilization, res.WeightedResponse, res.WeightedCompletion,
			res.Imbalance, strings.Join(counts, "/"))
		rep.Runs = append(rep.Runs, metrics.FromFederation(spec.Scenario, res))
	}
	return &rep
}

// runSweep replays the Figure 7 submission-gap sweep through the full
// emulation — the cross-validation the paper could not afford on real EKS
// (their sweep is simulation-only because "an experimental study ... would
// be infeasible"; a deterministic virtual-clock emulation makes it cheap).
func runSweep(seeds int) *metrics.Report {
	pts, err := sim.SweepGrid([]float64{0, 60, 120, 180, 240, 300}, seeds, 1,
		func(gap float64, p core.Policy, seed int64) (sim.Result, error) {
			w, err := workload.Uniform{Jobs: 16, Gap: gap}.Generate(seed)
			if err != nil {
				return sim.Result{}, err
			}
			return cluster.RunExperiment(cluster.DefaultConfig(p), w)
		}, (*sim.AverageResult).Accumulate)
	if err != nil {
		log.Fatal(err)
	}
	sw := metrics.FromSweep("submission_gap_actual", "submission gap (s)", pts)
	metrics.WriteCSV(os.Stdout, "submission_gap", sw, metrics.PaperColumns)
	rep := metrics.New("kubesim", metrics.KindSweep)
	rep.Sweeps = []metrics.Sweep{sw}
	return &rep
}

func runTable1() *metrics.Report {
	results, err := cluster.Table1Actual()
	if err != nil {
		log.Fatal(err)
	}
	simResults, err := sim.Table1Simulation()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table 1: Actual (full k8s emulation) vs Simulation (DES), same fixed 16-job workload")
	fmt.Printf("%-14s %10s %10s | %8s %8s | %9s %9s | %9s %9s\n",
		"Scheduler", "Tot.act", "Tot.sim", "Util.act", "Util.sim", "Resp.act", "Resp.sim", "Comp.act", "Comp.sim")
	rep := metrics.New("kubesim", metrics.KindRun)
	for _, p := range core.AllPolicies() {
		a, s := results[p], simResults[p]
		fmt.Printf("%-14s %10.0f %10.0f | %7.2f%% %7.2f%% | %9.2f %9.2f | %9.2f %9.2f\n",
			p, a.TotalTime, s.TotalTime,
			100*a.Utilization, 100*s.Utilization,
			a.WeightedResponse, s.WeightedResponse,
			a.WeightedCompletion, s.WeightedCompletion)
		rep.Runs = append(rep.Runs,
			metrics.FromResult("table1-actual", a), metrics.FromResult("table1-sim", s))
	}
	return &rep
}

func runProfiles() *metrics.Report {
	w := sim.Table1Workload()
	var series []chart.Series
	if !*ascii {
		fmt.Println("policy,t_seconds,used_slots")
	}
	rep := metrics.New("kubesim", metrics.KindRun)
	for _, p := range core.AllPolicies() {
		res, err := cluster.RunExperiment(cluster.DefaultConfig(p), w)
		if err != nil {
			log.Fatal(err)
		}
		rep.Runs = append(rep.Runs, metrics.FromResult("fig9a", res))
		if *ascii {
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
	if *ascii {
		fmt.Print(chart.RenderMulti(series, chart.Options{Width: 72, Height: 8, YMin: 0, YMax: 64, YLabel: "busy worker slots"}))
	}
	return &rep
}

func runXLargeTimeline() *metrics.Report {
	w := sim.Table1Workload()
	res, err := cluster.RunExperiment(cluster.DefaultConfig(core.Elastic), w)
	if err != nil {
		log.Fatal(err)
	}
	// Pick the xlarge job with the most rescale events (Figure 9b shows
	// "an xlarge job that rescales multiple times").
	specs := model.Specs()
	var best string
	bestLen := 0
	for _, js := range w.Jobs {
		if specs[js.Class].Class != model.XLarge {
			continue
		}
		if tl := res.ReplicaTimelines[js.ID]; len(tl) > bestLen {
			best, bestLen = js.ID, len(tl)
		}
	}
	if best == "" {
		log.Fatal("workload contains no xlarge job")
	}
	fmt.Printf("job,%s\n", best)
	fmt.Println("t_seconds,replicas")
	for _, s := range res.ReplicaTimelines[best] {
		fmt.Printf("%.1f,%d\n", s.At, s.Replicas)
	}
	rep := metrics.New("kubesim", metrics.KindRun)
	rep.Params = map[string]string{"job": best}
	rep.Runs = []metrics.Run{metrics.FromResult("fig9b", res)}
	return &rep
}
