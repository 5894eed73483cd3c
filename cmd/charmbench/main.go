// Command charmbench measures the two evaluation applications on the real
// charm runtime: their strong scaling (paper §4.1, Figure 4), the
// shrink/expand overhead broken into the paper's four phases (§4.2, Figure
// 5), and the Figure 6 iteration timeline around a shrink/expand pair.
//
// Problem sizes are scaled down from the paper's by -scale (the goroutine
// runtime shares one machine rather than 4 EKS nodes, and the paper's grids
// hold gigabytes of state); the curve *shapes* — larger problems scale
// better, overhead grows with replicas and state — are the reproduction
// target. With -scenario or -trace the Jacobi grids (-app jacobi, -mode
// size) come from the job classes of that workload instead of the figure's
// fixed list, and with -availability the replica counts (-app) or the
// rescale transitions (-mode avail) come from a capacity profile, so a
// curve covers exactly what an experiment will run. -parallel N measures N
// cells concurrently (faster, but timings share cores — keep the default
// for publication-quality curves).
//
// Usage (exactly one of -app and -mode):
//
//	charmbench -app jacobi                    # Fig. 4a
//	charmbench -app leanmd                    # Fig. 4b
//	charmbench -app jacobi -scenario burst    # grids drawn from a scenario
//	charmbench -app jacobi -availability spot # replica counts drawn from a
//	                                          # capacity profile's levels
//	charmbench -mode shrink    # Fig. 5a: shrink to half, varying replicas
//	charmbench -mode expand    # Fig. 5b: expand to double, varying replicas
//	charmbench -mode size      # Fig. 5c: shrink 32→16, varying grid size
//	charmbench -mode avail -availability spot # the rescale transitions a
//	                                          # capacity profile would force
//	charmbench -mode timeline  # Fig. 6: per-iteration times around rescales
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"

	"elastichpc/internal/apps"
	"elastichpc/internal/charm"
	"elastichpc/internal/metrics"
	"elastichpc/internal/profiling"
	"elastichpc/internal/runspec"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// The selectors. Each declares the flags it reads; any other flag on the
// command line is rejected rather than silently dropped.
var modes = []runspec.Mode{
	{Name: "-app jacobi", Reads: runspec.Scenario | runspec.Seed | runspec.Availability | runspec.Parallel, Also: []string{"scale", "iters", "maxpes", "json"}},
	{Name: "-app leanmd", Reads: runspec.Seed | runspec.Availability | runspec.Parallel, Also: []string{"iters", "maxpes", "json"}},
	{Name: "-mode shrink", Reads: runspec.Parallel, Also: []string{"scale", "iters", "json"}},
	{Name: "-mode expand", Reads: runspec.Parallel, Also: []string{"scale", "iters", "json"}},
	{Name: "-mode size", Reads: runspec.Scenario | runspec.Seed | runspec.Parallel, Also: []string{"scale", "iters", "json"}},
	{Name: "-mode avail", Reads: runspec.Seed | runspec.Availability | runspec.Parallel, Also: []string{"scale", "iters", "json"}},
	{Name: "-mode timeline", Also: []string{"scale", "iters"}},
}

// cell is one measurement: an application started on from PEs and either
// timed over the run's iterations (to == 0) or rescaled to `to` PEs at the
// run's first load-balancing step; key is its row's leading CSV columns,
// name its entry in the report.
type cell struct {
	key, name string
	from, to  int
	build     func(*charm.Runtime) (*apps.Runner, error)
}

// jacobi builds an n×n Jacobi2D solve overdecomposed 4 chares per PE.
func jacobi(n, pes int) func(*charm.Runtime) (*apps.Runner, error) {
	return func(rt *charm.Runtime) (*apps.Runner, error) {
		bx, by := apps.ChareGrid(4 * pes)
		return apps.NewJacobiRunner(rt, n, bx, by)
	}
}

func main() {
	var (
		app        = flag.String("app", "", "strong scaling of jacobi | leanmd")
		mode       = flag.String("mode", "", "rescale overhead: shrink | expand | size | avail | timeline")
		scale      = flag.Int("scale", 8, "divide paper problem sizes by this factor")
		iterFlag   = flag.Int("iters", 0, "iterations to time (-app) or to run before rescaling (-mode); 0 = 20 for -app, 30 for -mode")
		maxPE      = flag.Int("maxpes", maxReasonablePEs(), "largest replica count to test")
		jsonPath   = flag.String("json", "", "also write the cells as a metrics.Report (kind bench) to this path")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this path on exit")
	)
	// -parallel defaults to one cell at a time: timings share cores above 1.
	spec := runspec.Default()
	spec.Workers = 1
	spec.Bind(flag.CommandLine, runspec.Scenario|runspec.Seed|runspec.Availability|runspec.Parallel)
	flag.Parse()

	if (*app == "") == (*mode == "") {
		log.Fatal("exactly one of -app jacobi|leanmd and -mode shrink|expand|size|avail|timeline selects what to measure")
	}
	selector := "-app " + *app
	if *app == "" {
		selector = "-mode " + *mode
	}
	chosen := slices.IndexFunc(modes, func(m runspec.Mode) bool { return m.Name == selector })
	if chosen < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := runspec.Check(flag.CommandLine, modes, chosen); err != nil {
		log.Fatal(err)
	}
	fromScenario := runspec.Set(flag.CommandLine, runspec.Scenario)
	if runspec.Set(flag.CommandLine, runspec.Seed) && !fromScenario && !runspec.Set(flag.CommandLine, runspec.Availability) {
		log.Fatal("-seed needs -scenario, -trace or -availability: the figures' fixed grids and replica ladders draw nothing")
	}
	spec.Resolve()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	if spec.Workers > 1 {
		fmt.Fprintf(os.Stderr, "# warning: -parallel %d shares cores between cells; timings are noisier\n", spec.Workers)
	}
	defer profiling.Start(*cpuprofile, *memprofile)()

	var (
		header string
		cells  []cell
		err    error
		iters  = cmp.Or(*iterFlag, 30)
	)
	switch {
	case *mode == "timeline":
		// A per-iteration series, not cells: it has no report form.
		if err := runTimeline(*scale, iters); err != nil {
			log.Fatal(err)
		}
		return
	case *mode != "":
		header, cells, err = rescaleCells(*mode, spec, fromScenario, *scale)
	default:
		iters = cmp.Or(*iterFlag, 20)
		header, cells, err = scalingCells(*app, spec, fromScenario, *scale, *maxPE)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(header)
	rows := make([]string, len(cells))
	rep := metrics.New("charmbench", metrics.KindBench)
	rep.Benchmarks = make([]metrics.Benchmark, len(cells))
	if err := sim.RunTasks(len(cells), spec.Workers, func(i int) (err error) {
		rep.Benchmarks[i], rows[i], err = measure(cells[i], iters)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	for i, c := range cells {
		fmt.Printf("%s,%s\n", c.key, rows[i])
		rep.Benchmarks[i].Name = c.name
	}
	if *jsonPath != "" {
		if err := metrics.Write(*jsonPath, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

// maxReasonablePEs caps the sweep at the hardware parallelism: goroutine PEs
// beyond physical cores stop scaling, which would distort the curve shape.
func maxReasonablePEs() int {
	n := runtime.NumCPU()
	p := 2
	for p*2 <= n {
		p *= 2
	}
	return p
}

// scenarioGrids is the distinct Jacobi grids of the job classes the spec's
// scenario submits, each mapped to this host's size.
func scenarioGrids(spec runspec.Spec, scale int, size func(n int) int) ([]int, string, error) {
	grids, source, err := workload.ScenarioGrids(spec.Scenario, spec.Trace, spec.Seed, size)
	if err == nil && len(grids) == 0 {
		err = fmt.Errorf("scenario %q yields no usable grids at -scale %d", spec.Scenario, scale)
	}
	return grids, source, err
}

// scalingCells lays out Figure 4: every problem size of the application on
// every replica count that fits under maxPE. The replica axis is the figure's
// power-of-two ladder, or — with a capacity profile — the distinct capacity
// levels the cluster would pass through, so the curve covers the replica
// counts an availability experiment forces jobs onto.
func scalingCells(app string, spec runspec.Spec, fromScenario bool, scale, maxPE int) (string, []cell, error) {
	profile, err := spec.Profile()
	if err != nil {
		return "", nil, err
	}
	replicas := []int{2, 4, 8, 16, 32, 64}
	if profile != nil {
		levels, err := workload.AvailabilityLevels(profile, spec.Seed, 64, 4*3600)
		if err != nil {
			return "", nil, err
		}
		replicas = slices.DeleteFunc(levels, func(c int) bool { return c < 2 })
		if len(replicas) == 0 {
			return "", nil, fmt.Errorf("availability profile %q yields no usable replica counts", spec.Availability)
		}
		fmt.Fprintf(os.Stderr, "# replica counts from availability profile %q seed %d: %v\n", spec.Availability, spec.Seed, replicas)
	}
	pes := slices.DeleteFunc(slices.Clone(replicas), func(p int) bool { return p > maxPE })
	if len(pes) == 0 {
		return "", nil, fmt.Errorf("no replica counts fit under -maxpes %d (had %v)", maxPE, replicas)
	}

	var cells []cell
	if app == "leanmd" {
		fmt.Println("# Fig 4b: LeanMD strong scaling; time per step (s)")
		for _, d := range [][3]int{{4, 4, 4}, {4, 4, 8}, {4, 8, 8}} {
			for _, p := range pes {
				cells = append(cells, cell{
					key:  fmt.Sprintf("%dx%dx%d,%d", d[0], d[1], d[2], p),
					name: fmt.Sprintf("Fig4bLeanMD/cells=%dx%dx%d/replicas=%d", d[0], d[1], d[2], p),
					from: p,
					build: func(rt *charm.Runtime) (*apps.Runner, error) {
						return apps.NewLeanMDRunner(rt, d[0], d[1], d[2], 48, 2025)
					},
				})
			}
		}
		return "cells,replicas,time_per_step_s", cells, nil
	}
	grids, source := []int{2048 / scale, 8192 / scale, 16384 / scale}, "Fig. 4a defaults"
	if fromScenario {
		if grids, source, err = scenarioGrids(spec, scale, func(n int) int { return n / scale }); err != nil {
			return "", nil, err
		}
	}
	fmt.Printf("# Fig 4a: Jacobi2D strong scaling; time per iteration (s); grids from %s\n", source)
	for _, grid := range grids {
		for _, p := range pes {
			cells = append(cells, cell{
				key:  fmt.Sprintf("%d,%d", grid, p),
				name: fmt.Sprintf("Fig4aJacobi/grid=%d/replicas=%d", grid, p),
				from: p, build: jacobi(grid, p),
			})
		}
	}
	return "grid,replicas,time_per_iter_s", cells, nil
}

// rescaleCells lays out Figure 5: one from→to rescale of a Jacobi grid per
// point of the mode's sweep, keyed on x (replicas before the rescale, grid
// size, or transition index).
func rescaleCells(mode string, spec runspec.Spec, fromScenario bool, scale int) (string, []cell, error) {
	var cells []cell
	x := "replicas"
	add := func(key, from, to, grid int) {
		cells = append(cells, cell{
			key:  fmt.Sprint(key),
			name: fmt.Sprintf("Fig5Rescale/%s/%s=%d", mode, x, key),
			from: from, to: to,
			// Overdecomposed for the larger side of the rescale.
			build: jacobi(grid, max(from, to)),
		})
	}
	switch mode {
	case "shrink":
		fmt.Println("# Fig 5a: shrink to half; x = replicas before shrinking")
		for _, p := range []int{4, 8, 16, 32} {
			add(p, p, p/2, 8192/scale)
		}
	case "expand":
		fmt.Println("# Fig 5b: expand to double; x = replicas before expanding")
		for _, p := range []int{2, 4, 8, 16} {
			add(p, p, p*2, 8192/scale)
		}
	case "size":
		x = "grid"
		grids, source := []int{512 / scale * 8, 2048 / scale * 8, 8192 / scale * 8}, "Fig. 5c defaults"
		if fromScenario {
			var err error
			if grids, source, err = scenarioGrids(spec, scale, func(n int) int { return n / scale * 8 }); err != nil {
				return "", nil, err
			}
		}
		fmt.Printf("# Fig 5c: shrink 32->16; x = grid dimension; grids from %s\n", source)
		for _, n := range grids {
			add(n, 32, 16, n)
		}
	case "avail":
		x = "transition"
		trans, err := availTransitions(spec)
		if err != nil {
			return "", nil, err
		}
		fmt.Printf("# availability transitions of profile %q seed %d (job replicas = capacity/4, grid %d)\n",
			spec.Availability, spec.Seed, 8192/scale)
		for i, tr := range trans {
			fmt.Printf("# transition %d: %d -> %d replicas\n", i, tr[0], tr[1])
			add(i, tr[0], tr[1], 8192/scale)
		}
	}
	return x + ",lb_s,ckpt_s,restart_s,restore_s,total_s,bytes", cells, nil
}

// availTransitions turns a capacity profile's distinct transitions into job
// rescales to measure: each cluster-capacity move from→to becomes a rescale
// at a quarter of the slots (the paper's experiments average ~4 concurrent
// jobs on the 64-slot cluster), clamped to the runtime-practical [2, 32]
// replica range and deduplicated.
func availTransitions(spec runspec.Spec) ([][2]int, error) {
	profile, err := spec.Profile()
	if err != nil {
		return nil, err
	}
	if profile == nil {
		return nil, fmt.Errorf("-mode avail needs -availability")
	}
	trans, err := workload.AvailabilityTransitions(profile, spec.Seed, 64, 4*3600)
	if err != nil {
		return nil, err
	}
	var out [][2]int
	seen := map[[2]int]bool{}
	for _, tr := range trans {
		job := [2]int{min(max(tr[0]/4, 2), 32), min(max(tr[1]/4, 2), 32)}
		if job[0] == job[1] || seen[job] {
			continue
		}
		seen[job] = true
		if out = append(out, job); len(out) == 8 {
			break // the distinct-transition set converges fast; 8 covers it
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("availability profile %q yields no measurable transitions", spec.Availability)
	}
	return out, nil
}

// measure runs one cell for iters iterations and returns its report entry
// and the rest of its CSV row. A timed cell runs without the modelled restart
// latency, which only a rescale pays.
func measure(c cell, iters int) (metrics.Benchmark, string, error) {
	cfg := charm.Config{PEs: c.from}
	if c.to == 0 {
		cfg.RestartLatency = charm.ZeroRestartLatency
	}
	rt, err := charm.New(cfg)
	if err != nil {
		return metrics.Benchmark{}, "", err
	}
	defer rt.Shutdown()
	r, err := c.build(rt)
	if err != nil {
		return metrics.Benchmark{}, "", err
	}
	if c.to == 0 {
		res, err := r.Run(iters)
		t := res.TimePerIteration() // one op = one solver iteration or MD step
		return metrics.Benchmark{Iterations: int64(iters), NsPerOp: float64(t.Nanoseconds())},
			fmt.Sprintf("%.6f", t.Seconds()), err
	}
	r.LBPeriod = iters / 2
	res, err := r.RunWithRescale(iters, c.to)
	if err != nil {
		return metrics.Benchmark{}, "", fmt.Errorf("rescale %d->%d: %w", c.from, c.to, err)
	}
	s := res.Rescales[0].Stats
	return metrics.Benchmark{
			Iterations: 1,
			NsPerOp:    float64(s.Total.Nanoseconds()), // one op = one full rescale
			Custom: map[string]float64{
				"lb_s":      s.LoadBalance.Seconds(),
				"ckpt_s":    s.Checkpoint.Seconds(),
				"restart_s": s.Restart.Seconds(),
				"restore_s": s.Restore.Seconds(),
				"bytes":     float64(s.CheckpointBytes),
			},
		}, fmt.Sprintf("%.4f,%.4f,%.4f,%.4f,%.4f,%d",
			s.LoadBalance.Seconds(), s.Checkpoint.Seconds(), s.Restart.Seconds(),
			s.Restore.Seconds(), s.Total.Seconds(), s.CheckpointBytes), nil
}

// runTimeline reproduces Figure 6: run a Jacobi solve, shrink to half a
// third of the way in, expand back at two thirds, and print per-iteration
// timings and the rescale timestamps.
func runTimeline(scale, iters int) error {
	const from = 8
	rt, err := charm.New(charm.Config{PEs: from})
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	r, err := jacobi(16384/scale, from)(rt)
	if err != nil {
		return err
	}
	r.LBPeriod = iters
	res1, err := r.RunWithRescale(2*iters, from/2)
	if err != nil {
		return err
	}
	res2, err := r.RunWithRescale(iters, from)
	if err != nil {
		return err
	}

	fmt.Println("# Fig 6: iteration,pes,iter_time_s,timestamp_s (gaps at rescales)")
	fmt.Println("iteration,pes,iter_time_s,timestamp_s")
	base := 0.0
	offset := 0
	for _, res := range []apps.RunResult{res1, res2} {
		for _, it := range res.Iterations {
			fmt.Printf("%d,%d,%.5f,%.3f\n", offset+it.Iter, it.PEs, it.Elapsed.Seconds(), base+it.Timestamp.Seconds())
		}
		for _, ev := range res.Rescales {
			fmt.Printf("# rescale %d->%d at t=%.3fs overhead=%v\n", ev.FromPEs, ev.ToPEs, base+ev.Timestamp.Seconds(), ev.Stats.Total)
		}
		offset += len(res.Iterations)
		base += res.Total.Seconds()
	}
	return nil
}
