// Command rescale-bench measures the shrink/expand overhead of the real
// charm runtime, broken into the paper's four phases (§4.2, Figure 5), plus
// the Figure 6 iteration timeline around a shrink/expand pair.
//
// Grid sizes are scaled down from the paper's (which assume a 64-vCPU
// cluster and gigabytes of state); pass -scale 1 to attempt paper-size grids.
// With -scenario or -trace, the -mode size grid set is derived from the job
// classes of that workload scenario, so the overhead curve covers the state
// sizes an experiment will actually move. -parallel N measures N points
// concurrently (faster, noisier).
//
// Usage:
//
//	rescale-bench -mode shrink    # Fig. 5a: shrink to half, varying replicas
//	rescale-bench -mode expand    # Fig. 5b: expand to double, varying replicas
//	rescale-bench -mode size      # Fig. 5c: shrink 32→16, varying grid size
//	rescale-bench -mode size -scenario diurnal   # grids from a scenario
//	rescale-bench -mode avail -availability spot # measure the exact rescale
//	                                             # transitions a capacity
//	                                             # profile would force
//	rescale-bench -mode timeline  # Fig. 6: per-iteration times around rescales
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"elastichpc/internal/apps"
	"elastichpc/internal/charm"
	"elastichpc/internal/metrics"
	"elastichpc/internal/runspec"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// point is one measurement cell: a from→to rescale of an n×n grid, keyed on
// x (replicas for shrink/expand modes, grid size for size mode).
type point struct {
	x, from, to, grid int
}

func main() {
	var (
		mode     = flag.String("mode", "", "shrink | expand | size | avail | timeline")
		scale    = flag.Int("scale", 8, "divide paper grid sizes by this factor")
		iters    = flag.Int("iters", 30, "iterations to run before rescaling")
		jsonPath = flag.String("json", "", "also write the phase breakdown as a metrics.Report (kind bench); not supported by -mode timeline")
	)
	// -parallel defaults to one point at a time: timings share cores above 1.
	spec := runspec.Default()
	spec.Workers = 1
	spec.Bind(flag.CommandLine, runspec.Scenario|runspec.Seed|runspec.Availability|runspec.Parallel)
	flag.Parse()
	fromScenario := spec.Scenario != "" || spec.Trace != ""
	spec.Resolve()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	if spec.Availability != "" && *mode != "avail" {
		log.Fatalf("-availability only applies to -mode avail, not -mode %s", *mode)
	}
	if spec.Workers > 1 {
		fmt.Fprintf(os.Stderr, "# warning: -parallel %d shares cores between points; timings are noisier\n", spec.Workers)
	}
	if fromScenario && *mode != "size" {
		// Scenarios select grid sizes, which only the size sweep varies.
		log.Fatalf("-scenario/-trace do not apply to -mode %s (only -mode size derives grids from a scenario)", *mode)
	}

	var points []point
	switch *mode {
	case "shrink":
		fmt.Println("# Fig 5a: shrink to half; x = replicas before shrinking")
		for _, p := range []int{4, 8, 16, 32} {
			points = append(points, point{x: p, from: p, to: p / 2, grid: 8192 / *scale})
		}
	case "expand":
		fmt.Println("# Fig 5b: expand to double; x = replicas before expanding")
		for _, p := range []int{2, 4, 8, 16} {
			points = append(points, point{x: p, from: p, to: p * 2, grid: 8192 / *scale})
		}
	case "size":
		grids, source, err := sizeGrids(spec, fromScenario, *scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# Fig 5c: shrink 32->16; x = grid dimension; grids from %s\n", source)
		for _, n := range grids {
			points = append(points, point{x: n, from: 32, to: 16, grid: n})
		}
	case "avail":
		pts, err := availPoints(spec, *scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# availability transitions of profile %q seed %d (job replicas = capacity/4, grid %d)\n",
			spec.Availability, spec.Seed, 8192 / *scale)
		for _, pt := range pts {
			fmt.Printf("# transition %d: %d -> %d replicas\n", pt.x, pt.from, pt.to)
		}
		points = pts
	case "timeline":
		if *jsonPath != "" {
			log.Fatal("-json does not apply to -mode timeline (per-iteration series has no report form)")
		}
		runTimeline(*scale, *iters)
		return
	default:
		flag.Usage()
		os.Exit(2)
	}

	header := "replicas"
	switch *mode {
	case "size":
		header = "grid"
	case "avail":
		header = "transition"
	}
	fmt.Printf("%s,lb_s,ckpt_s,restart_s,restore_s,total_s,bytes\n", header)
	rows := make([]charm.RescaleStats, len(points))
	if err := sim.RunTasks(len(points), spec.Workers, func(i int) error {
		rows[i] = runOnce(points[i], *iters)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	rep := metrics.New("rescale-bench", metrics.KindBench)
	for i, pt := range points {
		s := rows[i]
		fmt.Printf("%d,%.4f,%.4f,%.4f,%.4f,%.4f,%d\n", pt.x,
			s.LoadBalance.Seconds(), s.Checkpoint.Seconds(), s.Restart.Seconds(),
			s.Restore.Seconds(), s.Total.Seconds(), s.CheckpointBytes)
		rep.Benchmarks = append(rep.Benchmarks, metrics.Benchmark{
			Name:       fmt.Sprintf("Fig5Rescale/%s/%s=%d", *mode, header, pt.x),
			Iterations: 1,
			NsPerOp:    float64(s.Total.Nanoseconds()), // one op = one full rescale
			Custom: map[string]float64{
				"lb_s":      s.LoadBalance.Seconds(),
				"ckpt_s":    s.Checkpoint.Seconds(),
				"restart_s": s.Restart.Seconds(),
				"restore_s": s.Restore.Seconds(),
				"bytes":     float64(s.CheckpointBytes),
			},
		})
	}
	if *jsonPath != "" {
		if err := metrics.Write(*jsonPath, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

// availPoints turns a capacity profile's distinct transitions into rescale
// measurement points: each cluster-capacity move from→to becomes a job
// rescale at a quarter of the slots (the paper's experiments average ~4
// concurrent jobs on the 64-slot cluster), clamped to the runtime-practical
// [2, 32] replica range and deduplicated. x is the transition index.
func availPoints(spec runspec.Spec, scale int) ([]point, error) {
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
	clamp := func(c int) int {
		r := c / 4
		if r < 2 {
			r = 2
		}
		if r > 32 {
			r = 32
		}
		return r
	}
	var pts []point
	seen := map[[2]int]bool{}
	for _, tr := range trans {
		from, to := clamp(tr[0]), clamp(tr[1])
		if from == to || seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		pts = append(pts, point{x: len(pts), from: from, to: to, grid: 8192 / scale})
		if len(pts) == 8 {
			break // the distinct-transition set converges fast; 8 covers it
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("availability profile %q yields no measurable transitions", spec.Availability)
	}
	return pts, nil
}

// sizeGrids picks the -mode size grid dimensions: Figure 5c's fixed list, or
// the distinct grids of a scenario's job classes.
func sizeGrids(spec runspec.Spec, fromScenario bool, scale int) ([]int, string, error) {
	if !fromScenario {
		return []int{512 / scale * 8, 2048 / scale * 8, 8192 / scale * 8}, "Fig. 5c defaults", nil
	}
	raw, source, err := workload.ScenarioGrids(spec.Scenario, spec.Trace, spec.Seed)
	if err != nil {
		return nil, "", err
	}
	grids := workload.MapGrids(raw, func(n int) int { return n / scale * 8 })
	if len(grids) == 0 {
		return nil, "", fmt.Errorf("scenario %q yields no usable grids at -scale %d", spec.Scenario, scale)
	}
	return grids, source, nil
}

// runOnce runs a Jacobi solve on pt.from PEs, rescales to pt.to, and returns
// the phase breakdown.
func runOnce(pt point, iters int) charm.RescaleStats {
	rt, err := charm.New(charm.Config{PEs: pt.from})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()
	// Overdecompose 4 chares per PE on the larger side of the rescale.
	side := pt.from
	if pt.to > side {
		side = pt.to
	}
	bx, by := chareGrid(4 * side)
	r, err := apps.NewJacobiRunner(rt, pt.grid, bx, by)
	if err != nil {
		log.Fatal(err)
	}
	r.LBPeriod = iters / 2
	go func() { <-rt.RequestRescale(pt.to) }()
	if _, err := r.Run(iters); err != nil {
		log.Fatal(err)
	}
	stats := rt.Stats()
	if len(stats) == 0 {
		log.Fatalf("no rescale recorded for %d->%d", pt.from, pt.to)
	}
	return stats[len(stats)-1]
}

// chareGrid factors n into a near-square bx×by decomposition.
func chareGrid(n int) (int, int) {
	bx := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			bx = f
		}
	}
	return bx, n / bx
}

// runTimeline reproduces Figure 6: run a Jacobi solve, shrink to half a
// third of the way in, expand back at two thirds, and print per-iteration
// timings and the rescale timestamps.
func runTimeline(scale, iters int) {
	const from = 8
	rt, err := charm.New(charm.Config{PEs: from})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()
	grid := 16384 / scale
	bx, by := chareGrid(4 * from)
	r, err := apps.NewJacobiRunner(rt, grid, bx, by)
	if err != nil {
		log.Fatal(err)
	}
	total := 3 * iters
	r.LBPeriod = iters

	go func() { <-rt.RequestRescale(from / 2) }()
	res1, err := r.Run(2 * iters)
	if err != nil {
		log.Fatal(err)
	}
	go func() { <-rt.RequestRescale(from) }()
	res2, err := r.Run(total - 2*iters)
	if err != nil {
		log.Fatal(err)
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
}
