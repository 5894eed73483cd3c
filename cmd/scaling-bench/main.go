// Command scaling-bench measures the strong-scaling of the two evaluation
// applications on the real charm runtime (paper §4.1, Figure 4).
//
// Grid sizes are scaled down from the paper's by -scale (the goroutine
// runtime shares one machine rather than 4 EKS nodes); the scaling *shape* —
// larger problems scale better — is the reproduction target. With -scenario
// or -trace, the Jacobi grid set is derived from the job classes that
// actually appear in that workload scenario instead of the fixed Figure 4
// list, so the benchmark covers exactly the problem sizes an experiment will
// run. -parallel N runs benchmark cells concurrently (faster, but timings
// share cores — keep the default for publication-quality curves).
//
// Usage:
//
//	scaling-bench -app jacobi                    # Fig. 4a
//	scaling-bench -app leanmd                    # Fig. 4b
//	scaling-bench -app jacobi -scenario burst    # grids drawn from a scenario
//	scaling-bench -app jacobi -availability spot # replica counts drawn from a
//	                                             # capacity profile's levels
//	scaling-bench -app jacobi -parallel 4        # 4 cells at a time
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"elastichpc/internal/apps"
	"elastichpc/internal/charm"
	"elastichpc/internal/metrics"
	"elastichpc/internal/profiling"
	"elastichpc/internal/runspec"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func main() {
	var (
		app        = flag.String("app", "", "jacobi | leanmd")
		scale      = flag.Int("scale", 8, "divide paper problem sizes by this factor")
		iters      = flag.Int("iters", 20, "iterations to time")
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
	defer profiling.Start(*cpuprofile, *memprofile)()
	fromScenario := spec.Scenario != "" || spec.Trace != ""
	if fromScenario && *app == "leanmd" {
		// Scenario job classes map to Jacobi grids; LeanMD's cell grids
		// are fixed, so a scenario selection would be silently ignored.
		log.Fatal("-scenario/-trace do not apply to -app leanmd (scenarios map to Jacobi grid sizes)")
	}
	spec.Resolve()
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	profile, err := spec.Profile()
	if err != nil {
		log.Fatal(err)
	}

	// The replica axis: Figure 4's power-of-two ladder, or — with a
	// capacity profile — the distinct capacity levels the cluster would
	// actually pass through, so the curve covers the replica counts an
	// availability experiment forces jobs onto.
	replicas := []int{2, 4, 8, 16, 32, 64}
	if profile != nil {
		levels, err := workload.AvailabilityLevels(profile, spec.Seed, 64, 4*3600)
		if err != nil {
			log.Fatal(err)
		}
		replicas = replicas[:0]
		for _, c := range levels {
			if c >= 2 {
				replicas = append(replicas, c)
			}
		}
		if len(replicas) == 0 {
			log.Fatalf("availability profile %q yields no usable replica counts", spec.Availability)
		}
		fmt.Fprintf(os.Stderr, "# replica counts from availability profile %q seed %d: %v\n", spec.Availability, spec.Seed, replicas)
	}
	var pes []int
	for _, p := range replicas {
		if p <= *maxPE {
			pes = append(pes, p)
		}
	}
	if len(pes) == 0 {
		log.Fatalf("no replica counts fit under -maxpes %d (had %v)", *maxPE, replicas)
	}
	if spec.Workers > 1 {
		fmt.Fprintf(os.Stderr, "# warning: -parallel %d shares cores between cells; timings are noisier\n", spec.Workers)
	}

	switch *app {
	case "jacobi":
		grids, source, err := jacobiGrids(spec, fromScenario, *scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# Fig 4a: Jacobi2D strong scaling; time per iteration (s); grids from %s\n", source)
		fmt.Println("grid,replicas,time_per_iter_s")
		type cell struct{ grid, pes int }
		var cells []cell
		for _, grid := range grids {
			for _, p := range pes {
				cells = append(cells, cell{grid, p})
			}
		}
		times := make([]float64, len(cells))
		if err := sim.RunTasks(len(cells), spec.Workers, func(i int) error {
			times[i] = runJacobi(cells[i].grid, cells[i].pes, *iters)
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		rep := metrics.New("scaling-bench", metrics.KindBench)
		for i, c := range cells {
			fmt.Printf("%d,%d,%.6f\n", c.grid, c.pes, times[i])
			rep.Benchmarks = append(rep.Benchmarks, metrics.Benchmark{
				Name:       fmt.Sprintf("Fig4aJacobi/grid=%d/replicas=%d", c.grid, c.pes),
				Iterations: int64(*iters),
				NsPerOp:    times[i] * 1e9, // one op = one solver iteration
			})
		}
		writeReport(*jsonPath, rep)
	case "leanmd":
		fmt.Println("# Fig 4b: LeanMD strong scaling; time per step (s)")
		fmt.Println("cells,replicas,time_per_step_s")
		type cell struct {
			dims [3]int
			pes  int
		}
		var cells []cell
		for _, dims := range [][3]int{{4, 4, 4}, {4, 4, 8}, {4, 8, 8}} {
			for _, p := range pes {
				cells = append(cells, cell{dims, p})
			}
		}
		times := make([]float64, len(cells))
		if err := sim.RunTasks(len(cells), spec.Workers, func(i int) error {
			times[i] = runLeanMD(cells[i].dims, cells[i].pes, *iters)
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		rep := metrics.New("scaling-bench", metrics.KindBench)
		for i, c := range cells {
			fmt.Printf("%dx%dx%d,%d,%.6f\n", c.dims[0], c.dims[1], c.dims[2], c.pes, times[i])
			rep.Benchmarks = append(rep.Benchmarks, metrics.Benchmark{
				Name:       fmt.Sprintf("Fig4bLeanMD/cells=%dx%dx%d/replicas=%d", c.dims[0], c.dims[1], c.dims[2], c.pes),
				Iterations: int64(*iters),
				NsPerOp:    times[i] * 1e9, // one op = one MD step
			})
		}
		writeReport(*jsonPath, rep)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeReport writes the metrics report when -json was given.
func writeReport(path string, rep metrics.Report) {
	if path == "" {
		return
	}
	if err := metrics.Write(path, rep); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// jacobiGrids picks the grid sizes to benchmark: Figure 4a's fixed list, or —
// when a scenario is selected — the distinct grids of the job classes that
// workload actually submits, scaled down by scale.
func jacobiGrids(spec runspec.Spec, fromScenario bool, scale int) ([]int, string, error) {
	if !fromScenario {
		return []int{2048 / scale, 8192 / scale, 16384 / scale}, "Fig. 4a defaults", nil
	}
	raw, source, err := workload.ScenarioGrids(spec.Scenario, spec.Trace, spec.Seed)
	if err != nil {
		return nil, "", err
	}
	grids := workload.MapGrids(raw, func(n int) int { return n / scale })
	if len(grids) == 0 {
		return nil, "", fmt.Errorf("scenario %q yields no usable grids at -scale %d", spec.Scenario, scale)
	}
	return grids, source, nil
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

func runJacobi(grid, pes, iters int) float64 {
	rt, err := charm.New(charm.Config{PEs: pes, RestartLatency: charm.ZeroRestartLatency})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()
	bx, by := chareGrid(4 * pes)
	r, err := apps.NewJacobiRunner(rt, grid, bx, by)
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.Run(iters)
	if err != nil {
		log.Fatal(err)
	}
	return res.TimePerIteration().Seconds()
}

func runLeanMD(cells [3]int, pes, iters int) float64 {
	rt, err := charm.New(charm.Config{PEs: pes, RestartLatency: charm.ZeroRestartLatency})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()
	r, err := apps.NewLeanMDRunner(rt, cells[0], cells[1], cells[2], 48, 2025)
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.Run(iters)
	if err != nil {
		log.Fatal(err)
	}
	return res.TimePerIteration().Seconds()
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
