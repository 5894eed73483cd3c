// Scenarios: a walkthrough of the workload-scenario engine — generate every
// built-in arrival pattern, sweep them all across the four policies on a
// parallel worker pool, save one as a shareable trace, and replay the trace
// through both the discrete-event simulator and the full cluster emulation.
//
//	go run ./examples/scenarios
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func main() {
	// 1. The built-in scenarios. Each generator is deterministic per seed:
	//    the same seed always yields the same workload, so experiments are
	//    reproducible and parallel sweeps are bit-identical to sequential.
	fmt.Println("Built-in workload scenarios (seed 7):")
	for _, gen := range workload.DefaultScenarios() {
		w, err := gen.Generate(7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %2d jobs over %6.0f s  (first gap %.0f s)\n",
			gen.Name(), len(w.Jobs), w.Span(), firstGap(w))
	}

	// 2. Scenario sweep: every scenario × every policy × several seeds,
	//    fanned out over all CPUs (workers = 0). Pass workers = 1 for the
	//    sequential reference path — the results are identical bit for bit.
	const seeds = 3
	start := time.Now()
	results, err := sim.ScenarioSweep(workload.DefaultScenarios(), seeds, 180, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nScenario sweep (%d seeds, parallel, %v):\n", seeds, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %-8s %-14s %12s %12s\n", "scenario", "scheduler", "total (s)", "utilization")
	for _, sr := range results {
		for _, p := range core.AllPolicies() {
			avg := sr.ByPolicy[p]
			fmt.Printf("  %-8s %-14s %12.0f %11.1f%%\n", sr.Name, p, avg.TotalTime, 100*avg.Utilization)
		}
	}

	// 3. Traces: any workload can be saved as a CSV trace and replayed
	//    later — on another machine, in another harness.
	burst := workload.Burst{Waves: 3, PerWave: 4, WaveGap: 300}
	w, err := burst.Generate(42)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "scenarios")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "burst.csv")
	if err := workload.SaveFile(path, w, ""); err != nil {
		log.Fatal(err)
	}
	replayed, err := workload.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSaved and replayed %s: %d jobs round-tripped\n", filepath.Base(path), len(replayed.Jobs))

	// 4. One workload, two backends: the trace drives the discrete-event
	//    simulator and the full k8s+operator emulation interchangeably.
	trace, err := workload.Scenario("trace", path)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.DefaultConfig(core.Elastic)
	cfg.RescaleGap = 180
	simRes, err := sim.Run(cfg, replayed)
	if err != nil {
		log.Fatal(err)
	}
	actRes, err := cluster.RunAvailability(cluster.DefaultConfig(core.Elastic), trace, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Elastic policy on the trace: simulated total %.0f s, emulated total %.0f s\n",
		simRes.TotalTime, actRes.TotalTime)
}

// firstGap is the gap between the first two submissions (0 for bursts).
func firstGap(w workload.Workload) float64 {
	if len(w.Jobs) < 2 {
		return 0
	}
	return w.Jobs[1].SubmitAt - w.Jobs[0].SubmitAt
}
