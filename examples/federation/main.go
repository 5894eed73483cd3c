// Command federation is a three-act walkthrough of the multi-cluster
// meta-scheduler: one bursty workload routed across a fleet of member
// clusters, first round-robin on a homogeneous fleet, then on a skewed
// (heterogeneous) fleet where blind dealing falls apart, then with the
// least-loaded and priority-aware routes that repair it. It prints the
// fleet-wide metrics next to each member's own result, showing how the
// aggregates are exact (integrals and weight sums, not means of means).
package main

import (
	"fmt"
	"log"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func run(title string, cfg federation.Config, w workload.Workload) federation.Result {
	res, err := federation.Run(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n— %s —\n", title)
	fmt.Printf("fleet: total %.0fs  util %.1f%%  w.resp %.1fs  w.compl %.1fs  imbalance %.1f%%\n",
		res.TotalTime, 100*res.Utilization, res.WeightedResponse, res.WeightedCompletion, 100*res.Imbalance)
	for i, m := range res.Members {
		fmt.Printf("  cluster%d: %3d jobs  util %5.1f%%  total %6.0fs\n",
			i, res.JobsPerMember[i], 100*m.Utilization, m.TotalTime)
	}
	return res
}

func main() {
	// One flash-crowd workload: 8 waves of 24 simultaneous submissions.
	gen := workload.Burst{Waves: 8, PerWave: 24, WaveGap: 1800}
	w, err := gen.Generate(42)
	if err != nil {
		log.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic) // 64 slots, 180 s rescale gap, the calibrated machine

	// Act 1: a homogeneous 4-cluster fleet. Round-robin dealing is fine
	// when every member looks the same.
	run("act 1: homogeneous fleet, round-robin",
		federation.Config{Members: federation.Uniform(base, 4), Route: federation.RoundRobin}, w)

	// Act 2: the same deal on a skewed fleet (64/96/128/160 slots).
	// Round-robin ignores capacity, so the small cluster drowns while the
	// big one idles — watch the imbalance.
	rr := run("act 2: skewed fleet, round-robin",
		federation.Config{Members: federation.Skewed(base, 4, 0.5), Route: federation.RoundRobin}, w)

	// Act 3: the least-loaded route books each job against the member with
	// the lowest queued min-PE demand per slot, so the big clusters soak up
	// proportionally more of every wave.
	ll := run("act 3: skewed fleet, least-loaded",
		federation.Config{Members: federation.Skewed(base, 4, 0.5), Route: federation.LeastLoaded}, w)
	fmt.Printf("\nimbalance %.1f%% → %.1f%%; fleet completion %.1fs → %.1fs\n",
		100*rr.Imbalance, 100*ll.Imbalance, rr.WeightedCompletion, ll.WeightedCompletion)

	// Coda: priority-aware routing keeps the fast lane clear — compare the
	// weighted response of high-priority jobs under both routes by reading
	// the per-member results back.
	pa := run("coda: skewed fleet, priority-aware",
		federation.Config{Members: federation.Skewed(base, 4, 0.5), Route: federation.PriorityAware}, w)
	fmt.Printf("\npriority-aware w.resp %.1fs (round-robin %.1fs)\n", pa.WeightedResponse, rr.WeightedResponse)
}
