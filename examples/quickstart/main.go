// Quickstart: simulate a random 16-job workload under all four scheduling
// policies and print the paper's four metrics for each — the fastest way to
// see the elastic scheduler's advantage.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func main() {
	// 16 jobs drawn from the paper's four size classes, priorities 1–5,
	// submitted 90 seconds apart (the Table 1 configuration; seed 7 is the
	// repository's pinned Table 1 workload).
	w := workload.MustUniform(16, 90, 7)

	fmt.Println("Policy comparison: 16 jobs, 90s submission gap, T_rescale_gap = 180s")
	fmt.Printf("%-14s %12s %12s %16s %18s\n",
		"scheduler", "total (s)", "utilization", "w.response (s)", "w.completion (s)")
	for _, policy := range core.AllPolicies() {
		cfg := sim.DefaultConfig(policy)
		cfg.RescaleGap = 180
		res, err := sim.Run(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.0f %11.1f%% %16.1f %18.1f\n",
			policy, res.TotalTime, 100*res.Utilization,
			res.WeightedResponse, res.WeightedCompletion)
	}

	// The same workload through the full Kubernetes emulation (operator,
	// pod scheduler, kubelet, CCS protocol) for the elastic policy.
	res, err := cluster.RunExperiment(cluster.DefaultConfig(core.Elastic), w)
	if err != nil {
		log.Fatal(err)
	}
	rescales := 0
	for _, j := range res.Jobs {
		rescales += j.Rescales
	}
	fmt.Printf("\nFull k8s emulation (elastic): total %.0f s, utilization %.1f%%, %d rescale operations\n",
		res.TotalTime, 100*res.Utilization, rescales)
}
