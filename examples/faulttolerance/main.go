// Fault-tolerance walkthrough (paper §3.2.2 + the cluster-availability
// engine). Three acts:
//
//  1. Node crash + checkpoint/restart: a job runs on the emulated cluster
//     with periodic checkpointing enabled; a node crashes mid-run; the
//     operator restarts the job from its last checkpoint ("launch with the
//     extra restart parameter"). Compares completion times with
//     checkpointing on and off.
//
//  2. Spot preemptions through the simulator: the same seeded
//     spot-preemption capacity profile is replayed under every scheduling
//     policy. The elastic policy survives most capacity losses by shrinking
//     in place; the rigid baselines can only be checkpoint-requeued, losing
//     queue position and restart time.
//
//  3. The same profile through the full k8s emulation, showing the two
//     backends agree — and that the emulation charges real checkpoint
//     granularity (work since the last periodic checkpoint is lost).
//
// See examples/faulttolerance/README.md for a guided tour of the output.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/operator"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func main() {
	fmt.Println("=== Act 1: node crash, checkpoint/restart (emulated EKS) ===")
	fmt.Println("Node failure at t=120s; job needs ~6 minutes of compute.")
	clean := run(0, false)
	fmt.Printf("  no failure:                 completed in %6.0f s\n", clean)
	scratch := run(0, true)
	fmt.Printf("  failure, no checkpoints:    completed in %6.0f s (restarted from scratch)\n", scratch)
	ckpt := run(1000, true)
	fmt.Printf("  failure, ckpt every 1000it: completed in %6.0f s (resumed from checkpoint)\n", ckpt)
	fmt.Printf("\ncheckpointing recovered %.0f s of lost work\n\n", scratch-ckpt)

	spotSimulated()
	spotEmulated()
}

// run executes one job on a fresh emulated cluster and returns its
// completion time in seconds.
func run(ckptPeriod int, fail bool) float64 {
	c, err := cluster.New(cluster.DefaultConfig(core.Elastic))
	if err != nil {
		log.Fatal(err)
	}
	job := &operator.CharmJob{
		ObjectMeta: k8s.ObjectMeta{Name: "sim-job"},
		Spec: operator.CharmJobSpec{
			MinReplicas: 8, MaxReplicas: 16, Priority: 3,
			CPUPerWorker: 1, ShmBytes: 1 << 30,
			Workload:         operator.WorkloadSpec{Grid: 4096, Steps: 20000},
			CheckpointPeriod: ckptPeriod,
		},
	}
	c.Submit(job, 0)
	if fail {
		c.FailNode("node-0", 120*time.Second)
	}
	if err := c.Run(1, 2_000_000); err != nil {
		log.Fatal(err)
	}
	return c.Result().Jobs[0].CompletionTime
}

// spotProfile is the shared availability scenario: a spot reclaim roughly
// every 8 minutes taking a 16-slot node away for ~5 minutes.
func spotProfile() workload.AvailabilityProfile {
	return workload.SpotPreemption{MeanGap: 480, Slots: 16, MeanOutage: 300}
}

const seed = 7

// spotSimulated replays the seeded spot scenario under every policy in the
// discrete-event simulator.
func spotSimulated() {
	fmt.Println("=== Act 2: spot preemptions, every policy (DES simulator) ===")
	// The same inputs Act 3's cluster.RunAvailability derives: the seed's
	// workload and the profile's trace, restored to base past the horizon
	// so a trace ending mid-outage cannot strand rigid jobs.
	w, tr, err := sim.Inputs(workload.Uniform{Jobs: 16, Gap: 90}, spotProfile(), seed, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16 uniform jobs, %d capacity events (seed %d)\n", len(tr.Events), seed)
	fmt.Printf("%-14s %10s %9s %9s %9s %12s\n",
		"Scheduler", "Total (s)", "Goodput", "Shrinks", "Requeues", "Lost (r·s)")
	for _, p := range core.AllPolicies() {
		cfg := sim.DefaultConfig(p)
		cfg.RescaleGap, cfg.Availability = 180, tr
		res, err := sim.Run(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.0f %8.2f%% %9d %9d %12.1f\n",
			p, res.TotalTime, 100*res.GoodputFrac, res.ForcedShrinks, res.Requeues, res.WorkLostSec)
	}
	fmt.Println("\nThe elastic policy absorbs reclaims by shrinking (Shrinks column);")
	fmt.Println("rigid policies can only be checkpoint-requeued (Requeues column).")
	fmt.Println()
}

// spotEmulated runs the same scenario through the full k8s emulation.
func spotEmulated() {
	fmt.Println("=== Act 3: the same scenario through the k8s emulation ===")
	gen := workload.Uniform{Jobs: 16, Gap: 90}
	fmt.Printf("%-14s %10s %9s %9s %9s %12s\n",
		"Scheduler", "Total (s)", "Goodput", "Shrinks", "Requeues", "Lost (r·s)")
	for _, p := range []core.Policy{core.RigidMax, core.Elastic} {
		cfg := cluster.DefaultConfig(p)
		cfg.CheckpointPeriod = 1000
		res, err := cluster.RunAvailability(cfg, gen, spotProfile(), seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.0f %8.2f%% %9d %9d %12.1f\n",
			p, res.TotalTime, 100*res.GoodputFrac, res.ForcedShrinks, res.Requeues, res.WorkLostSec)
	}
	fmt.Println("\nUnlike the simulator's idealized checkpoints, the emulation loses the")
	fmt.Println("work since the last periodic checkpoint — the Lost column includes it.")
}
