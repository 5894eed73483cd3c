// Priority-burst demo: a low-priority job saturates the emulated cluster,
// then a burst of high-priority jobs arrives. Under the elastic policy the
// running job is shrunk to make room (paper §3.2.1's motivating scenario);
// under the moldable policy the burst must wait. The demo runs both through
// the full Kubernetes emulation and compares response times.
//
//	go run ./examples/priorityburst
package main

import (
	"fmt"
	"log"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/operator"
)

func main() {
	for _, policy := range []core.Policy{core.Moldable, core.Elastic} {
		fmt.Printf("=== %s policy ===\n", policy)
		run(policy)
		fmt.Println()
	}
}

func run(policy core.Policy) {
	cfg := cluster.DefaultConfig(policy)
	cfg.RescaleGap = 60 * time.Second
	c, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A background job that would happily use the whole cluster.
	c.Submit(&operator.CharmJob{
		ObjectMeta: k8s.ObjectMeta{Name: "background"},
		Spec: operator.CharmJobSpec{
			MinReplicas: 8, MaxReplicas: 64, Priority: 1,
			CPUPerWorker: 1, ShmBytes: 1 << 30,
			Workload: operator.WorkloadSpec{Grid: 8192, Steps: 20000},
		},
	}, 0)

	// A burst of three rigid high-priority jobs 30 seconds in, while the
	// background job holds the whole cluster. Only the elastic policy can
	// make room by shrinking the running job.
	for i := 0; i < 3; i++ {
		c.Submit(&operator.CharmJob{
			ObjectMeta: k8s.ObjectMeta{Name: fmt.Sprintf("urgent-%d", i)},
			Spec: operator.CharmJobSpec{
				MinReplicas: 16, MaxReplicas: 16, Priority: 5,
				CPUPerWorker: 1, ShmBytes: 1 << 30,
				Workload: operator.WorkloadSpec{Grid: 2048, Steps: 8000},
			},
		}, 30*time.Second+time.Duration(i)*10*time.Second)
	}

	if err := c.Run(4, 5_000_000); err != nil {
		log.Fatal(err)
	}
	res := c.Result()
	for _, j := range res.Jobs {
		fmt.Printf("  %-12s prio %d  response %7.1fs  completion %8.1fs  peak %2d replicas  %d rescales\n",
			j.ID, j.Priority, j.ResponseTime, j.CompletionTime, j.Replicas, j.Rescales)
	}
	fmt.Printf("  cluster: total %.0fs, utilization %.1f%%\n", res.TotalTime, 100*res.Utilization)
}
