package cluster

import (
	"math"
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/model"
	"elastichpc/internal/operator"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func smallJob(name string, prio, min, max, grid, steps int) *operator.CharmJob {
	return &operator.CharmJob{
		ObjectMeta: k8s.ObjectMeta{Name: name},
		Spec: operator.CharmJobSpec{
			MinReplicas: min, MaxReplicas: max, Priority: prio,
			CPUPerWorker: 1, ShmBytes: 1 << 20,
			Workload: operator.WorkloadSpec{Grid: grid, Steps: steps},
		},
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	cfg := DefaultConfig(core.Elastic)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(smallJob("j0", 3, 2, 8, 512, 100), 0)
	if err := c.Run(1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	res := c.Result()
	if len(res.Jobs) != 1 {
		t.Fatalf("%d jobs in result", len(res.Jobs))
	}
	j := res.Jobs[0]
	if j.Replicas != 8 {
		t.Errorf("job ran at %d replicas, want 8 (empty cluster, max)", j.Replicas)
	}
	if j.CompletionTime <= 0 {
		t.Errorf("completion = %g", j.CompletionTime)
	}
	// The runtime should be roughly steps × iterTime(grid, 8) plus pod
	// startup; allow generous slack for startup latency.
	want := cfg.Machine.JobRuntime(model.Spec{Grid: 512, Steps: 100}, 8)
	if j.CompletionTime < want {
		t.Errorf("completion %g < pure compute %g", j.CompletionTime, want)
	}
	if j.CompletionTime > want+30 {
		t.Errorf("completion %g way beyond compute+startup %g", j.CompletionTime, want+30)
	}
}

func TestPodsCreatedAndCleanedUp(t *testing.T) {
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(smallJob("j0", 3, 2, 4, 512, 50), 0)
	// Run until the job has running pods.
	c.Loop.RunUntil(func() bool {
		return len(c.Store.Pods(map[string]string{"charmjob": "j0", "role": "worker"})) == 4
	})
	if got := len(c.Store.Pods(map[string]string{"charmjob": "j0"})); got != 5 {
		t.Errorf("%d pods while running, want 4 workers + 1 launcher", got)
	}
	if err := c.Run(1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Store.Pods(map[string]string{"charmjob": "j0"})); got != 0 {
		t.Errorf("%d pods left after completion", got)
	}
	obj, ok := c.Store.Get(k8s.KindCharmJob, "j0")
	if !ok || obj.(*operator.CharmJob).Status.Phase != operator.JobSucceeded {
		t.Error("job not marked Succeeded")
	}
}

func TestNodelistWrittenAndSized(t *testing.T) {
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(smallJob("j0", 3, 2, 4, 512, 400), 0)
	c.Loop.RunUntil(func() bool {
		obj, ok := c.Store.Get(k8s.KindConfigMap, operator.NodelistName("j0"))
		if !ok {
			return false
		}
		cm := obj.(*k8s.ConfigMap)
		return len(cm.Data["nodelist"]) > 0
	})
	obj, ok := c.Store.Get(k8s.KindConfigMap, operator.NodelistName("j0"))
	if !ok {
		t.Fatal("nodelist ConfigMap missing")
	}
	hosts := obj.(*k8s.ConfigMap).Data["nodelist"]
	count := 1
	for _, ch := range hosts {
		if ch == '\n' {
			count++
		}
	}
	if count != 4 {
		t.Errorf("nodelist has %d hosts: %q", count, hosts)
	}
}

func TestElasticShrinksForHigherPriority(t *testing.T) {
	cfg := DefaultConfig(core.Elastic)
	cfg.RescaleGap = 30 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Low-priority job fills the cluster (max 64, runs ~2 min); the
	// high-priority job arrives once the gap has expired, needing min 32.
	c.Submit(smallJob("low", 1, 8, 64, 4096, 40000), 0)
	c.Submit(smallJob("high", 5, 32, 48, 2048, 2000), 40*time.Second)
	if err := c.Run(2, 2_000_000); err != nil {
		t.Fatal(err)
	}
	res := c.Result()
	byID := map[string]sim.JobMetrics{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if byID["low"].Rescales == 0 {
		t.Error("low-priority job was never rescaled")
	}
	// The high-priority job must not wait for low to finish.
	if byID["high"].ResponseTime >= byID["low"].CompletionTime {
		t.Errorf("high waited %gs; low completed at %gs", byID["high"].ResponseTime, byID["low"].CompletionTime)
	}
	// Replica timeline for the shrunk job has multiple levels.
	tl := res.ReplicaTimelines["low"]
	levels := map[int]bool{}
	for _, s := range tl {
		levels[s.Replicas] = true
	}
	if len(levels) < 3 { // 64 → shrunk → 0
		t.Errorf("low job timeline has %d levels: %v", len(levels), tl)
	}
}

func TestMoldableNeverRescalesInEmulation(t *testing.T) {
	cfg := DefaultConfig(core.Moldable)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(smallJob("a", 1, 8, 64, 2048, 800), 0)
	c.Submit(smallJob("b", 5, 8, 64, 2048, 800), 30*time.Second)
	if err := c.Run(2, 2_000_000); err != nil {
		t.Fatal(err)
	}
	for _, j := range c.Result().Jobs {
		if j.Rescales != 0 {
			t.Errorf("moldable job %s rescaled %d times", j.ID, j.Rescales)
		}
	}
}

func TestUtilizationWithinBounds(t *testing.T) {
	w := workload.MustUniform(6, 60, 3)
	res, err := RunExperiment(DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	for _, s := range res.UtilTimeline {
		if s.Used < 0 || s.Used > 64 {
			t.Errorf("util sample %d slots", s.Used)
		}
	}
}

func TestTable1ActualOrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 emulation in -short mode")
	}
	results, err := Table1Actual()
	if err != nil {
		t.Fatal(err)
	}
	e := results[core.Elastic]
	for _, p := range []core.Policy{core.RigidMin, core.RigidMax, core.Moldable} {
		r := results[p]
		if e.TotalTime >= r.TotalTime {
			t.Errorf("elastic total %g >= %v %g", e.TotalTime, p, r.TotalTime)
		}
		if e.Utilization <= r.Utilization {
			t.Errorf("elastic util %g <= %v %g", e.Utilization, p, r.Utilization)
		}
	}
	if results[core.RigidMin].Utilization >= e.Utilization {
		t.Error("min_replicas utilization should be below elastic")
	}
}

func TestActualAgreesWithSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	// The emulation and the DES are independent implementations; their
	// total times for the same workload/policy should agree within the
	// pod-startup and protocol overheads the DES ignores (paper §4.3.1:
	// "We do not consider the overhead added by the operator or by
	// Kubernetes to start up the pods").
	w := sim.Table1Workload()
	for _, p := range core.AllPolicies() {
		simRes, err := sim.Run(sim.DefaultConfig(p), w)
		if err != nil {
			t.Fatal(err)
		}
		actRes, err := RunExperiment(DefaultConfig(p), w)
		if err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
		rel := math.Abs(actRes.TotalTime-simRes.TotalTime) / simRes.TotalTime
		if rel > 0.25 {
			t.Errorf("%v: actual total %g vs sim %g (%.0f%% apart)", p, actRes.TotalTime, simRes.TotalTime, rel*100)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Nodes: 0, CPUPerNode: 16}); err == nil {
		t.Error("accepted zero nodes")
	}
}
