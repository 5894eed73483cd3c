package cluster

import (
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/operator"
)

// run2 builds a cluster, submits one job, optionally fails a node mid-run,
// and returns (completion time, restarts).
func runWithFailure(t *testing.T, ckptPeriod int, fail bool) (float64, int) {
	t.Helper()
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	job := smallJob("victim", 3, 8, 16, 4096, 20000)
	job.Spec.CheckpointPeriod = ckptPeriod
	c.Submit(job, 0)
	if fail {
		// The job runs ~4–8 minutes; crash a node two minutes in. The
		// scheduler packs all 16 workers onto node-0 via affinity.
		c.FailNode("node-0", 120*time.Second)
	}
	if err := c.Run(1, 2_000_000); err != nil {
		t.Fatal(err)
	}
	obj, ok := c.Store.View(k8s.KindCharmJob, "victim")
	if !ok {
		t.Fatal("job object missing")
	}
	return c.Result().Jobs[0].CompletionTime, obj.(*operator.CharmJob).Status.Restarts
}

func TestNodeFailureRestartsFromCheckpoint(t *testing.T) {
	clean, restarts := runWithFailure(t, 1000, false)
	if restarts != 0 {
		t.Fatalf("clean run restarted %d times", restarts)
	}
	withCkpt, restartsCkpt := runWithFailure(t, 1000, true)
	if restartsCkpt != 1 {
		t.Fatalf("failed run restarted %d times, want 1", restartsCkpt)
	}
	if withCkpt <= clean {
		t.Errorf("failure did not extend completion: %g <= %g", withCkpt, clean)
	}
	// Restarting from a checkpoint must be cheaper than restarting from
	// scratch.
	fromScratch, restartsScratch := runWithFailure(t, 0, true)
	if restartsScratch != 1 {
		t.Fatalf("scratch run restarted %d times, want 1", restartsScratch)
	}
	if withCkpt >= fromScratch {
		t.Errorf("checkpointed restart (%g) not faster than from-scratch (%g)", withCkpt, fromScratch)
	}
	// And from-scratch roughly doubles the work done before the crash.
	if fromScratch <= clean+100 {
		t.Errorf("from-scratch restart too cheap: %g vs clean %g", fromScratch, clean)
	}
}

func TestFailureOfOneJobDoesNotKillOthers(t *testing.T) {
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	a := smallJob("a", 3, 8, 16, 4096, 10000)
	a.Spec.CheckpointPeriod = 1000
	b := smallJob("b", 3, 8, 16, 4096, 10000)
	b.Spec.CheckpointPeriod = 1000
	c.Submit(a, 0)
	c.Submit(b, 5*time.Second)
	// Fail whichever node hosts pods at t=60s; at least one job restarts,
	// but both must complete.
	c.FailNode("node-0", 60*time.Second)
	if err := c.Run(2, 2_000_000); err != nil {
		t.Fatal(err)
	}
	res := c.Result()
	if len(res.Jobs) != 2 {
		t.Fatalf("%d jobs completed", len(res.Jobs))
	}
	totalRestarts := 0
	for _, name := range []string{"a", "b"} {
		obj, ok := c.Store.View(k8s.KindCharmJob, name)
		if !ok {
			t.Fatalf("job %s missing", name)
		}
		totalRestarts += obj.(*operator.CharmJob).Status.Restarts
	}
	if totalRestarts == 0 {
		t.Error("node failure did not restart any job")
	}
}
