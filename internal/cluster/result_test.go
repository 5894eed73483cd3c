package cluster

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// TestResultIsIdempotent is the regression test for the tail fold-in bug:
// Result used to fold the open utilization interval into the accumulator and
// advance utilLast on every call, so a second call inflated Utilization and
// GoodputFrac. Two consecutive calls must now be deep-equal — mid-run as well
// as at the end — and a run observed at every step of its loop must end with
// the Result of the same run left alone: Result folds onto a copy of the
// ledger, never into it.
func TestResultIsIdempotent(t *testing.T) {
	build := func() *Cluster {
		c, err := New(DefaultConfig(core.Elastic))
		if err != nil {
			t.Fatal(err)
		}
		c.Submit(smallJob("a", 3, 2, 8, 512, 100), 0)
		c.Submit(smallJob("b", 5, 2, 8, 512, 100), 10*time.Second)
		c.Submit(smallJob("c", 4, 4, 16, 512, 100), 30*time.Second)
		return c
	}
	alone := build()
	if err := alone.Run(3, 1_000_000); err != nil {
		t.Fatal(err)
	}
	first := alone.Result()
	second := alone.Result()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Result is not idempotent:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if first.Utilization <= 0 || first.Utilization > 1 {
		t.Errorf("utilization %g out of range", first.Utilization)
	}

	watched := build()
	observed, finishedMidRun := 0, 0
	for len(watched.done) < 3 {
		mid := watched.Result()
		if again := watched.Result(); !reflect.DeepEqual(mid, again) {
			t.Fatalf("mid-run Result at %v is not idempotent:\nfirst:  %+v\nsecond: %+v",
				watched.Loop.Now(), mid, again)
		}
		observed++
		if len(mid.Jobs) > 0 {
			finishedMidRun++
		}
		if !watched.Loop.Step() {
			t.Fatalf("the loop ran dry with %d of 3 jobs done", len(watched.done))
		}
	}
	if err := watched.Err(); err != nil {
		t.Fatal(err)
	}
	if finishedMidRun == 0 {
		t.Fatalf("none of %d observations saw a finished job: nothing mid-run was observed", observed)
	}
	if got := watched.Result(); !reflect.DeepEqual(got, first) {
		t.Errorf("observing the run at %d instants changed its Result:\nobserved:   %+v\nunobserved: %+v",
			observed, got, first)
	}
}

// TestResultJobsSortedDeterministically is the regression test for the map
// iteration bug: Jobs was built by ranging over the done map, so its order —
// and any JSON diff of -json reports — varied run to run. It must be sorted
// by (SubmitAt, ID), and two separate emulations of the same workload must
// serialize identically.
func TestResultJobsSortedDeterministically(t *testing.T) {
	w := workload.MustUniform(8, 60, 5)
	run := func() sim.Result {
		res, err := RunExperiment(DefaultConfig(core.Elastic), w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if !sort.SliceIsSorted(res.Jobs, func(a, b int) bool {
		if res.Jobs[a].SubmitAt != res.Jobs[b].SubmitAt {
			return res.Jobs[a].SubmitAt < res.Jobs[b].SubmitAt
		}
		return res.Jobs[a].ID < res.Jobs[b].ID
	}) {
		t.Errorf("Jobs not sorted by (SubmitAt, ID): %+v", res.Jobs)
	}
	j1, err := json.Marshal(res.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(run().Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("two emulations of the same workload serialize differently:\n%s\n%s", j1, j2)
	}
}

// TestRunSurfacesCapacityEventError is the regression test for the panic
// bug: a capacity/submit failure inside an event-loop callback used to panic
// across the library boundary. An invalid capacity event must instead
// surface as an error from Run.
func TestRunSurfacesCapacityEventError(t *testing.T) {
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(smallJob("a", 3, 2, 8, 512, 40000), 0)
	// Capacity 0 passes no trace validation (scheduleCapacity is unchecked
	// by design) and is rejected by the scheduler at fire time, while the
	// job is still running.
	c.scheduleCapacity(5, 0)
	err = c.Run(1, 1_000_000)
	if err == nil {
		t.Fatal("Run succeeded through an invalid capacity event")
	}
	if !strings.Contains(err.Error(), "capacity event") {
		t.Errorf("error %q does not name the capacity event", err)
	}
	if c.Err() == nil {
		t.Error("Err() lost the captured callback error")
	}
}

// TestRunSurfacesSubmitError covers the submission half of the panic bug: a
// duplicate job name is rejected by the manager inside the loop callback and
// must come back from Run as an error.
func TestRunSurfacesSubmitError(t *testing.T) {
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(smallJob("dup", 3, 2, 8, 512, 100), 0)
	c.Submit(smallJob("dup", 3, 2, 8, 512, 100), time.Second)
	err = c.Run(2, 1_000_000)
	if err == nil {
		t.Fatal("Run succeeded through a duplicate submission")
	}
	if !strings.Contains(err.Error(), "dup") {
		t.Errorf("error %q does not name the job", err)
	}
}
