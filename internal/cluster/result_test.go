package cluster

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// TestResultJobRecordsMatchTheTrace holds the emulation's per-job record to
// the trace and to the simulator on Table 1. Every job carries its trace
// class. Under elastic, a job's OverheadSec is the sum, in order, of the
// four-phase overhead of each rescale its replica timeline shows: the
// overhead the modelled application charged, kept past its Stop. Under the
// three policies that never rescale, ID, class, priority, rescales and
// overhead equal the simulator's job for job.
func TestResultJobRecordsMatchTheTrace(t *testing.T) {
	w := sim.Table1Workload()
	class := map[string]model.Class{}
	for _, js := range w.Jobs {
		class[js.ID] = js.Class
	}
	specs, machine := model.Specs(), model.DefaultMachine()

	res, err := RunExperiment(DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	charged := 0
	for _, j := range res.Jobs {
		if j.Class != class[j.ID] {
			t.Errorf("elastic: job %s has class %v, its trace class is %v", j.ID, j.Class, class[j.ID])
		}
		// The timeline steps from 0 at the launch and to 0 at the end;
		// every step between two running sizes is a rescale.
		tl := j.Timeline
		want, rescales := 0.0, 0
		for i := 1; i < len(tl); i++ {
			if from, to := tl[i-1].Replicas, tl[i].Replicas; from > 0 && to > 0 {
				want += machine.RescaleOverhead(specs[class[j.ID]].Grid, from, to).Total()
				rescales++
			}
		}
		if j.OverheadSec != want || j.Rescales != rescales {
			t.Errorf("elastic: job %s charged %g s over %d rescales, its timeline %v gives %g s over %d",
				j.ID, j.OverheadSec, j.Rescales, tl, want, rescales)
		}
		if want > 0 {
			charged++
		}
	}
	if charged == 0 {
		t.Error("elastic: no job rescaled, so no overhead was checked")
	}

	for _, p := range []core.Policy{core.RigidMin, core.RigidMax, core.Moldable} {
		simRes, err := sim.Run(sim.DefaultConfig(p), w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunExperiment(DefaultConfig(p), w)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != len(simRes.Jobs) {
			t.Fatalf("%v: %d emulated jobs, %d simulated", p, len(res.Jobs), len(simRes.Jobs))
		}
		simJobs := map[string]sim.JobMetrics{}
		for _, j := range simRes.Jobs {
			simJobs[j.ID] = j
		}
		for _, j := range res.Jobs {
			sj := simJobs[j.ID]
			got := [5]any{j.ID, j.Class, j.Priority, j.Rescales, j.OverheadSec}
			if want := [5]any{sj.ID, sj.Class, sj.Priority, sj.Rescales, sj.OverheadSec}; got != want {
				t.Errorf("%v: emulated (ID, class, priority, rescales, overhead) %v, simulated %v", p, got, want)
			}
			if j.Class != class[j.ID] {
				t.Errorf("%v: job %s has class %v, its trace class is %v", p, j.ID, j.Class, class[j.ID])
			}
		}
	}
}

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
	for watched.finished < 3 {
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
			t.Fatalf("the loop ran dry with %d of 3 jobs done", watched.finished)
		}
	}
	if err := watched.runErr; err != nil {
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

// TestMidRunResultStaysAsReturned: a Result taken while the emulation runs
// does not change when the run goes on. Result once handed out the cluster's
// live replica-timeline map, so one taken with 8 of Table 1's 16 elastic jobs
// done held 11 timelines then and 16 once the run had finished. Timelines now
// ride on the job records, and a Result lists completed jobs only, so a job
// still running mid-run reports no timeline. Every timeline and the
// utilization timeline come capped, so an append to one cannot write into the
// next or into the cluster's own log.
func TestMidRunResultStaysAsReturned(t *testing.T) {
	w := sim.Table1Workload()
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	c.SubmitWorkload(w)
	c.Loop.RunUntil(func() bool { return c.finished >= len(w.Jobs)/2 })
	mid := c.Result()
	if len(mid.Jobs) >= len(w.Jobs) {
		t.Fatalf("the mid-run Result already holds %d jobs: nothing is left to change", len(mid.Jobs))
	}
	was := mid
	was.Jobs = slices.Clone(mid.Jobs)
	was.UtilTimeline = slices.Clone(mid.UtilTimeline)
	for i := range was.Jobs {
		was.Jobs[i].Timeline = slices.Clone(mid.Jobs[i].Timeline)
	}
	if cap(mid.UtilTimeline) != len(mid.UtilTimeline) {
		t.Errorf("the utilization timeline has room for %d more samples", cap(mid.UtilTimeline)-len(mid.UtilTimeline))
	}
	for _, j := range mid.Jobs {
		if len(j.Timeline) == 0 {
			t.Errorf("completed job %s has no replica timeline", j.ID)
		}
		if cap(j.Timeline) != len(j.Timeline) {
			t.Errorf("job %s's replica timeline has room for %d more samples", j.ID, cap(j.Timeline)-len(j.Timeline))
		}
	}
	if err := c.Run(len(w.Jobs), 10_000_000); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mid, was) {
		t.Errorf("finishing the run changed a Result taken with %d jobs done", len(was.Jobs))
	}
	final := c.Result()
	if len(final.Jobs) != len(w.Jobs) {
		t.Fatalf("the final Result holds %d jobs, want %d", len(final.Jobs), len(w.Jobs))
	}
	for _, j := range final.Jobs {
		if len(j.Timeline) == 0 {
			t.Errorf("the final Result holds no replica timeline for job %s", j.ID)
		}
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
