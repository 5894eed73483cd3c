package sim

import (
	"reflect"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// TestSteppedRunMatchesBatch pins the stepping API against the batch loop: a
// Begin/StepTo…/Finish run with no coordinator mutations must process the
// identical event sequence — same per-job metrics, timelines, window, and
// weighted means, and utilization integral, bit for bit: a step boundary
// moves the clock but folds no float term.
func TestSteppedRunMatchesBatch(t *testing.T) {
	w, err := (workload.Burst{Waves: 4, PerWave: 24, WaveGap: 5000}).Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 2000, Capacity: 24},
		{At: 9000, Capacity: 64},
	}}
	for _, p := range core.AllPolicies() {
		cfg := DefaultConfig(p)
		cfg.Availability = tr
		batch, err := Run(cfg, w)
		if err != nil {
			t.Fatalf("%v batch: %v", p, err)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Begin(w); err != nil {
			t.Fatal(err)
		}
		for tick := 500.0; !s.Drained(); tick += 500 {
			if err := s.StepTo(tick); err != nil {
				t.Fatalf("%v StepTo(%g): %v", p, tick, err)
			}
			if s.Clock() != tick {
				t.Fatalf("%v: clock %g after StepTo(%g)", p, s.Clock(), tick)
			}
		}
		stepped, err := s.Finish()
		if err != nil {
			t.Fatalf("%v finish: %v", p, err)
		}
		if !reflect.DeepEqual(stepped.Jobs, batch.Jobs) {
			t.Errorf("%v: per-job metrics diverged", p)
		}
		if !reflect.DeepEqual(stepped.ReplicaTimelines, batch.ReplicaTimelines) {
			t.Errorf("%v: replica timelines diverged", p)
		}
		if !reflect.DeepEqual(stepped.UtilTimeline, batch.UtilTimeline) {
			t.Errorf("%v: utilization timeline diverged", p)
		}
		if stepped.TotalTime != batch.TotalTime ||
			stepped.FirstStart != batch.FirstStart || stepped.LastEnd != batch.LastEnd {
			t.Errorf("%v: window diverged: [%g,%g] vs [%g,%g]", p,
				stepped.FirstStart, stepped.LastEnd, batch.FirstStart, batch.LastEnd)
		}
		if stepped.WeightedResponse != batch.WeightedResponse ||
			stepped.WeightedCompletion != batch.WeightedCompletion ||
			stepped.WeightSum != batch.WeightSum {
			t.Errorf("%v: weighted means diverged", p)
		}
		if stepped.CapacityEvents != batch.CapacityEvents ||
			stepped.ForcedShrinks != batch.ForcedShrinks ||
			stepped.Requeues != batch.Requeues {
			t.Errorf("%v: resilience counters diverged: %d/%d/%d vs %d/%d/%d", p,
				stepped.CapacityEvents, stepped.ForcedShrinks, stepped.Requeues,
				batch.CapacityEvents, batch.ForcedShrinks, batch.Requeues)
		}
		if stepped.Utilization != batch.Utilization || stepped.UsedSlotSec != batch.UsedSlotSec {
			t.Errorf("%v: utilization %v (%v slot-s) vs batch %v (%v slot-s)", p,
				stepped.Utilization, stepped.UsedSlotSec, batch.Utilization, batch.UsedSlotSec)
		}
	}
}

// TestWithdrawInjectRoundTrip moves a queued job between two steppers and
// checks nothing is lost: both runs complete, the moved job finishes on the
// receiver with its original submission time, and a checkpointed victim pays
// its restart on the receiver.
func TestWithdrawInjectRoundTrip(t *testing.T) {
	mk := func(jobs ...workload.JobSpec) workload.Workload { return workload.Workload{Jobs: jobs} }
	donorW := mk(
		workload.JobSpec{ID: "big", Class: model.XLarge, Priority: 5, SubmitAt: 0},
		workload.JobSpec{ID: "waiting", Class: model.XLarge, Priority: 1, SubmitAt: 1},
	)
	recvW := mk(workload.JobSpec{ID: "local", Class: model.Small, Priority: 3, SubmitAt: 0})

	cfg := DefaultConfig(core.Elastic)
	donor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Begin(donorW); err != nil {
		t.Fatal(err)
	}
	if err := recv.Begin(recvW); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Simulator{donor, recv} {
		if err := s.StepTo(100); err != nil {
			t.Fatal(err)
		}
	}
	queued := donor.QueuedJobs()
	if len(queued) != 1 || queued[0].ID != "waiting" {
		t.Fatalf("donor queue: %+v", queued)
	}
	if queued[0].Checkpointed {
		t.Error("never-started job reported a checkpoint")
	}
	mj, err := donor.Withdraw(queued[0].Ref)
	if err != nil {
		t.Fatal(err)
	}
	if mj.Spec.ID != "waiting" || mj.Spec.SubmitAt != 1 || mj.Checkpointed {
		t.Fatalf("migration record: %+v", mj)
	}
	if _, err := recv.Inject(mj); err != nil {
		t.Fatal(err)
	}
	dRes, err := donor.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := recv.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(dRes.Jobs) != 1 || dRes.Jobs[0].ID != "big" {
		t.Fatalf("donor finished %+v", dRes.Jobs)
	}
	if len(rRes.Jobs) != 2 {
		t.Fatalf("receiver finished %d jobs", len(rRes.Jobs))
	}
	var moved *JobMetrics
	for i := range rRes.Jobs {
		if rRes.Jobs[i].ID == "waiting" {
			moved = &rRes.Jobs[i]
		}
	}
	if moved == nil {
		t.Fatal("moved job missing from receiver result")
	}
	if moved.SubmitAt != 1 {
		t.Errorf("moved job's submission time rewritten to %g", moved.SubmitAt)
	}
	if moved.StartAt < 100 {
		t.Errorf("moved job started at %g, before its injection instant", moved.StartAt)
	}
}

// TestWithdrawRejectsUnknownRef pins the error surface.
func TestWithdrawRejectsUnknownRef(t *testing.T) {
	s, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(workload.Workload{Jobs: []workload.JobSpec{
		{ID: "a", Class: model.Small, Priority: 3, SubmitAt: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Withdraw(99); err == nil {
		t.Error("withdrew an out-of-range ref")
	}
}
