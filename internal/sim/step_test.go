package sim

import (
	"math"
	"math/rand"
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
// moves the clock but folds no float term. The trace ends in a capacity
// event between the last completion and the step edge past it, which the
// batch run skips as trailing: the stepped run applies it inside a StepTo
// window, and must leave it out of the decision log, CapacityEvents and
// EndCapacity all the same.
func TestSteppedRunMatchesBatch(t *testing.T) {
	w, err := (workload.Burst{Waves: 4, PerWave: 24, WaveGap: 5000}).Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	const step = 500.0
	for _, p := range core.AllPolicies() {
		cfg := DefaultConfig(p)
		cfg.Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
			{At: 2000, Capacity: 24},
			{At: 9000, Capacity: 64},
		}}
		probe, err := Run(cfg, w)
		if err != nil {
			t.Fatalf("%v probe: %v", p, err)
		}
		// Well past the last completion: the batch loop still applies a
		// capacity event while a stale kick or completion is pending.
		at := probe.LastEnd + 2500
		edge := (math.Floor(at/step) + 1) * step
		cfg.Availability.Events = append(cfg.Availability.Events, workload.CapacityEvent{At: at, Capacity: 32})
		cfg.LogDecisions = true
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := b.Run(w)
		if err != nil {
			t.Fatalf("%v batch: %v", p, err)
		}
		if batch.CapacityEvents != 2 || batch.EndCapacity != 64 {
			t.Fatalf("%v: the batch run applied the trailing event (%d events, end capacity %d); the test needs it skipped",
				p, batch.CapacityEvents, batch.EndCapacity)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Begin(w); err != nil {
			t.Fatal(err)
		}
		for tick := step; !s.Drained(); tick += step {
			if err := s.StepTo(tick); err != nil {
				t.Fatalf("%v StepTo(%g): %v", p, tick, err)
			}
			if s.now != tick {
				t.Fatalf("%v: clock %g after StepTo(%g)", p, s.now, tick)
			}
		}
		if err := s.StepTo(edge); err != nil {
			t.Fatal(err)
		}
		if s.CurrentCapacity() != 32 {
			t.Fatalf("%v: capacity %d at the step edge past the trailing event, want the trace's 32", p, s.CurrentCapacity())
		}
		stepped, err := s.Finish()
		if err != nil {
			t.Fatalf("%v finish: %v", p, err)
		}
		if !reflect.DeepEqual(s.Decisions(), b.Decisions()) {
			t.Errorf("%v: decision logs diverged: %d vs %d decisions", p, len(s.Decisions()), len(b.Decisions()))
		}
		if stepped.EndCapacity != batch.EndCapacity {
			t.Errorf("%v: end capacity %d vs batch %d", p, stepped.EndCapacity, batch.EndCapacity)
		}
		if !reflect.DeepEqual(stepped.Jobs, batch.Jobs) {
			t.Errorf("%v: per-job metrics or replica timelines diverged", p)
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

// TestQueuedByClassMatchesQueue holds the wait queue's per-class counters,
// which QueuedByClass reads, to a count of the classes AppendQueuedJobs
// lists, after every StepTo, Withdraw, Inject, Preempt and Kick a coordinator
// can apply: two members under every policy, stepped through capacity drops
// and restores, trading queued jobs and reclaiming slots at every barrier.
func TestQueuedByClassMatchesQueue(t *testing.T) {
	var buf []QueuedJob
	check := func(s *Simulator, what string) {
		t.Helper()
		buf = s.AppendQueuedJobs(buf[:0])
		var want [model.XLarge + 1]int
		for _, q := range buf {
			want[q.Class]++
		}
		if got := s.QueuedByClass(); got != want {
			t.Fatalf("after %s: QueuedByClass %v, the queue holds %v", what, got, want)
		}
	}
	barriers, moved, freed := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, p := range core.AllPolicies() {
			rng := rand.New(rand.NewSource(seed))
			var sims [2]*Simulator
			for i := range sims {
				w, err := (workload.Burst{Waves: 5, PerWave: 40, WaveGap: 4000}).Generate(seed*2 + int64(i))
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(p)
				cfg.Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
					{At: 1500, Capacity: 24}, {At: 6000, Capacity: 64}, {At: 11000, Capacity: 40}, {At: 14000, Capacity: 64},
				}}
				if sims[i], err = New(cfg); err != nil {
					t.Fatal(err)
				}
				if err := sims[i].Begin(w); err != nil {
					t.Fatal(err)
				}
			}
			for tick := 300.0; !sims[0].Drained() || !sims[1].Drained(); tick += 300 {
				if tick > 1e6 {
					t.Fatalf("seed %d %v: not drained at %g s", seed, p, tick)
				}
				for _, s := range sims {
					if err := s.StepTo(tick); err != nil {
						t.Fatal(err)
					}
					check(s, "StepTo")
				}
				from := rng.Intn(2)
				donor, recv := sims[from], sims[1-from]
				if q := donor.QueuedJobs(); len(q) > 0 {
					mj, err := donor.Withdraw(q[rng.Intn(len(q))].Ref)
					if err != nil {
						t.Fatal(err)
					}
					check(donor, "Withdraw")
					if _, err := recv.Inject(mj); err != nil {
						t.Fatal(err)
					}
					check(recv, "Inject")
					moved++
				}
				freed += donor.Preempt(rng.Intn(16))
				check(donor, "Preempt")
				for _, s := range sims {
					s.Kick()
					check(s, "Kick")
				}
				barriers++
			}
			for _, s := range sims {
				if _, err := s.Finish(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Logf("%d barriers, %d jobs moved, %d slots preempted", barriers, moved, freed)
	// The property is only worth its name if the queues were busy.
	if barriers < 1000 || moved < 1000 || freed < 10000 {
		t.Fatalf("only %d barriers, %d moves, %d slots preempted", barriers, moved, freed)
	}
}
