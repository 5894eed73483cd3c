package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// dropRestore is a minimal hand-built capacity trace: lose half the cluster
// at drop, get it back at restore.
func dropRestore(drop, restore float64, low int) workload.AvailabilityTrace {
	return workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: drop, Capacity: low},
		{At: restore, Capacity: 64},
	}}
}

// availConfig is the paper's setup on a time-varying cluster.
func availConfig(p core.Policy, tr workload.AvailabilityTrace) Config {
	cfg := DefaultConfig(p)
	cfg.Availability = tr
	return cfg
}

func TestAvailabilityRunCompletesAllPolicies(t *testing.T) {
	w := workload.MustUniform(16, 90, 7)
	tr := dropRestore(300, 1500, 32)
	for _, p := range core.AllPolicies() {
		res, err := Run(availConfig(p, tr), w)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.CapacityEvents != 2 {
			t.Errorf("%v: CapacityEvents = %d, want 2", p, res.CapacityEvents)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%v: utilization %v out of (0,1]", p, res.Utilization)
		}
		if res.GoodputFrac <= 0 || res.GoodputFrac > 1 {
			t.Errorf("%v: goodput %v out of (0,1]", p, res.GoodputFrac)
		}
	}
}

func TestAvailabilityProfilesRunEndToEnd(t *testing.T) {
	w := workload.MustUniform(16, 90, 7)
	horizon := AvailabilityHorizon(w)
	for _, prof := range workload.DefaultAvailabilityProfiles() {
		tr, err := prof.Events(3, 64, horizon)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name(), err)
		}
		tr = tr.WithRestore(64, horizon)
		res, err := Run(availConfig(core.Elastic, tr), w)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name(), err)
		}
		// Events that land before the submissions stop must have applied;
		// trailing events after the run drains are legitimately skipped.
		if len(tr.Events) > 0 && tr.Events[0].At < w.Span() && res.CapacityEvents == 0 {
			t.Errorf("%s: no capacity events applied (trace had %d, first at %.0f)",
				prof.Name(), len(tr.Events), tr.Events[0].At)
		}
	}
}

// TestCapacityEventBeforeSubmissionAtSameInstant is the regression test for
// the documented event ordering: a capacity event and a submission at the
// same timestamp must apply event-first. With the capacity drop landing
// first, the arriving job sees a cluster already shrunk to its victim's
// minimum-reachable state and has to queue; submission-first would have let
// it shrink the running job itself and start immediately.
func TestCapacityEventBeforeSubmissionAtSameInstant(t *testing.T) {
	w := workload.Workload{Jobs: []workload.JobSpec{
		{ID: "a", Class: model.XLarge, Priority: 1, SubmitAt: 0},
		{ID: "b", Class: model.Large, Priority: 5, SubmitAt: 100},
	}}
	tr := workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 100, Capacity: 32},
	}}
	res, err := Run(availConfig(core.Elastic, tr), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForcedShrinks != 1 {
		t.Errorf("ForcedShrinks = %d, want 1 (the t=100 drop shrinks job a before job b submits)", res.ForcedShrinks)
	}
	var b JobMetrics
	for _, jm := range res.Jobs {
		if jm.ID == "b" {
			b = jm
		}
	}
	// Event-first: job a is freshly rescaled by the forced shrink at
	// t=100, so its rescale gap blocks job b from shrinking it further
	// and b has to wait for the gap to expire. (Submission-first would
	// have let b shrink the still-untouched job a and start at t=100.)
	if b.StartAt <= 100 {
		t.Errorf("job b started at %v, want > 100 (capacity event must precede the submission)", b.StartAt)
	}

	// Bit-for-bit reproducibility of the availability path.
	again, err := Run(availConfig(core.Elastic, tr), w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("same workload + trace produced different results")
	}
}

// TestAvailabilityStreamingMatchesRetained extends the PR 2 guarantee to
// capacity events: every aggregate — the paper's four metrics and the new
// resilience set — must be bit-identical between streaming and retained
// runs of the same availability scenario.
func TestAvailabilityStreamingMatchesRetained(t *testing.T) {
	w, err := (workload.Burst{Waves: 8, PerWave: 8, WaveGap: 600}).Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.SpotPreemption{MeanGap: 400, Slots: 16, MeanOutage: 300}
	tr, err := prof.Events(11, 64, AvailabilityHorizon(w))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithRestore(64, AvailabilityHorizon(w))
	for _, p := range core.AllPolicies() {
		retained, err := Run(availConfig(p, tr), w)
		if err != nil {
			t.Fatalf("%v retained: %v", p, err)
		}
		streaming, err := Run(streamingMode(availConfig(p, tr)), w)
		if err != nil {
			t.Fatalf("%v streaming: %v", p, err)
		}
		if streaming.Jobs != nil || streaming.UtilTimeline != nil || streaming.ReplicaTimelines != nil {
			t.Fatalf("%v: streaming retained per-job state", p)
		}
		retained.Jobs, retained.UtilTimeline, retained.ReplicaTimelines = nil, nil, nil
		if !reflect.DeepEqual(retained, streaming) {
			t.Errorf("%v: streaming diverged from retained:\nretained:  %+v\nstreaming: %+v", p, retained, streaming)
		}
	}
}

// TestAvailabilityInvariantUnderRandomTraces is the sim-level property test:
// for any availability trace, allocated slots never exceed the capacity in
// force at any applied event, and forced requeues only happen when shrink
// alone could not absorb the loss.
func TestAvailabilityInvariantUnderRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		var tr workload.AvailabilityTrace
		at := 0.0
		for i := 0; i < 12; i++ {
			at += 100 + rng.Float64()*500
			tr.Events = append(tr.Events, workload.CapacityEvent{
				At: at, Capacity: 8 + rng.Intn(57),
			})
		}
		tr = tr.WithRestore(64, at+1)
		w := workload.MustUniform(12, 60, seed)
		res, err := Run(availConfig(core.Elastic, tr), w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Utilization <= 0 || res.Utilization > 1+1e-9 {
			t.Errorf("seed %d: utilization %v out of (0,1]", seed, res.Utilization)
		}
		// Allocated slots must respect the capacity curve pointwise. At
		// the exact instant of a capacity event the timeline records the
		// reclaim's intermediate steps (victims shrink one by one), so
		// samples coinciding with an event timestamp are transients and
		// excluded; everything in between must fit.
		eventAt := make(map[float64]bool, len(tr.Events))
		for _, ev := range tr.Events {
			eventAt[ev.At] = true
		}
		for _, s := range res.UtilTimeline {
			if eventAt[s.At] {
				continue
			}
			if cap := tr.CapacityAt(64, s.At); s.Used > cap {
				t.Fatalf("seed %d: %d slots in use at t=%.1f with capacity %d", seed, s.Used, s.At, cap)
			}
		}
	}
}

func TestAvailabilitySweepRunsSmall(t *testing.T) {
	profiles := []workload.AvailabilityProfile{
		workload.MaintenanceDrain{Every: 900, Duration: 300, Keep: 32},
		workload.SpotPreemption{MeanGap: 600, Slots: 16, MeanOutage: 300},
	}
	gen := workload.Uniform{Jobs: 8, Gap: 90}
	seq, err := AvailabilitySweep(profiles, gen, 2, 180, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AvailabilitySweep(profiles, gen, 2, 180, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel availability sweep diverged from sequential")
	}
	if len(seq) != 2 || seq[0].Name != "drain" || seq[1].Name != "spot" {
		t.Fatalf("unexpected sweep shape: %+v", seq)
	}
	for _, sr := range seq {
		for _, p := range core.AllPolicies() {
			avg, ok := sr.ByPolicy[p]
			if !ok {
				t.Fatalf("%s: missing policy %v", sr.Name, p)
			}
			if avg.Runs != 2 || avg.TotalTime <= 0 {
				t.Errorf("%s/%v: avg = %+v", sr.Name, p, avg)
			}
		}
	}
}
