package cluster

import (
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// TestCapacityDropForcesShrinkInEmulation drives a hand-built capacity drop
// through the full k8s+operator stack: the running job must give slots back
// when half the cluster disappears, and get them back on restore.
func TestCapacityDropForcesShrinkInEmulation(t *testing.T) {
	cfg := DefaultConfig(core.Elastic)
	cfg.Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 60, Capacity: 32},
		{At: 300, Capacity: 64},
	}}
	w := workload.Workload{Jobs: []workload.JobSpec{
		{ID: "solo", Class: model.XLarge /* min 16, max 64 */, Priority: 3, SubmitAt: 0},
	}}
	res, err := RunExperiment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityEvents != 2 {
		t.Errorf("CapacityEvents = %d, want 2", res.CapacityEvents)
	}
	if res.ForcedShrinks < 1 {
		t.Errorf("ForcedShrinks = %d, want >= 1 (the t=60 drop must shrink the 64-replica job)", res.ForcedShrinks)
	}
	// The replica timeline must dip to 32 during the outage and recover.
	if len(res.Jobs) != 1 {
		t.Fatalf("%d job records, want 1", len(res.Jobs))
	}
	tl := res.Jobs[0].Timeline
	sawDip, sawRecover := false, false
	for _, s := range tl {
		if s.At >= 60 && s.At < 300 && s.Replicas == 32 {
			sawDip = true
		}
		if sawDip && s.At >= 300 && s.Replicas > 32 {
			sawRecover = true
		}
	}
	if !sawDip || !sawRecover {
		t.Errorf("replica timeline missed the dip/recovery: dip=%v recover=%v (%+v)", sawDip, sawRecover, tl)
	}
	if res.WorkLostSec <= 0 {
		t.Errorf("WorkLostSec = %v, want > 0 (forced shrink freezes the app)", res.WorkLostSec)
	}
	if res.GoodputFrac <= 0 || res.GoodputFrac >= 1 {
		t.Errorf("GoodputFrac = %v, want in (0,1)", res.GoodputFrac)
	}
}

// TestCapacityReclaimPreemptsAndResumesInEmulation shrinks the cluster below
// the combined minimum of two rigid-width jobs, forcing a checkpoint
// preemption; the restore must bring the victim back and every job must
// still finish.
func TestCapacityReclaimPreemptsAndResumesInEmulation(t *testing.T) {
	cfg := DefaultConfig(core.RigidMax) // rigid: jobs cannot shrink at all
	cfg.CheckpointPeriod = 1000
	cfg.Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 30, Capacity: 16},
		{At: 200, Capacity: 64},
	}}
	w := workload.Workload{Jobs: []workload.JobSpec{
		{ID: "keep", Class: model.Medium /* max 16 */, Priority: 5, SubmitAt: 0},
		{ID: "victim", Class: model.Medium, Priority: 1, SubmitAt: 0},
	}}
	res, err := RunExperiment(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeues < 1 {
		t.Errorf("Requeues = %d, want >= 1 (16 slots cannot hold two 16-wide rigid jobs)", res.Requeues)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(res.Jobs))
	}
	for _, jm := range res.Jobs {
		if jm.EndAt <= 0 {
			t.Errorf("job %s never completed: %+v", jm.ID, jm)
		}
	}
}

// TestAvailabilityProfileComparableAcrossBackends runs the same seeded spot
// scenario through the simulator and the emulation: both must complete, both
// must see capacity events, and their utilization/goodput must land in the
// same ballpark — the cross-validation the shared workload+availability
// engine exists for.
func TestAvailabilityProfileComparableAcrossBackends(t *testing.T) {
	gen := workload.Uniform{Jobs: 8, Gap: 90}
	prof := workload.SpotPreemption{MeanGap: 300, Slots: 16, MeanOutage: 240}
	const seed = 2

	cfg := DefaultConfig(core.Elastic)
	cfg.CheckpointPeriod = 1000
	actual, err := RunAvailability(cfg, gen, prof, seed)
	if err != nil {
		t.Fatal(err)
	}

	w, err := gen.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	horizon := sim.AvailabilityHorizon(w)
	tr, err := prof.Events(seed, 64, horizon)
	if err != nil {
		t.Fatal(err)
	}
	simcfg := sim.DefaultConfig(core.Elastic)
	simcfg.Availability = tr.WithRestore(64, horizon)
	simres, err := sim.Run(simcfg, w)
	if err != nil {
		t.Fatal(err)
	}

	if actual.CapacityEvents == 0 || simres.CapacityEvents == 0 {
		t.Fatalf("capacity events actual=%d sim=%d, want both > 0", actual.CapacityEvents, simres.CapacityEvents)
	}
	if ratio := actual.TotalTime / simres.TotalTime; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("total time diverged: actual %.0f vs sim %.0f", actual.TotalTime, simres.TotalTime)
	}
	if diff := actual.Utilization - simres.Utilization; diff < -0.35 || diff > 0.35 {
		t.Errorf("utilization diverged: actual %.3f vs sim %.3f", actual.Utilization, simres.Utilization)
	}
}
