package sim

import (
	"math"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

func run(t *testing.T, p core.Policy, w workload.Workload, rescaleGap float64) Result {
	t.Helper()
	cfg := DefaultConfig(p)
	cfg.RescaleGap = rescaleGap
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatalf("Run(%v): %v", p, err)
	}
	return res
}

// streamingMode returns cfg in streaming mode.
func streamingMode(cfg Config) Config {
	cfg.Streaming = true
	return cfg
}

func singleJob(class model.Class, prio int, at float64) workload.Workload {
	return workload.Workload{Jobs: []workload.JobSpec{{ID: "j0", Class: class, Priority: prio, SubmitAt: at}}}
}

func TestSingleJobRuntimeMatchesModel(t *testing.T) {
	m := model.DefaultMachine()
	spec := model.Specs()[model.Medium]
	res := run(t, core.RigidMax, singleJob(model.Medium, 3, 0), 180)
	want := m.JobRuntime(spec, spec.MaxReplicas)
	if math.Abs(res.TotalTime-want) > 1e-6 {
		t.Errorf("total = %g, want %g", res.TotalTime, want)
	}
	j := res.Jobs[0]
	if j.ResponseTime != 0 {
		t.Errorf("response = %g", j.ResponseTime)
	}
	if math.Abs(j.CompletionTime-want) > 1e-6 {
		t.Errorf("completion = %g", j.CompletionTime)
	}
	if j.Rescales != 0 {
		t.Errorf("rescales = %d", j.Rescales)
	}
}

func TestRigidMinSlowerThanRigidMaxForOneJob(t *testing.T) {
	w := singleJob(model.Large, 3, 0)
	rMin := run(t, core.RigidMin, w, 180)
	rMax := run(t, core.RigidMax, w, 180)
	if rMin.TotalTime <= rMax.TotalTime {
		t.Errorf("min-replicas total %g <= max-replicas %g", rMin.TotalTime, rMax.TotalTime)
	}
}

func TestUtilizationBounds(t *testing.T) {
	w := workload.MustUniform(16, 90, 1)
	for _, p := range core.AllPolicies() {
		res := run(t, p, w, 180)
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Errorf("%v utilization = %g", p, res.Utilization)
		}
		if res.TotalTime <= 0 {
			t.Errorf("%v total = %g", p, res.TotalTime)
		}
		if len(res.Jobs) != 16 {
			t.Errorf("%v finished %d jobs", p, len(res.Jobs))
		}
	}
}

func TestAllJobsCompleteUnderAllPoliciesManySeeds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, gap := range []float64{0, 90, 300} {
			w := workload.MustUniform(16, gap, seed)
			for _, p := range core.AllPolicies() {
				res, err := Run(DefaultConfig(p), w)
				if err != nil {
					t.Fatalf("seed %d gap %g policy %v: %v", seed, gap, p, err)
				}
				for _, j := range res.Jobs {
					if j.EndAt <= j.StartAt {
						t.Errorf("seed %d %v job %s: end %g <= start %g", seed, p, j.ID, j.EndAt, j.StartAt)
					}
					if j.StartAt < j.SubmitAt {
						t.Errorf("job %s started before submission", j.ID)
					}
				}
			}
		}
	}
}

func TestElasticRescalesJobs(t *testing.T) {
	// Back-to-back submissions force the elastic scheduler to shrink and
	// expand; rigid policies never do.
	w := workload.MustUniform(16, 0, 3)
	elastic := run(t, core.Elastic, w, 180)
	var rescales int
	for _, j := range elastic.Jobs {
		rescales += j.Rescales
	}
	if rescales == 0 {
		t.Error("elastic policy never rescaled under contention")
	}
	for _, p := range []core.Policy{core.RigidMin, core.RigidMax, core.Moldable} {
		res := run(t, p, w, 180)
		for _, j := range res.Jobs {
			if j.Rescales != 0 {
				t.Errorf("%v rescaled job %s %d times", p, j.ID, j.Rescales)
			}
		}
	}
}

func TestElasticBeatsBaselinesOnUtilizationUnderContention(t *testing.T) {
	// Figure 7a at small gaps: elastic has the highest utilization and
	// min_replicas the lowest.
	var e, mn, mx, mo float64
	const seeds = 5
	for seed := int64(0); seed < seeds; seed++ {
		w := workload.MustUniform(16, 30, seed)
		e += run(t, core.Elastic, w, 180).Utilization
		mn += run(t, core.RigidMin, w, 180).Utilization
		mx += run(t, core.RigidMax, w, 180).Utilization
		mo += run(t, core.Moldable, w, 180).Utilization
	}
	if !(e > mx && e > mo && e > mn) {
		t.Errorf("elastic util %g not highest (min %g max %g mold %g)", e/seeds, mn/seeds, mx/seeds, mo/seeds)
	}
	if !(mn < mx && mn < mo) {
		t.Errorf("min-replicas util %g not lowest (max %g mold %g)", mn/seeds, mx/seeds, mo/seeds)
	}
}

func TestElasticLowestTotalTime(t *testing.T) {
	// Figure 7b: the elastic scheduler's total time is the lowest.
	var e, mn, mx, mo float64
	const seeds = 5
	for seed := int64(0); seed < seeds; seed++ {
		w := workload.MustUniform(16, 90, seed)
		e += run(t, core.Elastic, w, 180).TotalTime
		mn += run(t, core.RigidMin, w, 180).TotalTime
		mx += run(t, core.RigidMax, w, 180).TotalTime
		mo += run(t, core.Moldable, w, 180).TotalTime
	}
	if !(e < mn && e < mx && e < mo) {
		t.Errorf("elastic total %g not lowest (min %g max %g mold %g)", e/seeds, mn/seeds, mx/seeds, mo/seeds)
	}
}

func TestMinReplicasLowestResponseTime(t *testing.T) {
	// Figure 7c: min_replicas leaves capacity free, so its weighted mean
	// response time is the lowest; it pays with the highest completion
	// time (Figure 7d).
	var respMin, respMax, compMin, compMax float64
	const seeds = 5
	for seed := int64(0); seed < seeds; seed++ {
		w := workload.MustUniform(16, 90, seed)
		rMin := run(t, core.RigidMin, w, 180)
		rMax := run(t, core.RigidMax, w, 180)
		respMin += rMin.WeightedResponse
		respMax += rMax.WeightedResponse
		compMin += rMin.WeightedCompletion
		compMax += rMax.WeightedCompletion
	}
	if respMin >= respMax {
		t.Errorf("min-replicas response %g >= max-replicas %g", respMin/seeds, respMax/seeds)
	}
	if compMin <= compMax {
		t.Errorf("min-replicas completion %g <= max-replicas %g", compMin/seeds, compMax/seeds)
	}
}

func TestTotalTimesConvergeAtLargeGaps(t *testing.T) {
	// Figure 7b: with a large enough submission gap every job runs alone
	// at max replicas, so elastic/moldable/max totals converge.
	w := workload.MustUniform(16, 4000, 4)
	e := run(t, core.Elastic, w, 180).TotalTime
	mx := run(t, core.RigidMax, w, 180).TotalTime
	mo := run(t, core.Moldable, w, 180).TotalTime
	if math.Abs(e-mx)/mx > 0.02 || math.Abs(mo-mx)/mx > 0.02 {
		t.Errorf("totals did not converge: elastic %g, max %g, moldable %g", e, mx, mo)
	}
}

func TestElasticApproachesMoldableAsRescaleGapGrows(t *testing.T) {
	// Figure 8: "All the metrics for the elastic scheduler approach the
	// moldable scheduler as T_rescale_gap is increased".
	w := workload.MustUniform(16, 180, 5)
	mo := run(t, core.Moldable, w, 180)
	eHuge := run(t, core.Elastic, w, 1e9)
	if math.Abs(eHuge.TotalTime-mo.TotalTime)/mo.TotalTime > 0.01 {
		t.Errorf("elastic@∞gap total %g != moldable %g", eHuge.TotalTime, mo.TotalTime)
	}
	if math.Abs(eHuge.Utilization-mo.Utilization) > 0.01 {
		t.Errorf("elastic@∞gap util %g != moldable %g", eHuge.Utilization, mo.Utilization)
	}
}

func TestSmallRescaleGapImprovesElasticUtilization(t *testing.T) {
	// Figure 8a: utilization is highest with a small T_rescale_gap.
	var lo, hi float64
	const seeds = 5
	for seed := int64(0); seed < seeds; seed++ {
		w := workload.MustUniform(16, 180, seed)
		lo += run(t, core.Elastic, w, 30).Utilization
		hi += run(t, core.Elastic, w, 900).Utilization
	}
	if lo <= hi {
		t.Errorf("util with 30s gap (%g) <= 900s gap (%g)", lo/seeds, hi/seeds)
	}
}

func TestRescaleOverheadCharged(t *testing.T) {
	w := workload.MustUniform(16, 0, 3)
	res := run(t, core.Elastic, w, 180)
	var overhead float64
	for _, j := range res.Jobs {
		overhead += j.OverheadSec
		if j.Rescales > 0 && j.OverheadSec <= 0 {
			t.Errorf("job %s rescaled %d times with zero overhead", j.ID, j.Rescales)
		}
	}
	if overhead <= 0 {
		t.Error("no rescale overhead charged at all")
	}
}

func TestWorkloadWithGapPreservesMix(t *testing.T) {
	w := workload.MustUniform(16, 90, 7)
	w2 := w.WithGap(30)
	if len(w2.Jobs) != len(w.Jobs) {
		t.Fatal("job count changed")
	}
	for i := range w.Jobs {
		if w2.Jobs[i].Class != w.Jobs[i].Class || w2.Jobs[i].Priority != w.Jobs[i].Priority {
			t.Errorf("job %d mix changed", i)
		}
		if w2.Jobs[i].SubmitAt != float64(i)*30 {
			t.Errorf("job %d submit = %g", i, w2.Jobs[i].SubmitAt)
		}
	}
	// Original untouched.
	if w.Jobs[1].SubmitAt != 90 {
		t.Error("WithGap mutated the original workload")
	}
}

func TestRandomWorkloadDeterministic(t *testing.T) {
	a := workload.MustUniform(16, 90, 42)
	b := workload.MustUniform(16, 90, 42)
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs across same-seed generations", i)
		}
	}
	c := workload.MustUniform(16, 90, 43)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].Class != c.Jobs[i].Class || a.Jobs[i].Priority != c.Jobs[i].Priority {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestUtilizationTimelineConsistent(t *testing.T) {
	w := workload.MustUniform(8, 60, 9)
	res := run(t, core.Elastic, w, 180)
	if len(res.UtilTimeline) == 0 {
		t.Fatal("no utilization timeline")
	}
	for i, s := range res.UtilTimeline {
		if s.Used < 0 || s.Used > 64 {
			t.Errorf("sample %d used = %d", i, s.Used)
		}
		if i > 0 && s.At < res.UtilTimeline[i-1].At {
			t.Errorf("timeline not monotone at %d", i)
		}
	}
	// The last allocation change must return the cluster to empty.
	if last := res.UtilTimeline[len(res.UtilTimeline)-1]; last.Used != 0 {
		t.Errorf("cluster not empty at end: %d slots used", last.Used)
	}
}

func TestReplicaTimelineRecordsRescales(t *testing.T) {
	w := workload.MustUniform(16, 0, 3)
	res := run(t, core.Elastic, w, 180)
	found := false
	for id, tl := range res.ReplicaTimelines {
		if len(tl) > 1 {
			found = true
			for i := 1; i < len(tl); i++ {
				if tl[i].At < tl[i-1].At {
					t.Errorf("job %s timeline not monotone", id)
				}
			}
		}
	}
	if !found {
		t.Error("no job has a multi-point replica timeline despite contention")
	}
}

func TestXLargeCappedAtCapacity(t *testing.T) {
	// An xlarge job's max (64) equals capacity; it must be able to run.
	res := run(t, core.RigidMax, singleJob(model.XLarge, 5, 0), 180)
	if res.Jobs[0].Replicas != 64 {
		t.Errorf("xlarge ran at %d replicas", res.Jobs[0].Replicas)
	}
}

func TestTable1Simulation(t *testing.T) {
	results, err := Table1Simulation()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d policies", len(results))
	}
	e := results[core.Elastic]
	// Table 1 ordering: elastic wins every metric.
	for _, p := range []core.Policy{core.RigidMin, core.RigidMax, core.Moldable} {
		r := results[p]
		if e.TotalTime >= r.TotalTime {
			t.Errorf("elastic total %g >= %v %g", e.TotalTime, p, r.TotalTime)
		}
		if e.Utilization <= r.Utilization {
			t.Errorf("elastic util %g <= %v %g", e.Utilization, p, r.Utilization)
		}
		if e.WeightedCompletion >= r.WeightedCompletion {
			t.Errorf("elastic completion %g >= %v %g", e.WeightedCompletion, p, r.WeightedCompletion)
		}
	}
	// min_replicas has the lowest utilization.
	mn := results[core.RigidMin]
	for _, p := range []core.Policy{core.RigidMax, core.Moldable, core.Elastic} {
		if mn.Utilization >= results[p].Utilization {
			t.Errorf("min util %g >= %v %g", mn.Utilization, p, results[p].Utilization)
		}
	}
	// Moldable response beats max_replicas (paper §4.3.2).
	if results[core.Moldable].WeightedResponse >= results[core.RigidMax].WeightedResponse {
		t.Errorf("moldable response %g >= max %g",
			results[core.Moldable].WeightedResponse, results[core.RigidMax].WeightedResponse)
	}
}

func TestSweepsRunSmall(t *testing.T) {
	pts, err := SubmissionGapSweep([]float64{0, 150, 300}, 8, 2, 180, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if len(pt.ByPolicy) != 4 {
			t.Errorf("point %g has %d policies", pt.X, len(pt.ByPolicy))
		}
		for p, avg := range pt.ByPolicy {
			if avg.Runs != 2 || avg.TotalTime <= 0 {
				t.Errorf("point %g policy %v: %+v", pt.X, p, avg)
			}
		}
	}
	rpts, err := RescaleGapSweep([]float64{0, 600}, 8, 2, 180, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpts) != 2 {
		t.Fatalf("%d rescale points", len(rpts))
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Policy: core.Elastic, Capacity: 0}); err == nil {
		t.Error("accepted zero capacity")
	}
	cfg := DefaultConfig(core.Elastic)
	cfg.Shards = -3
	if _, err := New(cfg); err == nil {
		t.Error("accepted a negative shard count")
	}
}

func TestPreemptionExtensionCompletesAllJobs(t *testing.T) {
	cfg := DefaultConfig(core.Elastic)
	cfg.EnablePreemption = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.MustUniform(16, 0, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 16 {
		t.Errorf("%d jobs finished", len(res.Jobs))
	}
}

func TestCostBenefitExtensionCompletesAllJobs(t *testing.T) {
	cfg := DefaultConfig(core.Elastic)
	progress := func(j *core.Job) float64 { return 0.5 }
	cfg.CostBenefit = &core.CostBenefit{Progress: progress, MinRemainingFraction: 0.1, MinExpandGain: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(workload.MustUniform(16, 30, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 16 {
		t.Errorf("%d jobs finished", len(res.Jobs))
	}
}

// Streaming mode must reproduce the retained mode's aggregates exactly: both
// accumulate them incrementally at completion time, so equality is
// bit-for-bit, not approximate.
func TestStreamingMatchesRetained(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, gap := range []float64{0, 90} {
			w := workload.MustUniform(16, gap, seed)
			for _, p := range core.AllPolicies() {
				retained := run(t, p, w, 180)
				streaming, err := Run(streamingMode(DefaultConfig(p)), w)
				if err != nil {
					t.Fatalf("seed %d gap %g %v streaming: %v", seed, gap, p, err)
				}
				if streaming.TotalTime != retained.TotalTime ||
					streaming.Utilization != retained.Utilization ||
					streaming.WeightedResponse != retained.WeightedResponse ||
					streaming.WeightedCompletion != retained.WeightedCompletion {
					t.Errorf("seed %d gap %g %v: streaming %+v != retained %+v",
						seed, gap, p, streaming, retained)
				}
				if streaming.Jobs != nil || streaming.UtilTimeline != nil || streaming.ReplicaTimelines != nil {
					t.Errorf("%v: streaming result retained per-job state", p)
				}
				if len(retained.Jobs) != 16 {
					t.Errorf("%v: retained mode lost jobs: %d", p, len(retained.Jobs))
				}
			}
		}
	}
}

// The streaming recycler must stay correct when job records are reused many
// times over: a deep bursty backlog cycles every pooled slot repeatedly.
func TestStreamingRecyclesUnderBacklog(t *testing.T) {
	w, err := (workload.Burst{Waves: 20, PerWave: 50, WaveGap: 2000}).Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	retained, err := Run(DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := Run(streamingMode(DefaultConfig(core.Elastic)), w)
	if err != nil {
		t.Fatal(err)
	}
	if streaming.Policy != retained.Policy ||
		streaming.TotalTime != retained.TotalTime ||
		streaming.Utilization != retained.Utilization ||
		streaming.WeightedResponse != retained.WeightedResponse ||
		streaming.WeightedCompletion != retained.WeightedCompletion {
		t.Errorf("streaming %+v diverges from retained aggregates %+v", streaming, retained)
	}
	if len(retained.Jobs) != 1000 {
		t.Errorf("retained completed %d of 1000", len(retained.Jobs))
	}
}
