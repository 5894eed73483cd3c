package cluster

import (
	"math"
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// TestCrossBackendAgreement pins the two backends to each other: the same
// small scenario through the discrete-event simulator (sim.Run) and
// the full k8s+operator emulation (RunExperiment) must complete the same job
// set with the same per-job peak replica counts, and their per-job timing
// metrics must agree within the pod-startup and rescale-protocol overheads
// the DES ignores. This is the guard that keeps federation aggregates —
// which mix metrics computed by either backend — from drifting between
// backends.
func TestCrossBackendAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend emulation in -short mode")
	}
	w := workload.MustUniform(8, 120, 3)
	for _, p := range []core.Policy{core.Elastic, core.RigidMax} {
		simRes, err := sim.Run(sim.DefaultConfig(p), w)
		if err != nil {
			t.Fatalf("%v sim: %v", p, err)
		}
		actRes, err := RunExperiment(DefaultConfig(p), w)
		if err != nil {
			t.Fatalf("%v emulation: %v", p, err)
		}
		simJobs := map[string]sim.JobMetrics{}
		for _, j := range simRes.Jobs {
			simJobs[j.ID] = j
		}
		if len(actRes.Jobs) != len(simRes.Jobs) {
			t.Fatalf("%v: emulation completed %d jobs, sim %d", p, len(actRes.Jobs), len(simRes.Jobs))
		}
		for _, aj := range actRes.Jobs {
			sj, ok := simJobs[aj.ID]
			if !ok {
				t.Errorf("%v: job %s completed in emulation only", p, aj.ID)
				continue
			}
			if aj.Replicas != sj.Replicas {
				t.Errorf("%v: job %s peaked at %d replicas in emulation, %d in sim",
					p, aj.ID, aj.Replicas, sj.Replicas)
			}
			// Timing carries the emulation's pod-startup latency and the
			// asynchronous rescale protocol; hold it to a relative band.
			if rel := math.Abs(aj.CompletionTime-sj.CompletionTime) / sj.CompletionTime; rel > 0.25 {
				t.Errorf("%v: job %s completion %g vs sim %g (%.0f%% apart)",
					p, aj.ID, aj.CompletionTime, sj.CompletionTime, rel*100)
			}
		}
		if rel := math.Abs(actRes.TotalTime-simRes.TotalTime) / simRes.TotalTime; rel > 0.25 {
			t.Errorf("%v: total %g vs sim %g (%.0f%% apart)", p, actRes.TotalTime, simRes.TotalTime, rel*100)
		}
	}
}

// TestCrossBackendAgreementAtScale is the same pin at a size where a
// utilization figure means something: 1,000 Poisson jobs (mean gap 150 s,
// seed 1) through both backends under the elastic policy. It also bounds what
// the emulation may cost — the run took ~13 s while every store read sorted
// and deep-copied every pod.
func TestCrossBackendAgreementAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-backend emulation in -short mode")
	}
	w, err := workload.Poisson{Jobs: 1000, MeanGap: 150}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(sim.DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	actRes, err := RunExperiment(DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > 2*time.Second && !raceEnabled {
		t.Errorf("1,000-job emulation took %v, want under 2s", took)
	}
	if len(actRes.Jobs) != len(w.Jobs) || len(simRes.Jobs) != len(w.Jobs) {
		t.Fatalf("completed %d jobs in emulation, %d in sim, of %d", len(actRes.Jobs), len(simRes.Jobs), len(w.Jobs))
	}
	if gap := math.Abs(actRes.Utilization - simRes.Utilization); gap > 0.02 {
		t.Errorf("utilization %.4f in emulation, %.4f in sim: gap %.4f > 0.02", actRes.Utilization, simRes.Utilization, gap)
	}
}
