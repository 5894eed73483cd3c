package cluster

import (
	"math"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
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
	w := sim.RandomWorkload(8, 120, 3)
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
