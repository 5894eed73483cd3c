package cluster

import (
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/workload"
)

// TestEmulationAllocsPerJob bounds what the emulation allocates for a job
// through operator, pod scheduler and kubelet. A run this size takes about
// ten milliseconds, too short for a wall-clock gate to tell a regression from
// the host; an allocation count repeats anywhere. It read about 995 a job
// when every binding and status write deep-copied its pod, every write
// closed over its event and every reconcile scanned and sorted the job's pods
// twice, and about 255 while the store kept a label index and every created
// pod cloned its labels; it reads 194.4, and the bound is that plus 5 %.
func TestEmulationAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := workload.Poisson{Jobs: 32, MeanGap: 150}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		if _, err := RunExperiment(DefaultConfig(core.Elastic), w); err != nil {
			t.Fatal(err)
		}
	})
	if perJob := perRun / float64(len(w.Jobs)); perJob > 204 {
		t.Errorf("%.1f allocations a job, want at most 204", perJob)
	}
}
