package cluster

import (
	"fmt"
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
// twice, about 255 while the store kept a label index and every created pod
// cloned its labels, and 194.4 while every pod version the store kept was an
// allocation of its own and every requeue armed a closure; it reads 110.5, and
// the bound is that plus about 8 %.
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
	if perJob := perRun / float64(len(w.Jobs)); perJob > 120 {
		t.Errorf("%.1f allocations a job, want at most 120", perJob)
	}
}

// BenchmarkEmulation runs Poisson traces (mean gap 150 s, seed 1) through the
// emulation under the elastic policy: 32 jobs, the run TestEmulationAllocsPerJob
// bounds, and 1,000 jobs, the size TestCrossBackendAgreementAtScale checks
// against the simulator. CI runs it once for its allocs/op and B/op, which
// do not depend on the host the way ns/op does.
func BenchmarkEmulation(b *testing.B) {
	for _, jobs := range []int{32, 1000} {
		w, err := workload.Poisson{Jobs: jobs, MeanGap: 150}.Generate(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunExperiment(DefaultConfig(core.Elastic), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
