package cluster

import (
	"fmt"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/workload"
)

// TestEmulationAllocsPerJob bounds what the emulation allocates for a job
// through operator, pod scheduler and kubelet, on Poisson traces of 32 jobs
// and, outside -short, of 1,000. A run this size takes ten to a hundred
// milliseconds, too short for a wall-clock gate to tell a regression from the
// host; an allocation count repeats anywhere. At 32 jobs it read about 995 a
// job when every binding and status write deep-copied its pod, every write
// closed over its event and every reconcile scanned and sorted the job's pods
// twice, about 255 while the store kept a label index and every created pod
// cloned its labels, 194.4 while every pod version the store kept was an
// allocation of its own and every requeue armed a closure, 110.5 while
// every CharmJob and nodelist write took one copy from Get or DeepCopy and
// another from Update and every pod and nodelist name was concatenated on
// its own, and 68.3 while every launch and rescale gathered and joined its
// nodelist afresh and every CharmJob copy cloned it, each new owner's pod
// list grew from nothing and each job's replica timeline grew a slice of
// its own, and 53.3 while every CharmJob, ConfigMap and Node version was an
// allocation of its own, every Create cloned the labels it was handed (a
// pod's unless its job had equal ones stored) and reconcile and the nodelist
// write built a labels map for every object they created, and 36.5 while
// every submission armed a closure of its own, the manager allocated a job's
// scheduler record, its managed record and its template apart, every
// launcher, worker and nodelist handed to Create was a struct of its own and
// every kick armed a closure. Each bound is the row's reading plus about 8 %.
func TestEmulationAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, row := range []struct {
		jobs             int
		measured, atMost float64
	}{
		{32, 28.8, 31},
		{1000, 19.0, 20.5},
	} {
		t.Run(fmt.Sprintf("jobs=%d", row.jobs), func(t *testing.T) {
			if row.jobs > 32 && testing.Short() {
				t.Skip("a 1,000-job emulation in -short mode")
			}
			w, err := workload.Poisson{Jobs: row.jobs, MeanGap: 150}.Generate(1)
			if err != nil {
				t.Fatal(err)
			}
			perRun := testing.AllocsPerRun(5, func() {
				if _, err := RunExperiment(DefaultConfig(core.Elastic), w); err != nil {
					t.Fatal(err)
				}
			})
			if perJob := perRun / float64(row.jobs); perJob > row.atMost {
				t.Errorf("%.1f allocations a job, want at most %g (%g measured)", perJob, row.atMost, row.measured)
			}
		})
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
