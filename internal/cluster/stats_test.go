package cluster

import (
	"fmt"
	"runtime"
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
// every kick armed a closure, and 27.8 (18.7 at 1,000) while the store, the
// workqueues, the operator and the cluster kept their per-object state in
// name-keyed maps. Each bound is the row's reading plus about 8 %.
func TestEmulationAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, row := range []struct {
		jobs             int
		measured, atMost float64
	}{
		{32, 26.0, 28},
		{1000, 18.6, 20},
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

// TestEmulationBytesPerJob bounds the bytes the emulation allocates for a
// job, on the traces TestEmulationAllocsPerJob runs: most of them are the
// pod versions the store keeps, so a field added to a stored kind shows here
// where an allocation count does not move. At 32 jobs it read 25.1–25.4 kB a
// job while every object's metadata carried a UID and a creation timestamp
// and every pod status a start time, none of which anything read, and 19.76
// kB (16.47 at 1,000) while the store and the cluster kept their per-object
// state in name-keyed maps. Each bound is the row's reading plus about 8 %.
func TestEmulationBytesPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, row := range []struct {
		jobs             int
		measured, atMost float64 // kB a job
	}{
		{32, 19.5, 21.1},
		{1000, 16.3, 17.6},
	} {
		t.Run(fmt.Sprintf("jobs=%d", row.jobs), func(t *testing.T) {
			if row.jobs > 32 && testing.Short() {
				t.Skip("a 1,000-job emulation in -short mode")
			}
			w, err := workload.Poisson{Jobs: row.jobs, MeanGap: 150}.Generate(1)
			if err != nil {
				t.Fatal(err)
			}
			perRun := bytesPerRun(5, func() {
				if _, err := RunExperiment(DefaultConfig(core.Elastic), w); err != nil {
					t.Fatal(err)
				}
			})
			if perJob := perRun / 1000 / float64(row.jobs); perJob > row.atMost {
				t.Errorf("%.2f kB allocated a job, want at most %g (%g measured)", perJob, row.atMost, row.measured)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f allocates
// a call, averaged over runs calls after a warm-up one, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
