package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/workload"
)

func TestRunTasksCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [17]atomic.Int32
		if err := RunTasks(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
	if err := RunTasks(0, 4, func(int) error { t.Error("task ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunTasksReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("a")
	for _, workers := range []int{1, 4} {
		err := RunTasks(16, workers, func(i int) error {
			switch i {
			case 3:
				return errA
			case 11:
				return errors.New("b")
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Errorf("workers=%d: got %v, want the index-3 error", workers, err)
		}
	}
}

// The acceptance bar for the parallel harness: every sweep produces
// byte-identical metrics with workers == 1 and workers == NumCPU.
func TestParallelSweepsMatchSequential(t *testing.T) {
	par := runtime.NumCPU()
	if par < 2 {
		par = 4
	}

	seq, err := SubmissionGapSweep([]float64{0, 150}, 8, 3, 180, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SubmissionGapSweep([]float64{0, 150}, 8, 3, 180, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Errorf("submission-gap sweep diverges under parallel execution:\nseq %+v\npar %+v", seq, got)
	}

	rseq, err := RescaleGapSweep([]float64{0, 600}, 8, 3, 180, 1)
	if err != nil {
		t.Fatal(err)
	}
	rgot, err := RescaleGapSweep([]float64{0, 600}, 8, 3, 180, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rseq, rgot) {
		t.Error("rescale-gap sweep diverges under parallel execution")
	}

	gens := []workload.Generator{
		workload.Uniform{Jobs: 8, Gap: 90},
		workload.Poisson{Jobs: 8, MeanGap: 90},
		workload.Burst{Waves: 2, PerWave: 4, WaveGap: 360},
		workload.Diurnal{Jobs: 8, Period: 900, PeakGap: 30, OffPeakGap: 240},
		workload.Replay("fixed", workload.MustUniform(8, 60, 3)),
	}
	sseq, err := ScenarioSweep(gens, 3, 180, 1)
	if err != nil {
		t.Fatal(err)
	}
	sgot, err := ScenarioSweep(gens, 3, 180, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sseq, sgot) {
		t.Error("scenario sweep diverges under parallel execution")
	}
	if len(sseq) != len(gens) {
		t.Fatalf("%d scenario results", len(sseq))
	}
	for i, sr := range sseq {
		if sr.Name != gens[i].Name() {
			t.Errorf("result %d named %q, want %q", i, sr.Name, gens[i].Name())
		}
		for p, avg := range sr.ByPolicy {
			if avg.Runs != 3 || avg.TotalTime <= 0 || avg.Utilization <= 0 {
				t.Errorf("%s/%v: degenerate average %+v", sr.Name, p, avg)
			}
		}
	}
}

func TestSweepRejectsBadSeeds(t *testing.T) {
	if _, err := SubmissionGapSweep([]float64{90}, 8, 0, 180, 0); err == nil {
		t.Error("accepted seeds=0")
	}
}

// TestFigureSweepsRejectDegenerateWorkloads: a job count or gap no workload
// can have is the generator's error, returned — not an empty workload swept
// into rows of zeros, and not a panic out of a worker.
func TestFigureSweepsRejectDegenerateWorkloads(t *testing.T) {
	xs := []float64{0, 90}
	for _, jobs := range []int{0, -3} {
		if _, err := SubmissionGapSweep(xs, jobs, 1, 180, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("jobs=%d", jobs)) {
			t.Errorf("SubmissionGapSweep(jobs=%d): err = %v, want one naming the job count", jobs, err)
		}
		if _, err := RescaleGapSweep(xs, jobs, 1, 180, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("jobs=%d", jobs)) {
			t.Errorf("RescaleGapSweep(jobs=%d): err = %v, want one naming the job count", jobs, err)
		}
	}
	if _, err := SubmissionGapSweep([]float64{math.NaN()}, 8, 1, 180, 0); err == nil {
		t.Error("SubmissionGapSweep accepted a NaN gap")
	}
	if _, err := RescaleGapSweep(xs, 8, 1, math.NaN(), 0); err == nil {
		t.Error("RescaleGapSweep accepted a NaN submission gap")
	}
}

// TestSweepsRejectBadRescaleGaps: a rescale gap sim.New refuses fails the
// sweep with New's error, whichever axis carries it.
func TestSweepsRejectBadRescaleGaps(t *testing.T) {
	gens := []workload.Generator{workload.Uniform{Jobs: 8, Gap: 90}}
	for _, gap := range []float64{-5, math.NaN(), math.Inf(1)} {
		for _, tc := range []struct {
			name string
			run  func() error
		}{
			{"RescaleGapSweep", func() error { _, err := RescaleGapSweep([]float64{0, gap}, 8, 1, 180, 1); return err }},
			{"SubmissionGapSweep", func() error { _, err := SubmissionGapSweep([]float64{90}, 8, 1, gap, 1); return err }},
			{"ScenarioSweep", func() error { _, err := ScenarioSweep(gens, 1, gap, 1); return err }},
		} {
			if err := tc.run(); err == nil || !strings.Contains(err.Error(), "rescale gap") {
				t.Errorf("%s with rescale gap %g: err = %v, want one naming the rescale gap", tc.name, gap, err)
			}
		}
	}
}

func TestScenarioSweepPropagatesGeneratorError(t *testing.T) {
	gens := []workload.Generator{workload.Uniform{Jobs: 0, Gap: 90}}
	if _, err := ScenarioSweep(gens, 2, 180, 0); err == nil {
		t.Error("scenario sweep swallowed a generator error")
	}
}

// BenchmarkSweep shows the worker-pool speedup: the same submission-gap sweep
// sequentially and on all CPUs. Run with:
//
//	go test ./internal/sim -bench Sweep -benchtime 1x
//
// The per-cell workload is sized so one cell runs for milliseconds, not
// microseconds: at the paper's 16 jobs per cell the pool's dispatch overhead
// rivaled the work itself and the parallel variant measured ~1× even on
// many-core hosts. 256 jobs per cell keeps the whole sweep quick while
// making each task big enough that the speedup (and any future pool
// regression) is visible in the jobs/s metric both variants report.
func BenchmarkSweep(b *testing.B) {
	gaps := []float64{0, 60, 120, 180, 240, 300}
	const jobs, seeds = 256, 8
	cells := len(gaps) * len(core.AllPolicies()) * seeds
	// The parallel case's name is host-independent on purpose: rows quoted
	// from hosts with different CPU counts stay comparable by name.
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SubmissionGapSweep(gaps, jobs, seeds, 180, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cells*jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
