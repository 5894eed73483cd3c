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

// uniformCell is the Figure 7/8 cell as the command builds it: the seed's
// uniform workload of jobs jobs at the submission gap, run at the rescale
// gap, unsharded on a pool of more than one worker. Degenerate jobs or gap
// are the generator's error.
func uniformCell(jobs int, gap, rescaleGap float64, p core.Policy, seed int64, workers int) (Metrics, error) {
	w, err := workload.Uniform{Jobs: jobs, Gap: gap}.Generate(seed)
	if err != nil {
		return Metrics{}, err
	}
	res, err := Run(cellConfig(p, rescaleGap, workers), w)
	return res.Metrics, err
}

// gapSweep is Figure 7's grid: x is the submission gap, at a fixed rescale
// gap.
func gapSweep(gaps []float64, jobs, seeds int, rescaleGap float64, workers int) ([]SweepPoint, error) {
	return SweepGrid(gaps, seeds, workers, func(gap float64, p core.Policy, seed int64) (Metrics, error) {
		return uniformCell(jobs, gap, rescaleGap, p, seed, workers)
	}, (*AverageResult).Accumulate)
}

// rescaleSweep is Figure 8's grid: x is the rescale gap, at a fixed
// submission gap.
func rescaleSweep(rescaleGaps []float64, jobs, seeds int, gap float64, workers int) ([]SweepPoint, error) {
	return SweepGrid(rescaleGaps, seeds, workers, func(rescaleGap float64, p core.Policy, seed int64) (Metrics, error) {
		return uniformCell(jobs, gap, rescaleGap, p, seed, workers)
	}, (*AverageResult).Accumulate)
}

// The acceptance bar for the parallel harness: every sweep produces
// byte-identical metrics with workers == 1 and workers == NumCPU.
func TestParallelSweepsMatchSequential(t *testing.T) {
	par := runtime.NumCPU()
	if par < 2 {
		par = 4
	}

	seq, err := gapSweep([]float64{0, 150}, 8, 3, 180, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gapSweep([]float64{0, 150}, 8, 3, 180, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Errorf("submission-gap sweep diverges under parallel execution:\nseq %+v\npar %+v", seq, got)
	}

	rseq, err := rescaleSweep([]float64{0, 600}, 8, 3, 180, 1)
	if err != nil {
		t.Fatal(err)
	}
	rgot, err := rescaleSweep([]float64{0, 600}, 8, 3, 180, par)
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
		if sr.Label != gens[i].Name() {
			t.Errorf("point %d labelled %q, want %q", i, sr.Label, gens[i].Name())
		}
		for p, avg := range sr.ByPolicy {
			if avg.Runs != 3 || avg.TotalTime <= 0 || avg.Utilization <= 0 {
				t.Errorf("%s/%v: degenerate average %+v", sr.Label, p, avg)
			}
		}
	}
}

func TestSweepRejectsBadSeeds(t *testing.T) {
	if _, err := gapSweep([]float64{90}, 8, 0, 180, 0); err == nil {
		t.Error("accepted seeds=0")
	}
}

// TestFigureSweepsRejectDegenerateWorkloads: a job count or gap no workload
// can have is the generator's error, returned — not an empty workload swept
// into rows of zeros, and not a panic out of a worker.
func TestFigureSweepsRejectDegenerateWorkloads(t *testing.T) {
	xs := []float64{0, 90}
	for _, jobs := range []int{0, -3} {
		if _, err := gapSweep(xs, jobs, 1, 180, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("jobs=%d", jobs)) {
			t.Errorf("gapSweep(jobs=%d): err = %v, want one naming the job count", jobs, err)
		}
		if _, err := rescaleSweep(xs, jobs, 1, 180, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("jobs=%d", jobs)) {
			t.Errorf("rescaleSweep(jobs=%d): err = %v, want one naming the job count", jobs, err)
		}
	}
	if _, err := gapSweep([]float64{math.NaN()}, 8, 1, 180, 0); err == nil {
		t.Error("gapSweep accepted a NaN gap")
	}
	if _, err := rescaleSweep(xs, 8, 1, math.NaN(), 0); err == nil {
		t.Error("rescaleSweep accepted a NaN submission gap")
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
			{"rescaleSweep", func() error { _, err := rescaleSweep([]float64{0, gap}, 8, 1, 180, 1); return err }},
			{"gapSweep", func() error { _, err := gapSweep([]float64{90}, 8, 1, gap, 1); return err }},
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
				if _, err := gapSweep(gaps, jobs, seeds, 180, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cells*jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// distinctMetrics fills every field of Metrics, found by reflection, with a
// value no other field holds and none is zero: field i holds i+1, or i+1.5
// when it is a float. A field of another kind fails the test until it is
// given a value here.
func distinctMetrics(t *testing.T) Metrics {
	t.Helper()
	var m Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("Metrics.%s is a %v: give it a distinct value", v.Type().Field(i).Name, f.Kind())
		}
	}
	return m
}

// TestAverageCarriesEveryMetric: the seed average of two runs with the same
// metrics is those metrics, field for field, so a field Accumulate or
// Finalize forgets reads zero or twice its value.
func TestAverageCarriesEveryMetric(t *testing.T) {
	m := distinctMetrics(t)
	var avg AverageResult
	avg.Accumulate(m)
	avg.Accumulate(m)
	avg.Finalize()
	if avg.Runs != 2 {
		t.Errorf("Runs = %d, want 2", avg.Runs)
	}
	want, got := reflect.ValueOf(m), reflect.ValueOf(avg)
	for i := range want.NumField() {
		name := want.Type().Field(i).Name
		g := got.FieldByName(name)
		if !g.IsValid() {
			t.Errorf("AverageResult has no field %s", name)
			continue
		}
		if w, h := asFloat(want.Field(i)), asFloat(g); h != w {
			t.Errorf("AverageResult.%s = %g, want %g", name, h, w)
		}
	}
}

// asFloat reads an integer or float field as a float64.
func asFloat(v reflect.Value) float64 {
	if v.CanInt() {
		return float64(v.Int())
	}
	return v.Float()
}
