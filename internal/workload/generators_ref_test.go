package workload

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"elastichpc/internal/model"
)

// The four generators as they were before they were built in one pass: a
// fmt.Sprintf ID, a per-draw Mix.draw and an append per job, the span checked
// once the whole workload is built. Their bodies are kept verbatim (only
// renamed into functions of the generator value) as the oracle the
// generators are held to — equal workloads, or the same error.

func uniformReference(g Uniform, seed int64) (Workload, error) {
	if g.Jobs <= 0 || !validGap(g.Gap) {
		return Workload{}, fmt.Errorf("workload: bad uniform params jobs=%d gap=%g", g.Jobs, g.Gap)
	}
	rng := rand.New(rand.NewSource(seed))
	classes := model.AllClasses()
	var w Workload
	for i := 0; i < g.Jobs; i++ {
		w.Jobs = append(w.Jobs, JobSpec{
			ID:       fmt.Sprintf("job-%02d", i),
			Class:    classes[rng.Intn(len(classes))],
			Priority: 1 + rng.Intn(5),
			SubmitAt: float64(i) * g.Gap,
		})
	}
	return boundedReference(w)
}

func poissonReference(g Poisson, seed int64) (Workload, error) {
	if g.Jobs <= 0 || !validGap(g.MeanGap) {
		return Workload{}, fmt.Errorf("workload: bad poisson params n=%d mean=%g", g.Jobs, g.MeanGap)
	}
	mix := uniformMixReference()
	rng := rand.New(rand.NewSource(seed))
	var w Workload
	at := 0.0
	for i := 0; i < g.Jobs; i++ {
		class, err := mixDrawReference(mix, rng)
		if err != nil {
			return Workload{}, err
		}
		w.Jobs = append(w.Jobs, JobSpec{
			ID:       fmt.Sprintf("job-%02d", i),
			Class:    class,
			Priority: 1 + rng.Intn(5),
			SubmitAt: at,
		})
		at += rng.ExpFloat64() * g.MeanGap
	}
	return boundedReference(w)
}

func burstReference(g Burst, seed int64) (Workload, error) {
	if g.Waves <= 0 || g.PerWave <= 0 || !validGap(g.WaveGap) {
		return Workload{}, fmt.Errorf("workload: bad burst params waves=%d perwave=%d gap=%g",
			g.Waves, g.PerWave, g.WaveGap)
	}
	mix := g.Mix
	if mix == nil {
		mix = uniformMixReference()
	}
	rng := rand.New(rand.NewSource(seed))
	var w Workload
	for wv := 0; wv < g.Waves; wv++ {
		for j := 0; j < g.PerWave; j++ {
			class, err := mixDrawReference(mix, rng)
			if err != nil {
				return Workload{}, err
			}
			w.Jobs = append(w.Jobs, JobSpec{
				ID:       fmt.Sprintf("job-w%02d-%02d", wv, j),
				Class:    class,
				Priority: 1 + rng.Intn(5),
				SubmitAt: float64(wv) * g.WaveGap,
			})
		}
	}
	return boundedReference(w)
}

func diurnalReference(g Diurnal, seed int64) (Workload, error) {
	if g.Jobs <= 0 || g.Period <= 0 || g.PeakGap <= 0 || g.OffPeakGap < g.PeakGap ||
		!validGap(g.Period) || !validGap(g.PeakGap) || !validGap(g.OffPeakGap) {
		return Workload{}, fmt.Errorf("workload: bad diurnal params jobs=%d period=%g peak=%g offpeak=%g",
			g.Jobs, g.Period, g.PeakGap, g.OffPeakGap)
	}
	mix := uniformMixReference()
	rng := rand.New(rand.NewSource(seed))
	var w Workload
	at := 0.0
	for i := 0; i < g.Jobs; i++ {
		class, err := mixDrawReference(mix, rng)
		if err != nil {
			return Workload{}, err
		}
		w.Jobs = append(w.Jobs, JobSpec{
			ID:       fmt.Sprintf("job-%02d", i),
			Class:    class,
			Priority: 1 + rng.Intn(5),
			SubmitAt: at,
		})
		// load = 1 at the start of each period (peak), 0 half a period in.
		load := (1 + math.Cos(2*math.Pi*at/g.Period)) / 2
		mean := g.PeakGap*load + g.OffPeakGap*(1-load)
		at += rng.ExpFloat64() * mean
	}
	return boundedReference(w)
}

func uniformMixReference() Mix {
	m := Mix{}
	for _, c := range model.AllClasses() {
		m[c] = 1
	}
	return m
}

func mixDrawReference(m Mix, rng *rand.Rand) (model.Class, error) {
	var total float64
	classes := model.AllClasses()
	for _, c := range classes {
		if m[c] < 0 {
			return 0, fmt.Errorf("workload: negative weight for %v", c)
		}
		total += m[c]
	}
	if total <= 0 {
		return 0, fmt.Errorf("workload: mix has no positive weights")
	}
	x := rng.Float64() * total
	for _, c := range classes {
		x -= m[c]
		if x < 0 {
			return c, nil
		}
	}
	return classes[len(classes)-1], nil
}

func boundedReference(w Workload) (Workload, error) {
	if n := len(w.Jobs); n > 0 && !(w.Jobs[n-1].SubmitAt <= model.MaxSeconds) {
		return Workload{}, fmt.Errorf("workload: job %s submitted at %g s, past %g s", w.Jobs[n-1].ID, w.Jobs[n-1].SubmitAt, model.MaxSeconds)
	}
	return w, nil
}

// generateReference dispatches a generator to its reference body.
func generateReference(g Generator, seed int64) (Workload, error) {
	switch g := g.(type) {
	case Uniform:
		return uniformReference(g, seed)
	case Poisson:
		return poissonReference(g, seed)
	case Burst:
		return burstReference(g, seed)
	case Diurnal:
		return diurnalReference(g, seed)
	}
	panic(fmt.Sprintf("no reference for %T", g))
}

// TestGeneratorsMatchReference holds every generator to its reference body:
// seeds 1, 7 and 42, IDs of two and three digits, every mix shape, and spans
// past model.MaxSeconds. Uniform and Burst name the same last job when they
// reject a span; Poisson and Diurnal stop at the first arrival past it, so
// only their verdict is compared there.
func TestGeneratorsMatchReference(t *testing.T) {
	gens := []Generator{
		Uniform{Jobs: 16, Gap: 90}, Uniform{Jobs: 150, Gap: 7.5}, Uniform{Jobs: 3, Gap: 0},
		Uniform{Jobs: 3, Gap: 6e8},
		Poisson{Jobs: 300, MeanGap: 170}, Poisson{Jobs: 100, MeanGap: 1e8},
		Diurnal{Jobs: 300, Period: 1440, PeakGap: 30, OffPeakGap: 300},
		Diurnal{Jobs: 100, Period: 100, PeakGap: 1e8, OffPeakGap: 1e9},
	}
	for _, mix := range []Mix{
		nil,                               // uniform
		{model.Large: 1, model.XLarge: 1}, // two-class
		{model.Small: 0.3, model.Medium: 2.5, model.XLarge: 1e-3},
		{model.Small: 1, model.Medium: -1}, // negative
		{},                                 // all zero
	} {
		gens = append(gens,
			Burst{Waves: 4, PerWave: 4, WaveGap: 360, Mix: mix},
			Burst{Waves: 120, PerWave: 110, WaveGap: 0.25, Mix: mix},
			Burst{Waves: 3, PerWave: 2, WaveGap: 6e8, Mix: mix})
	}
	for _, g := range gens {
		for _, seed := range []int64{1, 7, 42} {
			got, err := g.Generate(seed)
			want, wantErr := generateReference(g, seed)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%+v seed %d: error %v, reference %v", g, seed, err, wantErr)
			}
			if err != nil {
				switch g.(type) {
				case Poisson, Diurnal: // named the first late job, the reference the last
				default:
					if err.Error() != wantErr.Error() {
						t.Errorf("%+v seed %d: error %q, reference %q", g, seed, err, wantErr)
					}
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v seed %d: workload differs from the reference", g, seed)
			}
		}
	}
}

// TestAppend02dMatchesSprintf: the hand-rolled ID digits are %02d's.
func TestAppend02dMatchesSprintf(t *testing.T) {
	var b []byte
	for i := 0; i <= 1_000_000; i++ {
		b = append02d(b[:0], i)
		if want := fmt.Sprintf("%02d", i); string(b) != want {
			t.Fatalf("append02d(%d) = %q, want %q", i, b, want)
		}
	}
}

// TestGenerateAndSaveAllocsDoNotScale is the write side's twin of
// TestLoadCSVAllocsDoNotScale: generating a workload and saving it costs the
// same allocations at 32,000 jobs as at 2,000, for every generator. (The
// reference costs an ID string and a share of a regrown slice a job, and
// csv.Writer a []string and two number strings a row.)
func TestGenerateAndSaveAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	for _, sized := range []func(n int) Generator{
		func(n int) Generator { return Uniform{Jobs: n, Gap: 90} },
		func(n int) Generator { return Poisson{Jobs: n, MeanGap: 170} },
		func(n int) Generator { return Burst{Waves: n / 200, PerWave: 200, WaveGap: 29000} },
		func(n int) Generator { return Diurnal{Jobs: n, Period: 1440, PeakGap: 30, OffPeakGap: 300} },
	} {
		var allocs [2]float64
		for i, n := range []int{2_000, 32_000} {
			g := sized(n)
			allocs[i] = testing.AllocsPerRun(3, func() {
				w, err := g.Generate(1)
				if err != nil {
					t.Fatal(err)
				}
				if err := SaveFile(path, w, ""); err != nil {
					t.Fatal(err)
				}
			})
		}
		name := sized(0).Name()
		t.Logf("%s: %.0f allocations at 2,000 jobs, %.0f at 32,000", name, allocs[0], allocs[1])
		if allocs[0] != allocs[1] {
			t.Errorf("%s: Generate+SaveFile allocates %.0f times at 32,000 jobs, %.0f at 2,000",
				name, allocs[1], allocs[0])
		}
	}
}

// TestLateSpanRejectedBeforeBuilding: a generator whose span passes
// model.MaxSeconds fails before it builds the trace, not after building ten
// million jobs.
func TestLateSpanRejectedBeforeBuilding(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	for _, g := range []Generator{
		Burst{Waves: 1e7, PerWave: 1, WaveGap: 1000},
		Uniform{Jobs: 1e7, Gap: 1000},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := g.Generate(1); err == nil {
				t.Fatalf("%+v: span past %g s accepted", g, model.MaxSeconds)
			}
		})
		if allocs > 10 {
			t.Errorf("%+v: %.0f allocations to reject the span", g, allocs)
		}
	}
}
