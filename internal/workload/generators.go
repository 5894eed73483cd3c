package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"elastichpc/internal/model"
)

// Uniform is the paper's §4.3.1 baseline: n jobs drawn uniformly from the
// four size classes with uniform priorities in [1,5], submitted a fixed gap
// apart ("We pick 16 jobs randomly out of these 4 sizes with random
// priorities between 1 and 5"). Its draw order is pinned: seed-pinned
// workloads (e.g. Table 1's seed 7) and the paper's policy ordering on them
// depend on it.
type Uniform struct {
	Jobs int
	Gap  float64 // seconds between submissions
}

// Name implements Generator.
func (g Uniform) Name() string { return "uniform" }

// Generate implements Generator. Like every generator it rejects degenerate
// parameters — n <= 0 jobs, or a negative or NaN gap — with an error rather
// than producing a silently empty or unordered workload.
func (g Uniform) Generate(seed int64) (Workload, error) {
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
	return w, nil
}

// Poisson models memoryless arrivals: n jobs with exponentially distributed
// inter-arrival times of the given mean — the open-system traffic the paper's
// fixed-gap submissions approximate.
type Poisson struct {
	Jobs    int
	MeanGap float64 // mean inter-arrival, seconds
	Mix     Mix     // nil = uniform over the four classes
}

// Name implements Generator.
func (g Poisson) Name() string { return "poisson" }

// Generate implements Generator.
func (g Poisson) Generate(seed int64) (Workload, error) {
	if g.Jobs <= 0 || !validGap(g.MeanGap) {
		return Workload{}, fmt.Errorf("workload: bad poisson params n=%d mean=%g", g.Jobs, g.MeanGap)
	}
	mix := g.Mix.orUniform()
	rng := rand.New(rand.NewSource(seed))
	var w Workload
	at := 0.0
	for i := 0; i < g.Jobs; i++ {
		class, err := mix.draw(rng)
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
	return w, nil
}

// Burst models flash crowds: `Waves` bursts of `PerWave` simultaneous
// submissions, `WaveGap` seconds apart — the pattern that stresses the
// elastic policy's shrink path hardest.
type Burst struct {
	Waves   int
	PerWave int
	WaveGap float64
	Mix     Mix
}

// Name implements Generator.
func (g Burst) Name() string { return "burst" }

// Generate implements Generator.
func (g Burst) Generate(seed int64) (Workload, error) {
	if g.Waves <= 0 || g.PerWave <= 0 || !validGap(g.WaveGap) {
		return Workload{}, fmt.Errorf("workload: bad burst params waves=%d perwave=%d gap=%g",
			g.Waves, g.PerWave, g.WaveGap)
	}
	mix := g.Mix.orUniform()
	rng := rand.New(rand.NewSource(seed))
	var w Workload
	for wv := 0; wv < g.Waves; wv++ {
		for j := 0; j < g.PerWave; j++ {
			class, err := mix.draw(rng)
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
	return w, nil
}

// Diurnal models a day/night cycle: arrivals follow a nonhomogeneous Poisson
// process whose mean inter-arrival swings between PeakGap (daytime rush,
// t = 0 mod Period) and OffPeakGap (overnight lull, half a period later) on a
// raised-cosine curve. Production clusters see exactly this shape; it probes
// how well each policy reclaims capacity when pressure ebbs.
type Diurnal struct {
	Jobs       int
	Period     float64 // seconds per full day/night cycle
	PeakGap    float64 // mean inter-arrival at peak load
	OffPeakGap float64 // mean inter-arrival in the trough
	Mix        Mix
}

// Name implements Generator.
func (g Diurnal) Name() string { return "diurnal" }

// Generate implements Generator.
func (g Diurnal) Generate(seed int64) (Workload, error) {
	if g.Jobs <= 0 || g.Period <= 0 || g.PeakGap <= 0 || g.OffPeakGap < g.PeakGap ||
		!validGap(g.Period) || !validGap(g.PeakGap) || !validGap(g.OffPeakGap) {
		return Workload{}, fmt.Errorf("workload: bad diurnal params jobs=%d period=%g peak=%g offpeak=%g",
			g.Jobs, g.Period, g.PeakGap, g.OffPeakGap)
	}
	mix := g.Mix.orUniform()
	rng := rand.New(rand.NewSource(seed))
	var w Workload
	at := 0.0
	for i := 0; i < g.Jobs; i++ {
		class, err := mix.draw(rng)
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
	return w, nil
}

// Trace replays a workload saved with SaveFile (JSON or CSV by extension).
// Generate ignores the seed — a replay is the same jobs every time, which is
// the point: experiments become shareable artifacts.
type Trace struct {
	Path string
}

// Name implements Generator.
func (g Trace) Name() string { return "trace" }

// Generate implements Generator.
func (g Trace) Generate(int64) (Workload, error) {
	if g.Path == "" {
		return Workload{}, fmt.Errorf("workload: trace generator needs a path")
	}
	return LoadFile(g.Path)
}

// validGap reports whether a submission-gap parameter is usable: finite-or-
// +Inf is rejected too, since an infinite gap never submits a second job.
func validGap(gap float64) bool {
	return gap >= 0 && !math.IsInf(gap, 1) && !math.IsNaN(gap)
}

// MustUniform is the panic-boundary form of the Uniform generator for
// callers that hard-code their parameters: sim.Table1Workload, the example
// programs and tests. It panics with the underlying
// validation error on n <= 0 jobs or a negative/NaN gap; use
// Uniform.Generate directly to handle the error instead.
func MustUniform(jobs int, gap float64, seed int64) Workload {
	w, err := (Uniform{Jobs: jobs, Gap: gap}).Generate(seed)
	if err != nil {
		panic(fmt.Sprintf("workload: MustUniform(%d, %g, %d): %v", jobs, gap, seed, err))
	}
	return w
}

// fixed replays an in-memory workload under a scenario name.
type fixed struct {
	name string
	w    Workload
}

func (g fixed) Name() string                     { return g.name }
func (g fixed) Generate(int64) (Workload, error) { return g.w.Clone(), nil }

// Replay wraps an already-built workload as a Generator, so loaded traces and
// hand-built job sets drop into ScenarioSweep next to the synthetic scenarios.
func Replay(name string, w Workload) Generator { return fixed{name: name, w: w.Clone()} }

// DefaultScenarios returns the built-in scenario set at paper scale: every
// generator submits 16 jobs' worth of work so the scenarios are comparable to
// the §4.3 evaluation (the trace scenario is omitted — it needs a path; see
// Scenario).
func DefaultScenarios() []Generator {
	return []Generator{
		Uniform{Jobs: 16, Gap: 90},
		Poisson{Jobs: 16, MeanGap: 90},
		Burst{Waves: 4, PerWave: 4, WaveGap: 360},
		Diurnal{Jobs: 16, Period: 1440, PeakGap: 30, OffPeakGap: 300},
	}
}

// ScenarioNames lists the names accepted by Scenario, in display order.
func ScenarioNames() []string {
	var names []string
	for _, g := range DefaultScenarios() {
		names = append(names, g.Name())
	}
	names = append(names, "trace")
	sort.Strings(names)
	return names
}

// ScenarioGrids resolves a -scenario/-trace flag pair and returns the sorted
// distinct grid dimensions of the job classes its workload submits, each
// mapped through size (how the caller shrinks paper-size problems; results
// that are not positive are dropped), plus a provenance tag for output
// headers. charmbench uses it to cover exactly the problem sizes a scenario
// will run.
func ScenarioGrids(name, tracePath string, seed int64, size func(int) int) ([]int, string, error) {
	g, err := Scenario(name, tracePath)
	if err != nil {
		return nil, "", err
	}
	w, err := g.Generate(seed)
	if err != nil {
		return nil, "", err
	}
	specs := model.Specs()
	seen := map[int]bool{}
	var grids []int
	for _, j := range w.Jobs {
		if n := size(specs[j.Class].Grid); n > 0 && !seen[n] {
			seen[n] = true
			grids = append(grids, n)
		}
	}
	sort.Ints(grids)
	return grids, fmt.Sprintf("scenario %q seed %d", g.Name(), seed), nil
}

// Scenario resolves a -scenario flag value to a generator: one of the
// DefaultScenarios by name, or "trace" with the given trace path.
func Scenario(name, tracePath string) (Generator, error) {
	if name == "trace" {
		if tracePath == "" {
			return nil, fmt.Errorf("workload: scenario %q needs a trace path", name)
		}
		return Trace{Path: tracePath}, nil
	}
	for _, g := range DefaultScenarios() {
		if g.Name() == name {
			return g, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (have %s)", name, strings.Join(ScenarioNames(), ", "))
}
