package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
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
	if last := float64(g.Jobs-1) * g.Gap; !(last <= model.MaxSeconds) {
		return Workload{}, lateJob(append02d([]byte(jobPrefix), g.Jobs-1), last)
	}
	rng := rand.New(rand.NewSource(seed))
	classes := model.AllClasses()
	jobs := make([]JobSpec, g.Jobs)
	ids, prefix := make(idBuffer, 0, jobIDBytes(g.Jobs)), []byte(jobPrefix)
	for i := range jobs {
		jobs[i] = JobSpec{
			ID:       ids.next(prefix, i),
			Class:    classes[rng.Intn(len(classes))],
			Priority: 1 + rng.Intn(5),
			SubmitAt: float64(i) * g.Gap,
		}
	}
	return Workload{Jobs: jobs}, nil
}

// Poisson models memoryless arrivals: n jobs with exponentially distributed
// inter-arrival times of the given mean — the open-system traffic the paper's
// fixed-gap submissions approximate.
type Poisson struct {
	Jobs    int
	MeanGap float64 // mean inter-arrival, seconds
}

// Name implements Generator.
func (g Poisson) Name() string { return "poisson" }

// Generate implements Generator.
func (g Poisson) Generate(seed int64) (Workload, error) {
	if g.Jobs <= 0 || !validGap(g.MeanGap) {
		return Workload{}, fmt.Errorf("workload: bad poisson params n=%d mean=%g", g.Jobs, g.MeanGap)
	}
	mix, _ := Mix(nil).resolve() // the uniform mix always resolves
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]JobSpec, g.Jobs)
	ids, prefix := make(idBuffer, 0, jobIDBytes(g.Jobs)), []byte(jobPrefix)
	at := 0.0
	for i := range jobs {
		if !(at <= model.MaxSeconds) { // arrivals never decrease: stop at the first one past
			return Workload{}, lateJob(append02d([]byte(jobPrefix), i), at)
		}
		jobs[i] = JobSpec{
			ID:       ids.next(prefix, i),
			Class:    mix.draw(rng),
			Priority: 1 + rng.Intn(5),
			SubmitAt: at,
		}
		at += float64(rng.ExpFloat64() * g.MeanGap)
	}
	return Workload{Jobs: jobs}, nil
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
	mix, err := g.Mix.resolve()
	if err != nil {
		return Workload{}, err
	}
	if last := float64(g.Waves-1) * g.WaveGap; !(last <= model.MaxSeconds) {
		return Workload{}, lateJob(append02d(wavePrefix(nil, g.Waves-1), g.PerWave-1), last)
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]JobSpec, 0, g.Waves*g.PerWave)
	ids := make(idBuffer, 0, waveIDBytes(g.Waves, g.PerWave))
	var prefixBuf [32]byte // "job-w", up to 19 digits and '-'
	for wv := 0; wv < g.Waves; wv++ {
		prefix := wavePrefix(prefixBuf[:0], wv)
		for j := 0; j < g.PerWave; j++ {
			jobs = append(jobs, JobSpec{
				ID:       ids.next(prefix, j),
				Class:    mix.draw(rng),
				Priority: 1 + rng.Intn(5),
				SubmitAt: float64(wv) * g.WaveGap,
			})
		}
	}
	return Workload{Jobs: jobs}, nil
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
	mix, _ := Mix(nil).resolve() // the uniform mix always resolves
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]JobSpec, g.Jobs)
	ids, prefix := make(idBuffer, 0, jobIDBytes(g.Jobs)), []byte(jobPrefix)
	at := 0.0
	for i := range jobs {
		if !(at <= model.MaxSeconds) { // arrivals never decrease: stop at the first one past
			return Workload{}, lateJob(append02d([]byte(jobPrefix), i), at)
		}
		jobs[i] = JobSpec{
			ID:       ids.next(prefix, i),
			Class:    mix.draw(rng),
			Priority: 1 + rng.Intn(5),
			SubmitAt: at,
		}
		// load = 1 at the start of each period (peak), 0 half a period in.
		load := float64((1 + math.Cos(2*math.Pi*at/g.Period)) / 2)
		mean := float64(g.PeakGap*load) + float64(g.OffPeakGap*(1-load))
		at += float64(rng.ExpFloat64() * mean)
	}
	return Workload{Jobs: jobs}, nil
}

// Trace replays a workload saved with SaveFile, a CSV trace file.
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

// lateJob is the error for a generated job submitted past model.MaxSeconds,
// where the scheduler's clock cannot follow; at is NaN once an arrival clock
// overflowed. A generator checks its span before it builds a job: Uniform and
// Burst know their last instant up front, and Poisson and Diurnal, whose
// arrivals never decrease, stop at the first arrival past the bound.
func lateJob(id []byte, at float64) error {
	return fmt.Errorf("workload: job %s submitted at %g s, past %g s", id, at, model.MaxSeconds)
}

// idBuffer holds a workload's job IDs back to back in one allocation sized
// for all of them, generated or copied from a trace as it is decoded. Each ID
// is a substring of it: the bytes under an ID are never written again, and a
// JobSpec kept from the workload keeps the whole buffer alive.
type idBuffer []byte

// next appends the ID prefix followed by i as %02d formats it, and returns
// it.
func (b *idBuffer) next(prefix []byte, i int) string {
	start := len(*b)
	*b = append02d(append(*b, prefix...), i)
	return bytesString((*b)[start:])
}

// clone copies id into the buffer and returns the copy. An ID that does not
// fit starts a new buffer, twice the size of the old one or the ID's, so an
// undersized buffer costs a few more allocations, not one an ID.
func (b *idBuffer) clone(id string) string {
	if len(*b)+len(id) > cap(*b) {
		*b = make(idBuffer, 0, max(2*cap(*b), len(id)))
	}
	start := len(*b)
	*b = append(*b, id...)
	return bytesString((*b)[start:])
}

// jobPrefix begins "job-%02d", the ID of a job submitted on its own.
// wavePrefix appends "job-w%02d-", what the "job-w%02d-%02d" IDs of wave
// wv's jobs share.
const jobPrefix = "job-"

func wavePrefix(b []byte, wv int) []byte { return append(append02d(append(b, "job-w"...), wv), '-') }

// append02d appends i >= 0 as %02d formats it: at least two digits.
func append02d(b []byte, i int) []byte {
	if i < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// jobIDBytes is the length of the IDs of jobs 0 to n-1, and waveIDBytes that
// of every job's ID in waves waves of perWave jobs.
func jobIDBytes(n int) int { return n*len(jobPrefix) + digits02d(n) }

func waveIDBytes(waves, perWave int) int {
	return waves*perWave*len("job-w-") + perWave*digits02d(waves) + waves*digits02d(perWave)
}

// digits02d is the number of digits %02d writes for 0 to n-1.
func digits02d(n int) int {
	d := 2 * n
	for p := 100; p < n; p *= 10 {
		d += n - p // every number from p up takes one more
	}
	return d
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

// Phased is a composite scenario: a heavy-class burst phase (2 waves of 18
// large and xlarge jobs) and a light-class one (4 waves of 25 small and
// medium jobs), heavy first ("head-heavy") or light first ("tail-heavy"),
// waves and phases 15000 s apart. No other scenario's demand changes shape
// mid-run, and these are the shapes the sharded event loop's work-balanced
// epoch planner places its most asymmetric cuts on. Its 136 jobs are a fixed
// size: it reads the seed only.
type Phased struct {
	HeavyFirst bool
}

// Name implements Generator.
func (g Phased) Name() string {
	if g.HeavyFirst {
		return "head-heavy"
	}
	return "tail-heavy"
}

// Generate implements Generator.
func (g Phased) Generate(seed int64) (Workload, error) {
	heavy, err := Burst{Waves: 2, PerWave: 18, WaveGap: 15000,
		Mix: Mix{model.Large: 1, model.XLarge: 1}}.Generate(seed)
	if err != nil {
		return Workload{}, err
	}
	light, err := Burst{Waves: 4, PerWave: 25, WaveGap: 15000,
		Mix: Mix{model.Small: 1, model.Medium: 1}}.Generate(seed + 100)
	if err != nil {
		return Workload{}, err
	}
	first, second := heavy, light
	if !g.HeavyFirst {
		first, second = light, heavy
	}
	offset := first.Span() + 15000
	jobs := make([]JobSpec, 0, len(first.Jobs)+len(second.Jobs))
	for i, j := range first.Jobs {
		j.ID = fmt.Sprintf("a%03d-%s", i, j.ID)
		jobs = append(jobs, j)
	}
	for i, j := range second.Jobs {
		j.ID = fmt.Sprintf("b%03d-%s", i, j.ID)
		j.SubmitAt += offset
		jobs = append(jobs, j)
	}
	return Workload{Jobs: jobs}, nil
}

// DefaultScenarios returns the built-in scenario set at paper scale: every
// generator submits 16 jobs' worth of work so the scenarios are comparable to
// the §4.3 evaluation (the trace scenario is omitted — it needs a path; see
// Scenario — and so are the Phased composites, whose 136 jobs are not).
func DefaultScenarios() []Generator {
	return []Generator{
		Uniform{Jobs: 16, Gap: 90},
		Poisson{Jobs: 16, MeanGap: 90},
		Burst{Waves: 4, PerWave: 4, WaveGap: 360},
		Diurnal{Jobs: 16, Period: 1440, PeakGap: 30, OffPeakGap: 300},
	}
}

// scenarios is every generator Scenario resolves by name alone.
func scenarios() []Generator {
	return append(DefaultScenarios(), Phased{HeavyFirst: true}, Phased{})
}

// ScenarioNames lists the names accepted by Scenario, in display order.
func ScenarioNames() []string {
	var names []string
	for _, g := range scenarios() {
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
// DefaultScenarios or Phased composites by name, or "trace" with the given
// trace path.
func Scenario(name, tracePath string) (Generator, error) {
	if name == "trace" {
		if tracePath == "" {
			return nil, fmt.Errorf("workload: scenario %q needs a trace path", name)
		}
		return Trace{Path: tracePath}, nil
	}
	for _, g := range scenarios() {
		if g.Name() == name {
			return g, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (have %s)", name, strings.Join(ScenarioNames(), ", "))
}
