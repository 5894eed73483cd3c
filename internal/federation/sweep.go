package federation

import (
	"fmt"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// Sweep runs every given routing policy under every scheduling policy
// across `seeds` seeds of the workload generator on a bounded worker pool
// and averages the fleet metrics per (route, policy) — the federation sweep
// axis next to the Figure 7/8, scenario, and availability sweeps. Each
// member cluster keeps the paper's base configuration at the given rescale
// gap, with capacities ramped by skew (0 = homogeneous, see Skewed);
// clusters < 1 is an error. Results are ordered like routes, reusing
// sim.ScenarioResult with the route name as the scenario label, so the
// metrics converters and CLI printers work unchanged.
//
// Cells run one per (route, policy, seed) on sim.SweepGrid's pool; each cell's
// federation runs its members sequentially (Workers = 1), so the sweep's
// parallelism lives in one place and cell results stay bit-identical to a
// fully sequential sweep.
func Sweep(routes []Route, gen workload.Generator, clusters, seeds int, rescaleGap, skew float64, workers int) ([]sim.ScenarioResult, error) {
	if clusters < 1 {
		return nil, fmt.Errorf("federation: sweep needs clusters >= 1, got %d", clusters)
	}
	xs := make([]float64, len(routes))
	for i := range xs {
		xs[i] = float64(i)
	}
	pts, err := sim.SweepGrid(xs, seeds, workers, func(x float64, p core.Policy, seed int64) (Result, error) {
		w, err := gen.Generate(seed)
		if err != nil {
			return Result{}, err
		}
		base := sim.DefaultConfig(p)
		base.RescaleGap = rescaleGap
		if workers != 1 {
			base.Shards = 1 // the sweep's pool is the parallelism
		}
		return Run(Config{
			Members:   Skewed(base, clusters, skew),
			Route:     routes[int(x)],
			RouteSeed: seed,
			Workers:   1,
		}, w)
	}, func(avg *sim.AverageResult, res Result) {
		avg.Accumulate(res.fleetView())
		avg.Imbalance += res.Imbalance
	})
	if err != nil {
		return nil, fmt.Errorf("federation sweep: %w", err)
	}
	out := make([]sim.ScenarioResult, len(routes))
	for i, route := range routes {
		out[i] = sim.ScenarioResult{Name: route.String(), ByPolicy: pts[i].ByPolicy}
	}
	return out, nil
}
