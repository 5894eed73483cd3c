package conformance

import (
	"fmt"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// MatrixOptions scopes the equivalence matrix.
type MatrixOptions struct {
	// Seeds sweeps the generated workloads.
	Seeds []int64
	// Policies, Shards, and Routes are the grid axes.
	Policies []core.Policy
	Shards   []int
	Routes   []federation.Route
	// Cluster includes the (slow) cluster-emulation repeat-determinism
	// cells.
	Cluster bool
	// Window is the ±K decision context in failure reports.
	Window int
}

// DefaultMatrixOptions is the grid CI runs: the full policy × route product
// at shard widths 0 (automatic — the default every caller runs; the matrix's
// scenarios sit under its work floor, so the candidate pins "plan, decline,
// change nothing") and 1/2/8 over two seeds, cluster cells included.
func DefaultMatrixOptions() MatrixOptions {
	return MatrixOptions{
		Seeds:    []int64{1, 7},
		Policies: core.AllPolicies(),
		Shards:   []int{0, 1, 2, 8},
		Routes:   federation.AllRoutes(),
		Cluster:  true,
		Window:   DefaultWindow,
	}
}

// Failure is one diverging matrix cell, with both streams retained so the
// runner can save them as artifacts.
type Failure struct {
	// Case is the matrix cell, Candidate the diverging execution mode.
	Case      string
	Candidate string
	// Report is the differ's formatted divergence window.
	Report string
	// Ref and Got are the reference and diverging streams.
	Ref, Got *Stream
}

// Case is one independently runnable matrix cell.
type Case struct {
	Name string
	Run  func() ([]Failure, error)
}

// RunMatrix runs every case and collects the divergences. The int is the
// number of cases executed. A hard error (a backend refusing to run) aborts
// the sweep; divergences do not.
func RunMatrix(opt MatrixOptions) ([]Failure, int, error) {
	var fails []Failure
	cases := Cases(opt)
	for _, c := range cases {
		fs, err := c.Run()
		if err != nil {
			return fails, len(cases), fmt.Errorf("%s: %w", c.Name, err)
		}
		fails = append(fails, fs...)
	}
	return fails, len(cases), nil
}

// skewedScenario concatenates a heavy-class burst phase and a light-class
// phase (heavy first or light first) — the demand-skewed shapes the
// work-balanced epoch planner places its most asymmetric cuts on, which the
// matrix must still prove reconcile exactly.
func skewedScenario(seed int64, heavyFirst bool) (Scenario, error) {
	heavy, err := workload.Burst{Waves: 2, PerWave: 18, WaveGap: 15000,
		Mix: workload.Mix{model.Large: 1, model.XLarge: 1}}.Generate(seed)
	if err != nil {
		return Scenario{}, err
	}
	light, err := workload.Burst{Waves: 4, PerWave: 25, WaveGap: 15000,
		Mix: workload.Mix{model.Small: 1, model.Medium: 1}}.Generate(seed + 100)
	if err != nil {
		return Scenario{}, err
	}
	first, second, name := heavy, light, "head-heavy"
	if !heavyFirst {
		first, second, name = light, heavy, "tail-heavy"
	}
	offset := first.Span() + 15000
	jobs := make([]workload.JobSpec, 0, len(first.Jobs)+len(second.Jobs))
	for i, j := range first.Jobs {
		j.ID = fmt.Sprintf("a%03d-%s", i, j.ID)
		jobs = append(jobs, j)
	}
	for i, j := range second.Jobs {
		j.ID = fmt.Sprintf("b%03d-%s", i, j.ID)
		j.SubmitAt += offset
		jobs = append(jobs, j)
	}
	return Scenario{Name: name, Workload: workload.Workload{Jobs: jobs}}, nil
}

// matrixScenarios are the fixed workload shapes the sim cells sweep —
// steady arrivals, deep same-instant backlogs, a time-varying cluster, and
// the two demand-skewed shapes that stress the work-balanced epoch planner.
func matrixScenarios(seed int64) ([]Scenario, error) {
	uniform, err := workload.Uniform{Jobs: 60, Gap: 45}.Generate(seed)
	if err != nil {
		return nil, err
	}
	burst, err := workload.Burst{Waves: 3, PerWave: 40, WaveGap: 4000}.Generate(seed)
	if err != nil {
		return nil, err
	}
	avail, err := workload.Burst{Waves: 3, PerWave: 30, WaveGap: 5000}.Generate(seed)
	if err != nil {
		return nil, err
	}
	span := avail.Span() + 3600
	tr, err := workload.MaintenanceDrain{Every: span / 6, Duration: span / 12, Keep: 40}.Events(seed, 64, span)
	if err != nil {
		return nil, err
	}
	// Restore full capacity at the horizon so the rigid baselines stay
	// feasible: a trace that ends mid-drain strands any job whose pinned
	// replica count exceeds the drained capacity.
	tr = tr.WithRestore(64, span)
	head, err := skewedScenario(seed, true)
	if err != nil {
		return nil, err
	}
	tail, err := skewedScenario(seed, false)
	if err != nil {
		return nil, err
	}
	return []Scenario{
		{Name: "uniform", Workload: uniform},
		{Name: "burst", Workload: burst},
		{Name: "availability", Workload: avail, Trace: tr},
		head,
		tail,
	}, nil
}

// Cases enumerates the matrix: sim cells (incremental vs FullRedistribute,
// streaming vs retained, every shard width vs sequential — decision streams
// and bit-exact result summaries on the production path — plus the logged vs
// unlogged observer-neutrality contract), the aging+preemption extension
// cells, federation cells (sequential vs parallel vs repeated, rebalance
// off and on, per route × policy, with member decision streams), and
// cluster-emulation repeat-determinism cells.
func Cases(opt MatrixOptions) []Case {
	var cases []Case
	for _, seed := range opt.Seeds {
		for _, p := range opt.Policies {
			cases = append(cases, simCase(opt, seed, p))
		}
	}
	for _, p := range []core.Policy{core.Elastic, core.RigidMin} {
		cases = append(cases, extensionsCase(opt, p))
	}
	for _, p := range opt.Policies {
		cases = append(cases, streamingScaleCase(opt, p))
	}
	for _, route := range opt.Routes {
		for _, p := range opt.Policies {
			for _, rebalance := range []bool{false, true} {
				cases = append(cases, federationCase(opt, route, p, rebalance))
			}
		}
	}
	if opt.Cluster {
		for _, p := range opt.Policies {
			cases = append(cases, clusterCase(opt, p))
		}
	}
	return cases
}

// check compares a candidate stream against the reference and appends a
// Failure on divergence.
func check(fails []Failure, opt MatrixOptions, caseName, candName string, ref, got *Stream) []Failure {
	if d := Compare(ref, got); !d.Empty() {
		fails = append(fails, Failure{
			Case: caseName, Candidate: candName,
			Report: d.Format(ref, got, opt.Window),
			Ref:    ref, Got: got,
		})
	}
	return fails
}

// simCandidate is one execution mode a sim cell compares to the reference.
type simCandidate struct {
	name      string
	streaming bool
	shards    int
}

// summaryOnly is st without its decision log — the part of a run that must
// not depend on whether the log was on.
func summaryOnly(st *Stream) *Stream {
	return &Stream{Version: st.Version, Summary: st.Summary}
}

// simCase pins one (seed, policy) cell across all five workload shapes.
// Every candidate runs logged, on the path production runs — the
// placeable-only pass and its fallbacks, coalesced kicks, the streaming mode,
// every shard width, the stepped windows — and must reproduce the
// full-redistribute reference's decision stream and bit-exact summary. One
// more run with the log off must leave the same summary, per-job digest
// included: observing a run does not change it.
func simCase(opt MatrixOptions, seed int64, p core.Policy) Case {
	name := fmt.Sprintf("sim/%s/seed%d", p, seed)
	return Case{Name: name, Run: func() ([]Failure, error) {
		scenarios, err := matrixScenarios(seed)
		if err != nil {
			return nil, err
		}
		var fails []Failure
		for _, sc := range scenarios {
			config := func(full, log, streaming bool, shards int) sim.Config {
				cfg := sim.DefaultConfig(p)
				cfg.Availability = sc.Trace
				cfg.FullRedistribute = full
				cfg.LogDecisions = log
				cfg.Streaming = streaming
				cfg.Shards = shards
				return cfg
			}
			run := func(full, log, streaming bool, shards int) (*Stream, error) {
				return RecordSim(config(full, log, streaming, shards), sc.Workload)
			}
			caseName := name + "/" + sc.Name

			ref, err := run(true, true, false, 1)
			if err != nil {
				return nil, err
			}
			incremental, err := run(false, true, false, 1)
			if err != nil {
				return nil, err
			}
			fails = check(fails, opt, caseName, "incremental", ref, incremental)
			// Streaming candidates carry no digest and compare on the
			// decisions and the aggregates, which the streaming mode
			// documents as bit-identical.
			candidates := []simCandidate{{name: "streaming", streaming: true, shards: 1}}
			for _, shards := range opt.Shards {
				candidates = append(candidates, simCandidate{
					name: fmt.Sprintf("shards%d", shards), shards: shards,
				})
			}
			if n := len(opt.Shards); n > 0 {
				top := opt.Shards[n-1]
				candidates = append(candidates, simCandidate{
					name: fmt.Sprintf("shards%d/streaming", top), streaming: true, shards: top,
				})
			}
			for _, cand := range candidates {
				got, err := run(false, true, cand.streaming, cand.shards)
				if err != nil {
					return nil, err
				}
				fails = check(fails, opt, caseName, cand.name, ref, got)
			}

			// The stepping surface the fleet rebalancer drives: the same run
			// cut into 300 s windows is the batch run, decisions and every
			// summary bit.
			stepped, err := RecordStepped(config(false, true, false, 1), sc.Workload, 300)
			if err != nil {
				return nil, err
			}
			fails = check(fails, opt, caseName, "stepped", ref, stepped)

			unlogged, err := run(false, false, false, 1)
			if err != nil {
				return nil, err
			}
			fails = check(fails, opt, caseName, "unlogged", summaryOnly(incremental), unlogged)
		}
		return fails, nil
	}}
}

// extensionsCase re-pins the contract with aging and preemption on — the
// configuration where the incremental scheduler must decline to cache, every
// Reschedule takes the drain loop and kick coalescing turns itself off —
// decision streams and summaries against the full-redistribute reference.
func extensionsCase(opt MatrixOptions, p core.Policy) Case {
	name := fmt.Sprintf("sim-extensions/%s", p)
	return Case{Name: name, Run: func() ([]Failure, error) {
		w, err := workload.Burst{Waves: 4, PerWave: 30, WaveGap: 3000}.Generate(11)
		if err != nil {
			return nil, err
		}
		run := func(full bool, shards int) (*Stream, error) {
			cfg := sim.DefaultConfig(p)
			cfg.AgingRate = 0.01
			cfg.EnablePreemption = true
			cfg.LogDecisions = true
			cfg.FullRedistribute = full
			cfg.Shards = shards
			return RecordSim(cfg, w)
		}
		ref, err := run(true, 1)
		if err != nil {
			return nil, err
		}
		var fails []Failure
		for _, cand := range []struct {
			name   string
			shards int
		}{{name: "incremental", shards: 1}, {name: "shards4", shards: 4}} {
			got, err := run(false, cand.shards)
			if err != nil {
				return nil, err
			}
			fails = check(fails, opt, name, cand.name, ref, got)
		}
		return fails, nil
	}}
}

// streamingScaleCase pins the scale benchmarks' configuration: streaming
// mode over a workload large and bursty enough that the epoch planner
// produces a real multi-epoch plan with genuinely draining boundaries
// (sim's TestPlanEpochsStreamingScaleWorkload asserts the plan shape), at
// the widest configured shard width against the sequential loop.
func streamingScaleCase(opt MatrixOptions, p core.Policy) Case {
	name := fmt.Sprintf("sim-streaming-scale/%s", p)
	return Case{Name: name, Run: func() ([]Failure, error) {
		w, err := workload.Burst{Waves: 12, PerWave: 100, WaveGap: 20000}.Generate(5)
		if err != nil {
			return nil, err
		}
		shards := 8
		if n := len(opt.Shards); n > 0 {
			shards = opt.Shards[n-1]
		}
		run := func(shards int) (*Stream, error) {
			cfg := sim.DefaultConfig(p)
			cfg.Streaming = true
			cfg.Shards = shards
			return RecordSim(cfg, w)
		}
		ref, err := run(1)
		if err != nil {
			return nil, err
		}
		got, err := run(shards)
		if err != nil {
			return nil, err
		}
		return check(nil, opt, name, fmt.Sprintf("shards%d", shards), ref, got), nil
	}}
}

// federationFleet is the heterogeneous 3-member fleet the federation cells
// run (the rebalancer tests' scenario): round-robin backs up the small
// member 0, and member 2's trace drains it mid-run, so both donor kinds
// are exercised. Every member logs decisions.
func federationFleet(p core.Policy, route federation.Route, rebalance bool) federation.Config {
	base := sim.DefaultConfig(p)
	base.Capacity = 16
	base.LogDecisions = true
	members := federation.Skewed(base, 3, 1.5) // capacities 16 / 40 / 64
	members[2].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 1200, Capacity: 8},
		{At: 6000, Capacity: 64},
	}}
	cfg := federation.Config{Members: members, Route: route}
	if rebalance {
		cfg.Rebalance = federation.RebalanceConfig{Every: 300, MigrateRunning: true}
	}
	return cfg
}

// federationCase pins one (route, policy, rebalance) fleet cell: the
// sequential reference (Workers=1) against the parallel worker pool and a
// repeated run — member decision streams, the migration log, and every
// member and fleet summary must be identical.
func federationCase(opt MatrixOptions, route federation.Route, p core.Policy, rebalance bool) Case {
	mode := "batch"
	if rebalance {
		mode = "rebalance"
	}
	name := fmt.Sprintf("federation/%s/%s/%s", route, p, mode)
	return Case{Name: name, Run: func() ([]Failure, error) {
		w, err := workload.Burst{Waves: 6, PerWave: 16, WaveGap: 1200}.Generate(3)
		if err != nil {
			return nil, err
		}
		run := func(workers int) (*Stream, error) {
			cfg := federationFleet(p, route, rebalance)
			cfg.Workers = workers
			return RecordFederation(cfg, w)
		}
		ref, err := run(1)
		if err != nil {
			return nil, err
		}
		var fails []Failure
		for _, cand := range []struct {
			name    string
			workers int
		}{{name: "parallel", workers: 0}, {name: "repeat", workers: 1}} {
			got, err := run(cand.workers)
			if err != nil {
				return nil, err
			}
			fails = check(fails, opt, name, cand.name, ref, got)
		}
		return fails, nil
	}}
}

// clusterCase pins the emulation backend's repeat determinism: two
// identical cluster runs must produce the same decision stream and
// bit-exact summary.
func clusterCase(opt MatrixOptions, p core.Policy) Case {
	name := fmt.Sprintf("cluster/%s", p)
	return Case{Name: name, Run: func() ([]Failure, error) {
		w, err := workload.Uniform{Jobs: 12, Gap: 90}.Generate(4)
		if err != nil {
			return nil, err
		}
		cfg := cluster.DefaultConfig(p)
		cfg.LogDecisions = true
		ref, err := RecordCluster(cfg, w)
		if err != nil {
			return nil, err
		}
		got, err := RecordCluster(cfg, w)
		if err != nil {
			return nil, err
		}
		return check(nil, opt, name, "repeat", ref, got), nil
	}}
}
