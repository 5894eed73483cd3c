package conformance

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/federation"
	"elastichpc/internal/model"
	"elastichpc/internal/runspec"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// RunSpec is a declarative, replayable description of one recordable run:
// which backend, which generated workload, and every determinism-relevant
// knob — runspec.Spec read through its Engine and EngineFleet vocabulary. A
// spec round-trips losslessly through a Stream's Meta map, so
// `conftest -replay` can re-execute exactly the run a recorded artifact
// came from.
type RunSpec runspec.Spec

// DefaultSpec is what a spec's unset knobs resolve to and what conftest's
// flags default to: the sim backend, 60 jobs (3 waves when burst), seed 1,
// 3 fleet members.
func DefaultSpec() RunSpec {
	return RunSpec{Backend: "sim", Jobs: 60, Waves: 3, Seed: 1, Members: 3}
}

// defaultGaps are the gaps a spec's uniform and burst runs default to (45 s
// between arrivals, 4000 s between waves); any other scenario's unset gap is
// its own.
var defaultGaps = map[string]float64{"uniform": 45, "burst": 4000}

// The composite scenarios: two burst phases of different class mixes
// concatenated, heavy first or light first. No CLI scenario generates a
// workload whose demand changes shape mid-run, and these are the shapes the
// work-balanced epoch planner places its most asymmetric cuts on, so
// conformance keeps them. They read the seed only.
const (
	headHeavy = "head-heavy"
	tailHeavy = "tail-heavy"
)

// ScenarioNames lists the scenarios a spec runs, in display order: the CLIs'
// generated ones (a trace needs a path the engine vocabulary has no flag for)
// and the two composites.
func ScenarioNames() []string {
	names := []string{headHeavy, tailHeavy}
	for _, n := range workload.ScenarioNames() {
		if n != "trace" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// vocabulary is the flag groups a spec of this backend reads.
func (s RunSpec) vocabulary() runspec.Group {
	if s.Backend == "federation" {
		return runspec.Engine | runspec.EngineFleet
	}
	return runspec.Engine
}

// Meta encodes the spec as a stream Meta map (zero-valued knobs omitted).
func (s RunSpec) Meta() map[string]string { return runspec.Spec(s).Meta(s.vocabulary()) }

// SpecFromMeta decodes a stream Meta map back into a RunSpec — the replay
// half of the Meta round-trip.
func SpecFromMeta(meta map[string]string) (RunSpec, error) {
	s, err := runspec.FromMeta(meta, runspec.Engine|runspec.EngineFleet)
	return RunSpec(s), err
}

// recordCommand is the conftest command line that re-runs the run a stream's
// Meta describes: every knob as its flag, and -log=false when the run kept no
// log (-record keeps one by default). Empty for a stream with no Meta.
func recordCommand(meta map[string]string) string {
	if len(meta) == 0 {
		return ""
	}
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := "conftest -record"
	for _, k := range keys {
		line += " -" + strings.ReplaceAll(k, "_", "-")
		if v := meta[k]; v != "true" {
			line += " " + v
		}
	}
	if meta["log"] == "" {
		line += " -log=false"
	}
	return line
}

// resolved fills the spec's unset knobs from DefaultSpec and defaultGaps.
func (s RunSpec) resolved() RunSpec {
	r := runspec.Spec(s).Or(runspec.Spec(DefaultSpec()), runspec.Engine|runspec.EngineFleet)
	r.Resolve()
	if r.Gap == 0 {
		r.Gap = defaultGaps[r.Scenario]
	}
	return RunSpec(r)
}

// workload builds the spec's workload — a composite, or the scenario
// runspec's Generator sizes — and its optional drain trace.
func (s RunSpec) workload(capacity int) (workload.Workload, workload.AvailabilityTrace, error) {
	var w workload.Workload
	var err error
	if s.Scenario == headHeavy || s.Scenario == tailHeavy {
		w, err = skewed(s.Seed, s.Scenario == headHeavy)
	} else {
		var g workload.Generator
		if g, err = runspec.Spec(s).Generator(); err == nil {
			w, err = g.Generate(s.Seed)
		}
	}
	if err != nil {
		return workload.Workload{}, workload.AvailabilityTrace{}, err
	}
	var tr workload.AvailabilityTrace
	if s.Drain && s.Backend != "federation" {
		span := w.Span() + 3600
		keep := capacity * 5 / 8
		if keep < 1 {
			keep = 1
		}
		tr, err = workload.MaintenanceDrain{Every: span / 6, Duration: span / 12, Keep: keep}.
			Events(s.Seed, capacity, span)
		if err != nil {
			return workload.Workload{}, workload.AvailabilityTrace{}, err
		}
		// Restore full capacity at the horizon so rigid baselines stay
		// feasible: a trace that ends mid-drain strands any job whose pinned
		// replica count exceeds the drained capacity.
		tr = tr.WithRestore(capacity, span)
	}
	return w, tr, nil
}

// skewed is a composite scenario: a heavy-class burst phase and a
// light-class one, heavy first or light first, 15000 s apart.
func skewed(seed int64, heavyFirst bool) (workload.Workload, error) {
	heavy, err := workload.Burst{Waves: 2, PerWave: 18, WaveGap: 15000,
		Mix: workload.Mix{model.Large: 1, model.XLarge: 1}}.Generate(seed)
	if err != nil {
		return workload.Workload{}, err
	}
	light, err := workload.Burst{Waves: 4, PerWave: 25, WaveGap: 15000,
		Mix: workload.Mix{model.Small: 1, model.Medium: 1}}.Generate(seed + 100)
	if err != nil {
		return workload.Workload{}, err
	}
	first, second := heavy, light
	if !heavyFirst {
		first, second = light, heavy
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
	return workload.Workload{Jobs: jobs}, nil
}

// Execute runs the spec and returns its recorded stream, with the spec's
// Meta attached so the stream replays.
func (s RunSpec) Execute() (*Stream, error) { return s.execute(RecordSim) }

// executeStepped is Execute with a sim run driven through the stepping
// surface in 300 s windows (RecordStepped) instead of Run.
func (s RunSpec) executeStepped() (*Stream, error) {
	return s.execute(func(cfg sim.Config, w workload.Workload) (*Stream, error) {
		return RecordStepped(cfg, w, 300)
	})
}

// execute runs the spec, recording a sim backend's run with recordSim.
func (s RunSpec) execute(recordSim func(sim.Config, workload.Workload) (*Stream, error)) (*Stream, error) {
	s = s.resolved()
	if err := runspec.Spec(s).Validate(); err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	var st *Stream
	var err error
	switch s.Backend {
	case "sim":
		st, err = s.executeSim(recordSim)
	case "cluster":
		st, err = s.executeCluster()
	case "federation":
		st, err = s.executeFederation()
	default:
		return nil, fmt.Errorf("conformance: unknown backend %q (have sim, cluster, federation)", s.Backend)
	}
	if err != nil {
		return nil, err
	}
	st.Meta = s.Meta()
	return st, nil
}

// simConfig is the simulator configuration the spec's engine knobs spell: one
// sim run, or every member of a fleet.
func (s RunSpec) simConfig() sim.Config {
	cfg := sim.DefaultConfig(s.Policy)
	if s.Capacity > 0 {
		cfg.Capacity = s.Capacity
	}
	if s.RescaleGap > 0 {
		cfg.RescaleGap = s.RescaleGap
	}
	cfg.Shards = s.Shards
	cfg.Streaming = s.Streaming
	cfg.FullRedistribute = s.Full
	cfg.LogDecisions = s.Log
	return cfg
}

func (s RunSpec) executeSim(record func(sim.Config, workload.Workload) (*Stream, error)) (*Stream, error) {
	cfg := s.simConfig()
	w, tr, err := s.workload(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	cfg.Availability = tr
	return record(cfg, w)
}

// executeCluster runs the emulation. It reads the engine knobs it has a
// setting for; conftest rejects the others on this backend.
func (s RunSpec) executeCluster() (*Stream, error) {
	cfg := cluster.DefaultConfig(s.Policy)
	if s.Capacity > 0 {
		if s.Capacity%cfg.Nodes != 0 {
			return nil, fmt.Errorf("conformance: cluster capacity %d not divisible by %d nodes", s.Capacity, cfg.Nodes)
		}
		cfg.CPUPerNode = s.Capacity / cfg.Nodes
	}
	if s.RescaleGap > 0 {
		cfg.RescaleGap = time.Duration(s.RescaleGap * float64(time.Second))
	}
	cfg.LogDecisions = s.Log
	w, tr, err := s.workload(cfg.Nodes * cfg.CPUPerNode)
	if err != nil {
		return nil, err
	}
	cfg.Availability = tr
	return RecordCluster(cfg, w)
}

func (s RunSpec) executeFederation() (*Stream, error) {
	base := s.simConfig()
	members := federation.Skewed(base, s.Members, s.Skew)
	if s.Drain {
		// The rebalancer tests' drain scenario: the third member loses most
		// of its capacity mid-run, then recovers.
		if s.Members < 3 {
			return nil, fmt.Errorf("conformance: -drain drains fleet member 2, so it needs -members 3 or more, not %d", s.Members)
		}
		members[2].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
			{At: 1200, Capacity: 8},
			{At: 6000, Capacity: members[2].Capacity},
		}}
	}
	w, _, err := s.workload(base.Capacity)
	if err != nil {
		return nil, err
	}
	return RecordFederation(federation.Config{
		Members:   members,
		Route:     s.Route,
		Workers:   s.Workers,
		Rebalance: federation.RebalanceConfig{Every: s.RebalanceEvery, MigrateRunning: s.MigrateRunning},
	}, w)
}
