package conformance

import (
	"fmt"

	"elastichpc/internal/cluster"
	"elastichpc/internal/federation"
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
// flags default to: the sim backend, 60 uniform jobs (3 waves when burst),
// seed 1, 3 fleet members.
func DefaultSpec() RunSpec {
	return RunSpec{Backend: "sim", Jobs: 60, Waves: 3, Seed: 1, Members: 3}
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

// resolved fills the spec's unset knobs from DefaultSpec; an unset gap is
// the scenario's own (45 s between uniform arrivals, 4000 s between waves).
func (s RunSpec) resolved() RunSpec {
	r := runspec.Spec(s).Or(runspec.Spec(DefaultSpec()), runspec.Engine|runspec.EngineFleet)
	r.Resolve()
	if r.Gap == 0 {
		r.Gap = 45
		if r.Scenario == "burst" {
			r.Gap = 4000
		}
	}
	return RunSpec(r)
}

// workload builds the spec's generated workload and optional drain trace.
func (s RunSpec) workload(capacity int) (workload.Workload, workload.AvailabilityTrace, error) {
	var g workload.Generator
	switch s.Scenario {
	case "uniform":
		g = workload.Uniform{Jobs: s.Jobs, Gap: s.Gap}
	case "burst":
		g = workload.Burst{Waves: s.Waves, PerWave: s.Jobs / s.Waves, WaveGap: s.Gap}
	default:
		return workload.Workload{}, workload.AvailabilityTrace{},
			fmt.Errorf("conformance: unknown scenario %q (have uniform, burst)", s.Scenario)
	}
	w, err := g.Generate(s.Seed)
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
		// feasible (same rationale as the equivalence scenarios).
		tr = tr.WithRestore(capacity, span)
	}
	return w, tr, nil
}

// Execute runs the spec and returns its recorded stream, with the spec's
// Meta attached so the stream replays.
func (s RunSpec) Execute() (*Stream, error) {
	s = s.resolved()
	if err := runspec.Spec(s).Validate(); err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	var st *Stream
	var err error
	switch s.Backend {
	case "sim":
		st, err = s.executeSim()
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
	cfg.AgingRate = s.Aging
	cfg.EnablePreemption = s.Preempt
	return cfg
}

func (s RunSpec) executeSim() (*Stream, error) {
	cfg := s.simConfig()
	w, tr, err := s.workload(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	cfg.Availability = tr
	return RecordSim(cfg, w)
}

func (s RunSpec) executeCluster() (*Stream, error) {
	cfg := cluster.DefaultConfig(s.Policy)
	if s.Capacity > 0 {
		if s.Capacity%cfg.Nodes != 0 {
			return nil, fmt.Errorf("conformance: cluster capacity %d not divisible by %d nodes", s.Capacity, cfg.Nodes)
		}
		cfg.CPUPerNode = s.Capacity / cfg.Nodes
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
	if s.Drain && s.Members >= 3 {
		// The rebalancer tests' drain scenario: the third member loses most
		// of its capacity mid-run, then recovers.
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
