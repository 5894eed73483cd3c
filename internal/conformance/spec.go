package conformance

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/federation"
	"elastichpc/internal/runspec"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// RunSpec is a declarative, replayable description of one recordable run:
// runspec.Spec read through conftest's vocabulary, the CLI groups and Engine.
// A spec round-trips losslessly through a Stream's Meta map, so
// `conftest -replay` can re-execute exactly the run a recorded artifact came
// from, and it becomes its inputs the way every elasticsim run does: unset
// knobs from runspec.Default, then the spec's Generator and Profile through
// sim.Inputs.
type RunSpec runspec.Spec

// vocabulary is the flag groups a spec reads: conftest's spec flags and a
// stream's Meta keys.
const vocabulary = runspec.CLI | runspec.Engine

// Meta encodes the spec as a stream Meta map: its set knobs, the fleet's
// (-clusters, -route) for a fleet only.
func (s RunSpec) Meta() map[string]string {
	g := vocabulary
	if s.Clusters <= 1 {
		g &^= runspec.Fleet
	}
	return runspec.Spec(s).Meta(g)
}

// SpecFromMeta decodes a stream Meta map back into a RunSpec — the replay
// half of the Meta round-trip.
func SpecFromMeta(meta map[string]string) (RunSpec, error) {
	s, err := runspec.FromMeta(meta, vocabulary)
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

// execute runs the spec, recording a single simulator's run with recordSim.
func (s RunSpec) execute(recordSim func(sim.Config, workload.Workload) (*Stream, error)) (*Stream, error) {
	r := runspec.Spec(s).Or(runspec.Default(), vocabulary)
	r.Resolve()
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	gen, err := r.Generator()
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	profile, err := r.Profile()
	if err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	s = RunSpec(r)
	var st *Stream
	switch {
	case r.Backend == "cluster" && r.Clusters > 1:
		return nil, fmt.Errorf("conformance: -clusters %d: a fleet records simulator members only, not -backend cluster", r.Clusters)
	case r.Backend == "cluster":
		st, err = s.executeCluster(gen, profile)
	case r.Backend != "sim":
		return nil, fmt.Errorf("conformance: -backend %s: sim | cluster (a fleet is -clusters N)", r.Backend)
	case r.Clusters > 1:
		st, err = s.executeFleet(gen, profile)
	default:
		cfg := s.simConfig()
		var w workload.Workload
		if w, cfg.Availability, err = sim.Inputs(gen, profile, s.Seed, cfg.Capacity); err == nil {
			st, err = recordSim(cfg, w)
		}
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
	cfg.LogDecisions = s.Log
	return cfg
}

// executeCluster runs the emulation. It reads the engine knobs it has a
// setting for; conftest rejects the others on this backend.
func (s RunSpec) executeCluster(gen workload.Generator, profile workload.AvailabilityProfile) (*Stream, error) {
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
	w, tr, err := sim.Inputs(gen, profile, s.Seed, cfg.Nodes*cfg.CPUPerNode)
	if err != nil {
		return nil, err
	}
	cfg.Availability = tr
	return RecordCluster(cfg, w)
}

// executeFleet runs a fleet of simulators, skewed by Skew. A capacity
// profile applies to the last member, generated against that member's
// capacity: the fleet keeps members that route and members that drain, so
// the rebalancer has both kinds of donor.
func (s RunSpec) executeFleet(gen workload.Generator, profile workload.AvailabilityProfile) (*Stream, error) {
	members := federation.Skewed(s.simConfig(), s.Clusters, s.Skew)
	last := &members[len(members)-1]
	w, tr, err := sim.Inputs(gen, profile, s.Seed, last.Capacity)
	if err != nil {
		return nil, err
	}
	last.Availability = tr
	return RecordFederation(federation.Config{
		Members:   members,
		Route:     s.Route,
		RouteSeed: s.Seed,
		Workers:   s.Parallel,
		Rebalance: federation.RebalanceConfig{Every: s.RebalanceEvery, MigrateRunning: s.MigrateRunning},
	}, w)
}
