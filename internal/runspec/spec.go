// Package runspec is the one description of a run: which workload, which
// capacity profile, which engine settings and which fleet. Every CLI binds the
// flag groups it has from one field table (Bind), the conformance harness
// round-trips the same struct through a stream's Meta, and both backends
// derive the workload and the capacity trace from the Generator and Profile it
// selects the same way (sim.Inputs) — which is what makes "Actual" beside
// "Simulation" a comparison. A new run
// knob is one field and one line in Bind; the codec, the defaults, the
// applicability check and the report params follow.
package runspec

import (
	"flag"
	"fmt"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/workload"
)

// Spec describes one run. Each knob is documented where it is declared, by
// its flag's usage string in Bind; a zero value means "not set", and Resolve
// and the caller's default spec fill it in.
type Spec struct {
	// The workload: a named scenario or a trace file, one seed for the
	// workload and the capacity profile alike, and the size of a generated
	// shape (Jobs alone for the gap and rescale sweeps).
	Scenario, Trace string
	Seed            int64
	Jobs, Waves     int
	Gap             float64

	// The capacity profile and its tuning.
	Availability, AvailabilityTrace string
	MTTF, MTTR                      float64
	PreemptSlots                    int

	// The engine, as the conformance harness varies it.
	Backend                     string
	Policy                      core.Policy
	Capacity, Shards            int
	RescaleGap, Aging           float64
	Streaming, Full, Log, Drain bool
	Preempt                     bool

	// The fleet.
	Route                federation.Route
	Members, Workers     int
	Skew, RebalanceEvery float64
	MigrateRunning       bool
}

// Default is the paper's run, what the harness CLIs' flags default to: seed
// 7, 16 jobs, one cluster.
func Default() Spec { return Spec{Seed: 7, Jobs: 16, Members: 1} }

// Group is a set of flags bound and read together.
type Group uint16

// The flag groups. A CLI binds the ones it has and each of its modes lists
// the ones it reads. Engine and EngineFleet are the conformance vocabulary —
// conftest's spec flags and a stream's Meta keys — for every backend and for
// the federation backend.
const (
	Scenario     Group = 1 << iota // -scenario -trace
	Seed                           // -seed
	Jobs                           // -jobs
	Availability                   // -availability -availability-trace -mttf -mttr -preempt
	Shards                         // -shards
	Fleet                          // -clusters -route
	Skew                           // -skew
	Rebalance                      // -rebalance -migrate-running
	Parallel                       // -parallel
	Engine
	EngineFleet
)

// Bind registers the groups' flags on fs, each with the spec's current value
// as its default. This is the field table: a flag's name, usage and storage
// are stated here and nowhere else.
func (s *Spec) Bind(fs *flag.FlagSet, g Group) {
	if g&(Scenario|Engine) != 0 {
		fs.StringVar(&s.Scenario, "scenario", s.Scenario, "workload scenario: uniform | poisson | burst | diurnal | trace (conftest: uniform | burst)")
	}
	if g&Scenario != 0 {
		fs.StringVar(&s.Trace, "trace", s.Trace, "workload trace file to replay, JSON or CSV (implies -scenario trace)")
	}
	if g&(Seed|Engine) != 0 {
		fs.Int64Var(&s.Seed, "seed", s.Seed, "workload and availability generation seed")
	}
	if g&(Jobs|Engine) != 0 {
		fs.IntVar(&s.Jobs, "jobs", s.Jobs, "jobs per generated workload (scenarios and traces carry their own job count)")
	}
	if g&Availability != 0 {
		fs.StringVar(&s.Availability, "availability", s.Availability, "capacity profile: failures | spot | drain | tides | trace")
		fs.StringVar(&s.AvailabilityTrace, "availability-trace", s.AvailabilityTrace, "capacity trace file to replay (implies -availability trace)")
		fs.Float64Var(&s.MTTF, "mttf", s.MTTF, "failures profile: mean time to failure, seconds (0 = default)")
		fs.Float64Var(&s.MTTR, "mttr", s.MTTR, "failures profile: mean time to repair, seconds (0 = default)")
		fs.IntVar(&s.PreemptSlots, "preempt", s.PreemptSlots, "spot profile: slots reclaimed per preemption event (0 = default)")
	}
	if g&Engine != 0 {
		fs.StringVar(&s.Backend, "backend", s.Backend, "execution backend: sim | cluster | federation")
		fs.Float64Var(&s.Gap, "gap", s.Gap, "inter-arrival or wave gap, seconds (0 = the scenario's default)")
		fs.IntVar(&s.Waves, "waves", s.Waves, "burst wave count (must divide -jobs)")
		fs.Var(named[core.Policy]{&s.Policy, core.PolicyByName}, "policy", "scheduling policy")
		fs.IntVar(&s.Capacity, "capacity", s.Capacity, "cluster slot count (0 = backend default)")
		fs.Float64Var(&s.RescaleGap, "rescale-gap", s.RescaleGap, "rescale gap, seconds (0 = default)")
		fs.BoolVar(&s.Streaming, "streaming", s.Streaming, "streaming mode: aggregates only")
		fs.BoolVar(&s.Full, "full", s.Full, "reference full-redistribute scheduler")
		fs.BoolVar(&s.Log, "log", s.Log, "record the decision log")
		fs.BoolVar(&s.Drain, "drain", s.Drain, "overlay a maintenance-drain availability trace")
		fs.Float64Var(&s.Aging, "aging", s.Aging, "queue aging rate")
		fs.BoolVar(&s.Preempt, "preempt", s.Preempt, "enable preemption")
	}
	if g&(Shards|Engine) != 0 {
		fs.IntVar(&s.Shards, "shards", s.Shards, "time epochs a single run's event loop executes in parallel (0 = automatic, 1 = sequential, N = up to N epochs; results are bit-identical)")
	}
	if g&Fleet != 0 {
		fs.IntVar(&s.Members, "clusters", s.Members, "member clusters behind the federation router (1 = single cluster)")
	}
	if g&EngineFleet != 0 {
		fs.IntVar(&s.Members, "members", s.Members, "federation member count")
		fs.IntVar(&s.Workers, "workers", s.Workers, "member worker pool (0 = all CPUs, 1 = sequential)")
	}
	if g&(Fleet|EngineFleet) != 0 {
		fs.Var(named[federation.Route]{&s.Route, federation.RouteByName}, "route", "fleet routing policy: round_robin | least_loaded | priority | random")
	}
	if g&(Skew|EngineFleet) != 0 {
		fs.Float64Var(&s.Skew, "skew", s.Skew, "fleet capacity skew: member i gets base×(1+skew·i) slots")
	}
	if g&(Rebalance|EngineFleet) != 0 {
		fs.Float64Var(&s.RebalanceEvery, "rebalance", s.RebalanceEvery, "fleet rebalance round period, seconds (0 = off): checkpoint-migrate jobs off backlogged or draining members")
		fs.BoolVar(&s.MigrateRunning, "migrate-running", s.MigrateRunning, "let the rebalancer checkpoint-preempt and migrate running jobs (needs -rebalance)")
	}
	if g&Parallel != 0 {
		fs.IntVar(&s.Workers, "parallel", s.Workers, "worker pool size (0 = all CPUs, 1 = sequential)")
	}
}

// named adapts an enum that prints its flag-friendly name and a parser of
// that name to flag.Value.
type named[T fmt.Stringer] struct {
	at    *T
	parse func(string) (T, error)
}

func (n named[T]) String() string {
	if n.at == nil {
		return "" // the flag package probes a zero Value for its default
	}
	return (*n.at).String()
}

func (n named[T]) Set(v string) error {
	x, err := n.parse(v)
	if err == nil {
		*n.at = x
	}
	return err
}

// Resolve fills in what the spec implies: no scenario is the paper's
// uniform one, and a trace path names the trace scenario or profile.
func (s *Spec) Resolve() {
	if s.Scenario == "" {
		s.Scenario = "uniform"
		if s.Trace != "" {
			s.Scenario = "trace"
		}
	}
	if s.Availability == "" && s.AvailabilityTrace != "" {
		s.Availability = "trace"
	}
}

// Validate checks the dependencies between the spec's values: a knob that
// tunes something the spec did not select would be parsed and dropped.
func (s Spec) Validate() error {
	s.Resolve()
	switch {
	case s.Trace != "" && s.Scenario != "trace":
		return fmt.Errorf("-trace needs -scenario trace, not %s", s.Scenario)
	case s.AvailabilityTrace != "" && s.Availability != "trace":
		return fmt.Errorf("-availability-trace needs -availability trace, not %s", s.Availability)
	case (s.MTTF != 0 || s.MTTR != 0) && s.Availability != "failures":
		return fmt.Errorf("-mttf/-mttr need -availability failures")
	case s.PreemptSlots != 0 && s.Availability != "spot":
		return fmt.Errorf("-preempt needs -availability spot")
	case s.Members < 1:
		return fmt.Errorf("-clusters %d: a fleet needs at least 1 member", s.Members)
	case s.Shards < 0:
		return fmt.Errorf("-shards %d: 0 = automatic, 1 = sequential, N = up to N epochs", s.Shards)
	case s.MigrateRunning && s.RebalanceEvery == 0:
		return fmt.Errorf("-migrate-running needs -rebalance")
	case s.Scenario == "burst" && s.Waves != 0 && (s.Waves < 0 || s.Jobs%s.Waves != 0):
		return fmt.Errorf("burst needs jobs (%d) divisible by waves (%d)", s.Jobs, s.Waves)
	}
	return nil
}

// Generator is the workload generator the spec selects.
func (s Spec) Generator() (workload.Generator, error) {
	s.Resolve()
	return workload.Scenario(s.Scenario, s.Trace)
}

// Profile is the capacity profile the spec selects, nil when it selects none.
func (s Spec) Profile() (workload.AvailabilityProfile, error) {
	s.Resolve()
	if s.Availability == "" {
		return nil, nil
	}
	return workload.AvailabilityScenario(s.Availability, workload.AvailabilityOptions{
		MTTF: s.MTTF, MTTR: s.MTTR, PreemptSlots: s.PreemptSlots, TracePath: s.AvailabilityTrace,
	})
}
