// Package runspec is the one description of a run: which workload, which
// capacity profile, which engine settings and which fleet. A CLI binds the
// flag groups it has from one field table (Bind) — elasticsim binds every
// group, Engine read by its -record modes only — and resolves what is unset
// from one default (Default). The conformance harness round-trips the same
// struct through a stream's Meta, and every run, on either backend, derives
// its workload and capacity trace from the Generator and Profile the spec
// selects the same way (sim.Inputs) — which is what makes "Actual" beside
// "Simulation" a comparison, and a recorded stream a run elasticsim makes. A
// new run knob is one field and one line in Bind; the codec, the defaults, the
// applicability check and the report params follow.
package runspec

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// Spec describes one run. Each knob is documented where it is declared, by
// its flag's usage string in Bind; a zero value means "not set", and Resolve
// and the caller's default spec fill it in — except the seed, whose 0 is a
// seed.
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
	Backend          string
	Policy           core.Policy
	Capacity, Shards int
	RescaleGap       float64
	Streaming, Log   bool

	// The fleet, and the worker pool a sweep or a fleet runs on.
	Route                federation.Route
	Clusters, Parallel   int
	Skew, RebalanceEvery float64
	MigrateRunning       bool
}

// Default is the paper's run, what every CLI resolves an unset knob to: seed
// 7, 16 jobs, one cluster, on the simulator.
func Default() Spec { return Spec{Seed: 7, Jobs: 16, Clusters: 1, Backend: "sim"} }

// Group is a set of flags bound and read together.
type Group uint16

// The flag groups. A CLI binds the ones it has and each of its modes lists
// the ones it reads. Each flag belongs to exactly one group. Engine holds the
// knobs only a recording varies; CLI|Engine is the conformance harness's
// vocabulary — elasticsim -record's run flags and a stream's Meta keys.
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
	Backend                        // -backend
	Engine                         // -gap -waves -policy -capacity -rescale-gap -streaming -log

	// CLI is every group but Engine: what elasticsim's modes other than
	// -record read.
	CLI = Scenario | Seed | Jobs | Availability | Shards | Fleet | Skew | Rebalance | Parallel | Backend
)

// Bind registers the groups' flags on fs, each with the spec's current value
// as its default. This is the field table: a flag's name, usage and storage
// are stated here and nowhere else.
func (s *Spec) Bind(fs *flag.FlagSet, g Group) {
	if g&Scenario != 0 {
		fs.StringVar(&s.Scenario, "scenario", s.Scenario, "workload scenario: "+strings.Join(workload.ScenarioNames(), " | "))
		fs.StringVar(&s.Trace, "trace", s.Trace, "workload trace file (.csv) to replay (implies -scenario trace)")
	}
	if g&Seed != 0 {
		fs.Int64Var(&s.Seed, "seed", s.Seed, "workload and availability generation seed")
	}
	if g&Jobs != 0 {
		fs.IntVar(&s.Jobs, "jobs", s.Jobs, "jobs per generated workload (a trace carries its own job count)")
	}
	if g&Availability != 0 {
		fs.StringVar(&s.Availability, "availability", s.Availability, "capacity profile: "+strings.Join(workload.AvailabilityScenarioNames(), " | "))
		fs.StringVar(&s.AvailabilityTrace, "availability-trace", s.AvailabilityTrace, "capacity trace file (.csv) to replay (implies -availability trace)")
		fs.Float64Var(&s.MTTF, "mttf", s.MTTF, "failures profile: mean time to failure, seconds (0 = default)")
		fs.Float64Var(&s.MTTR, "mttr", s.MTTR, "failures profile: mean time to repair, seconds (0 = default)")
		fs.IntVar(&s.PreemptSlots, "preempt", s.PreemptSlots, "spot profile: slots reclaimed per preemption event (0 = default)")
	}
	if g&Backend != 0 {
		fs.StringVar(&s.Backend, "backend", s.Backend, "execution backend: sim | cluster (a fleet is -clusters N)")
	}
	if g&Engine != 0 {
		fs.Float64Var(&s.Gap, "gap", s.Gap, "inter-arrival or wave gap, seconds; diurnal: the peak gap (0 = the scenario's default)")
		fs.IntVar(&s.Waves, "waves", s.Waves, "burst wave count (0 = the scenario's default; must divide -jobs)")
		fs.Var(named[core.Policy]{&s.Policy, core.PolicyByName}, "policy", "scheduling policy")
		fs.IntVar(&s.Capacity, "capacity", s.Capacity, "cluster slot count (0 = backend default)")
		fs.Float64Var(&s.RescaleGap, "rescale-gap", s.RescaleGap, "rescale gap, seconds (0 = default)")
		fs.BoolVar(&s.Streaming, "streaming", s.Streaming, "streaming mode: aggregates only")
		fs.BoolVar(&s.Log, "log", s.Log, "record the decision log")
	}
	if g&Shards != 0 {
		fs.IntVar(&s.Shards, "shards", s.Shards, "time epochs a single run's event loop executes in parallel (0 = automatic, 1 = sequential, N = up to N epochs; results are bit-identical)")
	}
	if g&Fleet != 0 {
		fs.IntVar(&s.Clusters, "clusters", s.Clusters, "member clusters behind the federation router (1 = single cluster)")
		fs.Var(named[federation.Route]{&s.Route, federation.RouteByName}, "route", "fleet routing policy: round_robin | least_loaded | priority | random")
	}
	if g&Skew != 0 {
		fs.Float64Var(&s.Skew, "skew", s.Skew, "fleet capacity skew: member i gets base×(1+skew·i) slots")
	}
	if g&Rebalance != 0 {
		fs.Float64Var(&s.RebalanceEvery, "rebalance", s.RebalanceEvery, "fleet rebalance round period, seconds (0 = off): checkpoint-migrate jobs off backlogged or draining members")
		fs.BoolVar(&s.MigrateRunning, "migrate-running", s.MigrateRunning, "let the rebalancer checkpoint-preempt and migrate running jobs (needs -rebalance)")
	}
	if g&Parallel != 0 {
		fs.IntVar(&s.Parallel, "parallel", s.Parallel, "worker pool size (0 = all CPUs, 1 = sequential)")
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

// Resolve fills in what the spec implies: no backend is the simulator, no
// scenario is the paper's uniform one, and a trace path names the trace
// scenario or profile.
func (s *Spec) Resolve() {
	if s.Backend == "" {
		s.Backend = "sim"
	}
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

// Validate checks the dependencies between the spec's values — a knob that
// tunes something the spec did not select would be parsed and dropped, as
// would a size given to a scenario that has its own (a trace, a composite:
// any -gap or -waves, or -jobs other than the default) — and rejects a
// backend other than sim or cluster, an unknown scenario, a trace path TracePath rejects, a negative or NaN count,
// gap or rate that would read as its default, a gap past model.MaxSeconds, a
// capacity past the scheduler's math.MaxInt32 slots, a skew no member
// capacity can be computed from, and a rebalance period that
// is negative, NaN or infinite.
func (s Spec) Validate() error {
	s.Resolve()
	if err := errors.Join(TracePath("trace", s.Trace), TracePath("availability-trace", s.AvailabilityTrace)); err != nil {
		return err
	}
	g, err := workload.Scenario(s.Scenario, s.Trace)
	if err != nil {
		return err
	}
	switch g.(type) {
	case workload.Uniform, workload.Poisson, workload.Burst, workload.Diurnal:
	default:
		if s.Gap != 0 || s.Waves != 0 || (s.Jobs != 0 && s.Jobs != Default().Jobs) {
			return fmt.Errorf("-scenario %s has a size of its own: -jobs, -gap and -waves do not apply", s.Scenario)
		}
	}
	switch {
	case s.Backend != "sim" && s.Backend != "cluster":
		return fmt.Errorf("-backend %s: want sim or cluster (a fleet is -clusters N)", s.Backend)
	case s.Trace != "" && s.Scenario != "trace":
		return fmt.Errorf("-trace needs -scenario trace, not %s", s.Scenario)
	case s.AvailabilityTrace != "" && s.Availability != "trace":
		return fmt.Errorf("-availability-trace needs -availability trace, not %s", s.Availability)
	case (s.MTTF != 0 || s.MTTR != 0) && s.Availability != "failures":
		return fmt.Errorf("-mttf/-mttr need -availability failures")
	case s.PreemptSlots != 0 && s.Availability != "spot":
		return fmt.Errorf("-preempt needs -availability spot")
	case s.Clusters < 1:
		return fmt.Errorf("-clusters %d: a fleet needs at least 1 member", s.Clusters)
	case s.Shards < 0:
		return fmt.Errorf("-shards %d: 0 = automatic, 1 = sequential, N = up to N epochs", s.Shards)
	case s.MigrateRunning && s.RebalanceEvery == 0:
		return fmt.Errorf("-migrate-running needs -rebalance")
	case s.Waves != 0 && s.Scenario != "burst":
		return fmt.Errorf("-waves %d needs -scenario burst, not %s", s.Waves, s.Scenario)
	case s.Waves != 0 && (s.Waves < 0 || s.Jobs%s.Waves != 0):
		return fmt.Errorf("burst needs jobs (%d) divisible by waves (%d)", s.Jobs, s.Waves)
	case s.Capacity < 0:
		return fmt.Errorf("-capacity %d: 0 = the backend's default", s.Capacity)
	case s.Capacity > math.MaxInt32:
		return fmt.Errorf("-capacity %d: want at most %d slots", s.Capacity, math.MaxInt32)
	case !(s.RescaleGap >= 0):
		return fmt.Errorf("-rescale-gap %g: 0 = the default", s.RescaleGap)
	case s.RescaleGap > model.MaxSeconds:
		return fmt.Errorf("-rescale-gap %g: want at most %g s", s.RescaleGap, model.MaxSeconds)
	case s.Gap > model.MaxSeconds:
		return fmt.Errorf("-gap %g: want at most %g s", s.Gap, model.MaxSeconds)
	case !(s.MTTF >= 0):
		return fmt.Errorf("-mttf %g: 0 = the profile's default", s.MTTF)
	case !(s.MTTR >= 0):
		return fmt.Errorf("-mttr %g: 0 = the profile's default", s.MTTR)
	case s.PreemptSlots < 0:
		return fmt.Errorf("-preempt %d: 0 = the profile's default", s.PreemptSlots)
	case s.Parallel < 0:
		return fmt.Errorf("-parallel %d: 0 = all CPUs, 1 = sequential", s.Parallel)
	case math.IsNaN(s.Skew) || math.IsInf(s.Skew, 0):
		return fmt.Errorf("-skew %g: want a finite value", s.Skew)
	case !(s.RebalanceEvery >= 0) || math.IsInf(s.RebalanceEvery, 0):
		return fmt.Errorf("-rebalance %g: want a finite period in seconds, 0 = off", s.RebalanceEvery)
	}
	return nil
}

// TracePath checks a trace file path given to the flag named name: every trace
// file, job or capacity, read or written, is CSV, so a set path must end in
// .csv, in any case. A path that used to select another format is rejected
// rather than read or written as CSV.
func TracePath(name, path string) error {
	if path != "" && !strings.EqualFold(filepath.Ext(path), ".csv") {
		return fmt.Errorf("-%s %s: a trace file is CSV, and its name must end in .csv", name, path)
	}
	return nil
}

// Generator is the workload generator the spec selects, sized by Jobs, Waves
// and Gap; a zero size keeps the scenario's default from
// workload.DefaultScenarios (16 jobs, the size every CLI runs). A diurnal Gap
// is the peak gap, and the off-peak gap and the period keep their ratios to
// it.
func (s Spec) Generator() (workload.Generator, error) {
	s.Resolve()
	g, err := workload.Scenario(s.Scenario, s.Trace)
	if err != nil {
		return nil, err
	}
	// A set size replaces the default as given: the generators reject the
	// degenerate ones.
	switch g := g.(type) {
	case workload.Uniform:
		g.Jobs, g.Gap = cmp.Or(s.Jobs, g.Jobs), cmp.Or(s.Gap, g.Gap)
		return g, nil
	case workload.Poisson:
		g.Jobs, g.MeanGap = cmp.Or(s.Jobs, g.Jobs), cmp.Or(s.Gap, g.MeanGap)
		return g, nil
	case workload.Burst:
		jobs, waves := cmp.Or(s.Jobs, g.Waves*g.PerWave), cmp.Or(s.Waves, g.Waves)
		if jobs%waves != 0 {
			return nil, fmt.Errorf("burst needs jobs (%d) divisible by waves (%d)", jobs, waves)
		}
		g.Waves, g.PerWave, g.WaveGap = waves, jobs/waves, cmp.Or(s.Gap, g.WaveGap)
		return g, nil
	case workload.Diurnal:
		k := cmp.Or(s.Gap, g.PeakGap) / g.PeakGap
		g.Jobs, g.PeakGap = cmp.Or(s.Jobs, g.Jobs), cmp.Or(s.Gap, g.PeakGap)
		g.OffPeakGap, g.Period = g.OffPeakGap*k, g.Period*k
		return g, nil
	}
	return g, nil
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
