// Package elastichpc is a from-scratch reproduction of "An elastic job
// scheduler for HPC applications on the cloud" (Bhosale, Chandrasekar, Kale,
// Kokkila-Schumacher — SC Workshops '25, arXiv:2510.15147).
//
// It provides, as one coherent library:
//
//   - a Charm++-style message-driven runtime with migratable objects,
//     measurement-based load balancing, and checkpoint/restart shrink-expand
//     (internal/charm), controllable over a CCS-style socket protocol
//     (internal/ccs);
//   - the paper's two evaluation applications, Jacobi2D and LeanMD, built on
//     that runtime (internal/apps);
//   - a Kubernetes substrate (object store with watches, affinity-scoring
//     pod scheduler, kubelet, controller framework — internal/k8s) and a
//     Charm operator with the CharmJob CRD and the §3.1 rescale protocol
//     (internal/operator);
//   - the priority-based elastic scheduling policy of Figures 2–3 plus the
//     rigid-min / rigid-max / moldable baselines (internal/core);
//   - a discrete-event scheduling simulator with calibrated performance
//     models (internal/sim, internal/model) and a full-stack deterministic
//     cluster emulation on a virtual clock (internal/cluster); the simulator
//     pools its events and job records, indexes the scheduler's wait queue,
//     and offers a streaming result mode that sustains million-job
//     workloads in O(running jobs) memory;
//   - a workload-scenario engine (internal/workload) whose generators —
//     uniform, Poisson, bursty, diurnal, and trace replay — feed both the
//     simulator and the emulation, with parallel sweep harnesses over
//     scenarios, policies, and seeds;
//   - a cluster-availability engine (same package) whose capacity profiles —
//     node failure/repair, spot preemption, maintenance drains, diurnal
//     capacity tides, and trace replay — drive time-varying capacity through
//     both backends via core.Scheduler.SetCapacity, with resilience metrics
//     (goodput, work lost, preemptions survived by shrinking vs. requeued)
//     and an availability sweep axis;
//   - a federated multi-cluster meta-scheduler (internal/federation) that
//     routes one workload stream across N pluggable member clusters
//     (simulator- or emulation-backed) — round-robin, least-loaded over
//     per-member machines, availability traces, and an M/G/1 delay term,
//     priority-aware, or random-seeded — runs the members concurrently with
//     results bit-identical to sequential execution, optionally rebalances
//     the fleet in periodic rounds that checkpoint-migrate jobs off
//     backlogged or draining members, and aggregates exact fleet-wide
//     metrics (utilization over summed delivered capacity, weighted
//     response/completion, imbalance) plus the migration log;
//   - a versioned, machine-readable experiment-report schema
//     (internal/metrics) that every harness CLI emits via -json.
//
// This file is the stable facade: examples and external-style consumers use
// these re-exports rather than reaching into internal packages directly.
package elastichpc

import (
	"time"

	"elastichpc/internal/apps"
	"elastichpc/internal/ccs"
	"elastichpc/internal/charm"
	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/metrics"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// Scheduling policies (paper §4.3).
type (
	// Policy selects a scheduling strategy.
	Policy = core.Policy
)

// Policy values.
const (
	Elastic  = core.Elastic
	Moldable = core.Moldable
	RigidMin = core.RigidMin
	RigidMax = core.RigidMax
)

// AllPolicies lists the four policies in the paper's order.
func AllPolicies() []Policy { return core.AllPolicies() }

// Charm runtime (paper §2.1–2.2).
type (
	// Runtime is the Charm++-style message-driven runtime.
	Runtime = charm.Runtime
	// RuntimeConfig configures a Runtime.
	RuntimeConfig = charm.Config
)

// NewRuntime creates a charm runtime with the given PE count.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return charm.New(cfg) }

// Applications (paper §4.1).
type (
	// AppRunner drives a rescalable application's iteration loop.
	AppRunner = apps.Runner
)

// NewJacobi2D creates an n×n Jacobi solver decomposed into bx×by chares.
func NewJacobi2D(rt *Runtime, n, bx, by int) (*AppRunner, error) {
	return apps.NewJacobiRunner(rt, n, bx, by)
}

// NewLeanMD creates a kx×ky×kz-cell Lennard-Jones MD mini-app.
func NewLeanMD(rt *Runtime, kx, ky, kz, atomsPerCell int, seed int64) (*AppRunner, error) {
	return apps.NewLeanMDRunner(rt, kx, ky, kz, atomsPerCell, seed)
}

// CCS control protocol (paper §2.2).
type (
	// CCSClient signals a running application (shrink/expand/query).
	CCSClient = ccs.Client
	// CCSOptions configures a runtime's CCS endpoint.
	CCSOptions = charm.CCSOptions
)

// DialCCS connects to an application's CCS endpoint.
func DialCCS(addr string, timeout time.Duration) (*CCSClient, error) {
	return ccs.Dial(addr, timeout)
}

// Performance models and simulation (paper §4.3.1).
type (
	// Machine holds the calibrated performance-model constants.
	Machine = model.Machine
	// Workload is a reproducible job-submission stream.
	Workload = sim.Workload
	// SimResult aggregates one simulated (or emulated) experiment.
	SimResult = sim.Result
	// SimConfig parameterizes a simulation.
	SimConfig = sim.Config
)

// DefaultMachine returns the calibrated c6g.4xlarge-like machine model.
func DefaultMachine() Machine { return model.DefaultMachine() }

// RandomWorkload draws n jobs across the four classes with priorities 1–5.
func RandomWorkload(n int, gapSeconds float64, seed int64) Workload {
	return sim.RandomWorkload(n, gapSeconds, seed)
}

// SimOption customizes one Simulate call. Options compose freely and apply
// in argument order over the default configuration (64 slots, 180 s rescale
// gap, the calibrated default machine).
type SimOption func(*SimConfig)

// WithRescaleGap sets the rescale gap T_rescale_gap in seconds (default
// 180, the paper's setting).
func WithRescaleGap(seconds float64) SimOption {
	return func(cfg *SimConfig) { cfg.RescaleGap = seconds }
}

// WithStreaming computes only the aggregate metrics, in O(running jobs)
// memory, so million-job workloads are practical. The result's per-job
// fields are nil; the aggregates are bit-identical to the retained mode.
func WithStreaming() SimOption {
	return func(cfg *SimConfig) { cfg.Streaming = true }
}

// WithShards shards the event loop across k goroutines by time epoch (0 or
// 1 = sequential; implies streaming). The result is bit-identical to the
// sequential run on any shard count; the speedup depends on the workload —
// epochs cut only where the cluster drains, so bursty workloads parallelize
// and a saturated backlog degrades gracefully to the sequential loop.
func WithShards(k int) SimOption {
	return func(cfg *SimConfig) {
		cfg.Streaming = true
		cfg.Shards = k
	}
}

// WithAvailability runs the workload on a time-varying cluster: the
// capacity trace drives SetCapacity events through the discrete-event loop,
// and the result carries the resilience aggregates.
func WithAvailability(tr AvailabilityTrace) SimOption {
	return func(cfg *SimConfig) { cfg.Availability = tr }
}

// WithSimConfig replaces the base configuration wholesale before the other
// options apply — the escape hatch to every sim.Config knob (capacity,
// machine model, decision logging, …) the named options don't cover.
func WithSimConfig(cfg SimConfig) SimOption {
	return func(dst *SimConfig) { *dst = cfg }
}

// Simulate runs a workload under a policy in the discrete-event simulator.
// Options select the execution mode:
//
//	Simulate(p, w)                                      // defaults
//	Simulate(p, w, WithRescaleGap(60))                  // tuned gap
//	Simulate(p, w, WithStreaming())                     // O(running) memory
//	Simulate(p, w, WithShards(8))                       // sharded + streaming
//	Simulate(p, w, WithAvailability(tr), WithStreaming()) // capacity trace
//
// Every combination is bit-identical to sim.Run on the sim.Config it spells
// (pinned by the facade option tests).
func Simulate(p Policy, w Workload, opts ...SimOption) (SimResult, error) {
	cfg := sim.DefaultConfig(p)
	for _, opt := range opts {
		opt(&cfg)
	}
	return sim.Run(cfg, w)
}

// Workload scenarios (the internal/workload engine): generators produce
// reproducible workloads that drive both Simulate and Emulate, and sweeps
// fan out over a bounded worker pool.
type (
	// WorkloadGenerator produces a workload from a seed; implementations are
	// deterministic per seed.
	WorkloadGenerator = workload.Generator
	// UniformScenario is the paper's fixed-gap uniform-class baseline.
	UniformScenario = workload.Uniform
	// PoissonScenario draws exponentially distributed inter-arrivals.
	PoissonScenario = workload.Poisson
	// BurstScenario submits flash-crowd waves.
	BurstScenario = workload.Burst
	// ScenarioResult is one scenario's per-policy averaged metrics.
	ScenarioResult = sim.ScenarioResult
)

// DefaultScenarios returns the built-in scenario set at paper scale.
func DefaultScenarios() []WorkloadGenerator { return workload.DefaultScenarios() }

// Scenario resolves a scenario name ("uniform", "poisson", "burst",
// "diurnal", or "trace" with a trace path) to its generator.
func Scenario(name, tracePath string) (WorkloadGenerator, error) {
	return workload.Scenario(name, tracePath)
}

// ReplayWorkload wraps an existing workload as a generator so it can join
// scenario sweeps.
func ReplayWorkload(name string, w Workload) WorkloadGenerator {
	return workload.Replay(name, w)
}

// SaveWorkload writes a workload to path — JSON, or the CSV trace format
// when the path ends in ".csv".
func SaveWorkload(path string, w Workload, comment string) error {
	return workload.SaveFile(path, w, comment)
}

// LoadWorkload reads a workload saved with SaveWorkload.
func LoadWorkload(path string) (Workload, error) { return workload.LoadFile(path) }

// ScenarioSweep averages every scenario under every policy across seeds on a
// bounded worker pool.
func ScenarioSweep(gens []WorkloadGenerator, seeds int, rescaleGapSeconds float64, workers int) ([]ScenarioResult, error) {
	return sim.ScenarioSweep(gens, seeds, rescaleGapSeconds, workers)
}

// EmulateScenario generates one seed of a scenario and runs it through the
// full k8s+operator emulation.
func EmulateScenario(cfg ClusterConfig, g WorkloadGenerator, seed int64) (SimResult, error) {
	return cluster.RunGenerator(cfg, g, seed)
}

// Cluster availability (the internal/workload capacity engine): profiles
// generate reproducible capacity timelines that drive availability events
// through the simulator and the emulation alike.
type (
	// AvailabilityProfile generates a capacity timeline from a seed.
	AvailabilityProfile = workload.AvailabilityProfile
	// AvailabilityTrace is a reproducible capacity timeline.
	AvailabilityTrace = workload.AvailabilityTrace
	// AvailabilityOptions tunes the built-in profiles from flag values.
	AvailabilityOptions = workload.AvailabilityOptions
	// SpotPreemptionProfile models Poisson spot-instance reclaims.
	SpotPreemptionProfile = workload.SpotPreemption
	// MaintenanceDrainProfile models planned maintenance windows.
	MaintenanceDrainProfile = workload.MaintenanceDrain
)

// DefaultAvailabilityProfiles returns the built-in capacity profiles.
func DefaultAvailabilityProfiles() []AvailabilityProfile {
	return workload.DefaultAvailabilityProfiles()
}

// AvailabilityScenario resolves an availability profile name ("failures",
// "spot", "drain", "tides", or "trace" with a path in opts).
func AvailabilityScenario(name string, opts AvailabilityOptions) (AvailabilityProfile, error) {
	return workload.AvailabilityScenario(name, opts)
}

// SaveAvailabilityTrace writes a capacity trace to path — JSON, or the CSV
// format when the path ends in ".csv".
func SaveAvailabilityTrace(path string, tr AvailabilityTrace, comment string) error {
	return workload.SaveAvailabilityFile(path, tr, comment)
}

// LoadAvailabilityTrace reads a capacity trace saved with
// SaveAvailabilityTrace.
func LoadAvailabilityTrace(path string) (AvailabilityTrace, error) {
	return workload.LoadAvailabilityFile(path)
}

// ReplayAvailabilityTrace wraps an existing capacity trace as a profile so
// it can join availability sweeps.
func ReplayAvailabilityTrace(name string, tr AvailabilityTrace) AvailabilityProfile {
	return workload.ReplayAvailability(name, tr)
}

// AvailabilitySweep averages one workload scenario under every availability
// profile × policy across seeds on a bounded worker pool.
func AvailabilitySweep(profiles []AvailabilityProfile, gen WorkloadGenerator, seeds int, rescaleGapSeconds float64, workers int) ([]ScenarioResult, error) {
	return sim.AvailabilitySweep(profiles, gen, seeds, rescaleGapSeconds, workers)
}

// Inputs derives a run's inputs the one way every entry point does: the
// seed's workload and, given a profile (nil = fixed capacity), its capacity
// trace over the workload's horizon against base slots, restore event
// included. Hand the pair to Simulate (WithAvailability) or Emulate.
func Inputs(g WorkloadGenerator, p AvailabilityProfile, seed int64, base int) (Workload, AvailabilityTrace, error) {
	return sim.Inputs(g, p, seed, base)
}

// EmulateAvailability generates one seed of a workload scenario and an
// availability profile and runs both through the full k8s+operator
// emulation — the cluster-backend twin of Simulate with WithAvailability.
func EmulateAvailability(cfg ClusterConfig, g WorkloadGenerator, p AvailabilityProfile, seed int64) (SimResult, error) {
	return cluster.RunAvailability(cfg, g, p, seed)
}

// Federated multi-cluster scheduling (internal/federation): a meta-scheduler
// routes one workload across N member clusters — each an independent
// simulator — and aggregates exact fleet-wide metrics.
type (
	// FederationConfig parameterizes a federation run (members, route,
	// worker pool).
	FederationConfig = federation.Config
	// FederationResult is the aggregated fleet outcome plus the per-member
	// results.
	FederationResult = federation.Result
	// FederationMember is a pluggable federation backend: the router reads
	// its hardware (capacity, machine model, availability trace) and the
	// fleet runs its sub-workload through it.
	FederationMember = federation.Member
	// FederationRebalance configures the fleet-level checkpoint-migrating
	// rebalancer; the zero value disables it.
	FederationRebalance = federation.RebalanceConfig
	// FederationMigration is one job move in the rebalancer's decision log.
	FederationMigration = federation.Migration
)

// SimFederationMember backs a federation member with the discrete-event
// simulator — the default backend.
func SimFederationMember(cfg SimConfig) FederationMember {
	return federation.NewSimMember(cfg)
}

// Federation routing policies.
const (
	// RouteRoundRobin deals jobs to members in submission order.
	RouteRoundRobin = federation.RoundRobin
	// RouteLeastLoaded routes each job to the member with the lowest queued
	// min-PE demand per slot.
	RouteLeastLoaded = federation.LeastLoaded
	// RoutePriority sends high-priority jobs least-loaded, the rest
	// round-robin.
	RoutePriority = federation.PriorityAware
)

// UniformFederation builds n identical member configurations from one base.
func UniformFederation(base SimConfig, n int) []SimConfig {
	return federation.Uniform(base, n)
}

// SkewedFederation builds n members whose capacities ramp linearly: member i
// gets round(base.Capacity × (1 + skew·i)) slots.
func SkewedFederation(base SimConfig, n int, skew float64) []SimConfig {
	return federation.Skewed(base, n, skew)
}

// Federate routes a workload across the member clusters and simulates every
// member on a bounded worker pool; parallel execution is bit-identical to
// cfg.Workers == 1.
func Federate(cfg FederationConfig, w Workload) (FederationResult, error) {
	return federation.Run(cfg, w)
}

// Experiment reports (internal/metrics): the versioned machine-readable
// schema every harness emits.
type (
	// MetricsReport is the top-level versioned experiment report.
	MetricsReport = metrics.Report
	// MetricsRun is one experiment outcome (the paper's four metrics).
	MetricsRun = metrics.Run
	// MetricsKind classifies a report: run, sweep, or bench.
	MetricsKind = metrics.Kind
)

// NewMetricsReport starts a report of the given kind.
func NewMetricsReport(tool string, kind MetricsKind) MetricsReport { return metrics.New(tool, kind) }

// WriteMetricsReport validates and writes a report as indented JSON.
func WriteMetricsReport(path string, r MetricsReport) error { return metrics.Write(path, r) }

// ReadMetricsReport loads and validates a report.
func ReadMetricsReport(path string) (MetricsReport, error) { return metrics.Read(path) }

// ResultToMetricsRun converts a simulation or emulation result to its
// report form.
func ResultToMetricsRun(name string, res SimResult) MetricsRun {
	return metrics.FromResult(name, res)
}

// Cluster emulation (paper §4.3.2).
type (
	// ClusterConfig parameterizes the emulated Kubernetes cluster.
	ClusterConfig = cluster.Config
	// Cluster is a deterministic full-stack cluster emulation.
	Cluster = cluster.Cluster
)

// DefaultClusterConfig matches the paper's 4-node, 64-vCPU EKS cluster.
func DefaultClusterConfig(p Policy) ClusterConfig { return cluster.DefaultConfig(p) }

// NewCluster builds an emulated cluster with its control plane.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// Emulate runs a workload through the full k8s+operator emulation.
func Emulate(cfg ClusterConfig, w Workload) (SimResult, error) {
	return cluster.RunExperiment(cfg, w)
}
