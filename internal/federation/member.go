package federation

import (
	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// Member is a pluggable federation backend. The router reads a member's
// hardware — base capacity, calibrated machine model, availability trace —
// to place jobs (hardware-fit scoring, drain-window dodging), and the fleet
// runs each member's sub-workload through Run. Implementations must be
// deterministic: Run must be a pure function of its sub-workload, and the
// descriptor methods must be constant for the member's lifetime, or the
// federation's bit-identical parallel-equals-sequential contract breaks.
type Member interface {
	// Capacity is the member's base worker-slot count.
	Capacity() int
	// Machine is the member's calibrated performance model — each member's
	// own, so the router never estimates one member's demand with another's
	// machine.
	Machine() model.Machine
	// Availability is the member's capacity timeline (empty means fixed
	// capacity).
	Availability() workload.AvailabilityTrace
	// Policy is the member's scheduling policy.
	Policy() core.Policy
	// Run simulates (or emulates) the member's sub-workload to completion
	// and returns the result with the member scheduler's decision log (nil
	// unless the member logs decisions).
	Run(w workload.Workload) (sim.Result, []core.Decision, error)
}

// stepBackend is the optional Member extension the rebalancer needs: a
// backend that can expose its run as a steppable simulator. Only
// simulator-backed members implement it — the cluster emulation has no
// stepping surface, so rebalancing over ClusterMembers is rejected with a
// clear error instead of silently degrading.
type stepBackend interface {
	newStepper() (*sim.Simulator, error)
}

// SimMember backs a federation member with the discrete-event simulator —
// the default backend every sim.Config in Config.Members is wrapped in.
type SimMember struct {
	Config sim.Config
}

// Capacity implements Member.
func (m SimMember) Capacity() int { return m.Config.Capacity }

// Machine implements Member.
func (m SimMember) Machine() model.Machine { return m.Config.Machine }

// Availability implements Member.
func (m SimMember) Availability() workload.AvailabilityTrace { return m.Config.Availability }

// Policy implements Member.
func (m SimMember) Policy() core.Policy { return m.Config.Policy }

// Run implements Member; the log is nil unless the member config sets
// LogDecisions.
func (m SimMember) Run(w workload.Workload) (sim.Result, []core.Decision, error) {
	s, err := sim.New(m.Config)
	if err != nil {
		return sim.Result{}, nil, err
	}
	res, err := s.Run(w)
	if err != nil {
		return sim.Result{}, nil, err
	}
	return res, s.Decisions(), nil
}

// newStepper builds the steppable simulator the rebalancer co-simulates.
// Stepping is inherently sequential per member (the fleet parallelizes
// across members instead): Begin/StepTo/Finish never read Config.Shards.
func (m SimMember) newStepper() (*sim.Simulator, error) {
	return sim.New(m.Config)
}

// ClusterMember backs a federation member with the full k8s+operator
// cluster emulation (cluster.RunExperiment) — the fleet path `kubesim
// -clusters` exercises. Base capacity is the node group's slot count.
type ClusterMember struct {
	Config cluster.Config
}

// Capacity implements Member.
func (m ClusterMember) Capacity() int { return m.Config.Nodes * m.Config.CPUPerNode }

// Machine implements Member.
func (m ClusterMember) Machine() model.Machine { return m.Config.Machine }

// Availability implements Member.
func (m ClusterMember) Availability() workload.AvailabilityTrace { return m.Config.Availability }

// Policy implements Member.
func (m ClusterMember) Policy() core.Policy { return m.Config.Policy }

// Run implements Member on the emulation backend; the log is nil unless the
// member config sets LogDecisions.
func (m ClusterMember) Run(w workload.Workload) (sim.Result, []core.Decision, error) {
	return cluster.RunRecorded(m.Config, w)
}
