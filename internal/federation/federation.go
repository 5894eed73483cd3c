package federation

import (
	"fmt"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// DefaultHighPriority is the PriorityAware threshold: on the paper's 1–5
// priority scale, 4 and 5 are the fleet's fast-lane jobs.
const DefaultHighPriority = 4

// Config parameterizes a federation run.
type Config struct {
	// Members holds one simulator configuration per member cluster. Each
	// member keeps its own capacity, rescale gap, machine model,
	// availability trace, streaming mode, and sharded execution mode
	// (sim.Config.Shards — left unset, a member of a batch run on more than
	// one worker runs sequentially: the fleet's pool is the parallelism);
	// the meta-scheduler never reaches inside a member beyond that and
	// handing it its sub-workload. The router reads every member's
	// own machine and availability trace for its placement estimates.
	Members []sim.Config
	// Backends, when non-empty, overrides Members with arbitrary member
	// backends — e.g. the full cluster emulation (ClusterMember), or a
	// mixed fleet. When empty, each Members entry is wrapped in a
	// SimMember. Rebalancing (below) requires simulator-backed members.
	Backends []Member
	// Route is the job-routing policy across members.
	Route Route
	// RouteSeed seeds the Random route (ignored by the others).
	RouteSeed int64
	// Workers bounds the member-simulation worker pool: <= 0 uses every
	// CPU, 1 is the sequential reference path. Results are bit-identical
	// either way.
	Workers int
	// Rebalance configures the fleet-level checkpoint-migrating rebalancer
	// (see migrate.go); the zero value disables it and keeps the batch
	// path — and its results — untouched.
	Rebalance RebalanceConfig
}

// Uniform builds n identical member configurations from one base — the
// homogeneous fleet.
func Uniform(base sim.Config, n int) []sim.Config {
	members := make([]sim.Config, n)
	for i := range members {
		members[i] = base
	}
	return members
}

// Skewed builds n member configurations whose capacities ramp linearly:
// member i gets round(base.Capacity × (1 + skew·i)) slots (minimum 1), so
// skew 0 is Uniform and skew 0.5 over 4 members yields a 1×/1.5×/2×/2.5×
// heterogeneous fleet.
func Skewed(base sim.Config, n int, skew float64) []sim.Config {
	members := Uniform(base, n)
	for i := range members {
		c := int(float64(base.Capacity)*(1+skew*float64(i)) + 0.5)
		if c < 1 {
			c = 1
		}
		members[i].Capacity = c
	}
	return members
}

// backends resolves the member backends: Config.Backends verbatim, or each
// Members entry wrapped in a SimMember.
func (cfg Config) backends() []Member {
	if len(cfg.Backends) > 0 {
		return cfg.Backends
	}
	ms := make([]Member, len(cfg.Members))
	for i, mc := range cfg.Members {
		ms[i] = SimMember{Config: mc}
	}
	return ms
}

func (cfg Config) validate() error {
	members := cfg.backends()
	if len(members) == 0 {
		return fmt.Errorf("federation: no member clusters")
	}
	for i, m := range members {
		if m.Capacity() < 1 {
			return fmt.Errorf("federation: member %d capacity %d", i, m.Capacity())
		}
	}
	return cfg.Rebalance.validate()
}

// Result aggregates one federation run: the member results plus the exact
// fleet-wide metrics over all jobs.
type Result struct {
	Policy core.Policy
	Route  Route
	// Members holds each member cluster's own sim.Result, in member order.
	Members []sim.Result
	// JobsPerMember is how many jobs each member completed: the router's
	// deal adjusted by any rebalancer migrations.
	JobsPerMember []int
	// TotalTime is the fleet window: from the first job start on any member
	// to the last completion on any member.
	TotalTime float64
	// Utilization is allocated slot-seconds over deliverable slot-seconds,
	// both summed across members with every member's deliverable capacity
	// extended to the fleet's end instant — a member that drains early and
	// sits idle counts against the fleet.
	Utilization float64
	// WeightedResponse and WeightedCompletion are the priority-weighted
	// means over every job in the fleet (exact, via the members' weight
	// sums — not a mean of member means).
	WeightedResponse   float64
	WeightedCompletion float64
	// Imbalance is the spread between the busiest and idlest member's
	// fleet-window utilization (0 for a single member or a perfectly
	// balanced fleet) — the routing-quality metric.
	Imbalance float64
	// Migrations is the rebalancer's move log in decision order (nil when
	// rebalancing is off), and RebalanceRounds counts the rounds executed —
	// together the determinism fingerprint the equivalence tests pin.
	Migrations      []Migration
	RebalanceRounds int
	// RebalanceStats counts what the rebalancer examined and moved (zero when
	// rebalancing is off).
	RebalanceStats RebalanceStats
	// Resilience aggregates, summed across members.
	CapacityEvents int
	ForcedShrinks  int
	Requeues       int
	WorkLostSec    float64
	GoodputFrac    float64
	// MemberDecisions holds each member scheduler's decision log, in member
	// order — the conformance harness's raw material. It is nil unless at
	// least one member ran with decision logging enabled, so runs without
	// logging produce a Result identical to pre-recording builds.
	MemberDecisions [][]core.Decision
}

// fleetView projects the fleet aggregates onto sim.Result so the sweep can
// reuse sim.AverageResult's accumulator (Imbalance has no sim.Result slot
// and is summed by the sweep directly).
func (r Result) fleetView() sim.Result {
	return sim.Result{
		Policy:             r.Policy,
		TotalTime:          r.TotalTime,
		Utilization:        r.Utilization,
		WeightedResponse:   r.WeightedResponse,
		WeightedCompletion: r.WeightedCompletion,
		CapacityEvents:     r.CapacityEvents,
		ForcedShrinks:      r.ForcedShrinks,
		Requeues:           r.Requeues,
		WorkLostSec:        r.WorkLostSec,
		GoodputFrac:        r.GoodputFrac,
	}
}

// Run partitions the workload across the member clusters, simulates every
// member on the sim.RunTasks worker pool, and aggregates. The partition is
// sequential and deterministic, member runs are independent, and members are
// folded in index order, so parallel execution is bit-identical to
// cfg.Workers == 1. With Config.Rebalance enabled the members instead
// co-simulate in barrier-synchronized rounds between which the rebalancer
// checkpoint-migrates jobs (see migrate.go) — still deterministic and still
// bit-identical across worker counts.
func Run(cfg Config, w workload.Workload) (Result, error) {
	if cfg.Rebalance.enabled() {
		return runRebalanced(cfg, w, (*rebalancer).round)
	}
	parts, _, err := Partition(cfg, w)
	if err != nil {
		return Result{}, err
	}
	backends := cfg.backends()
	members := make([]sim.Result, len(parts))
	decs := make([][]core.Decision, len(parts))
	// Members that share a worker pool do not each shard their own run on
	// top of it: an unset Shards (automatic) resolves to the sequential loop.
	pooled := len(parts) > 1 && cfg.Workers != 1
	err = sim.RunTasks(len(parts), cfg.Workers, func(i int) error {
		b := backends[i]
		if m, ok := b.(SimMember); ok && pooled && m.Config.Shards == 0 {
			m.Config.Shards = 1
			b = m
		}
		res, dec, err := b.Run(parts[i])
		if err != nil {
			return fmt.Errorf("federation: member %d: %w", i, err)
		}
		members[i], decs[i] = res, dec
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	counts := make([]int, len(parts))
	for i := range parts {
		counts[i] = len(parts[i].Jobs)
	}
	res := aggregate(cfg, backends, counts, members)
	res.MemberDecisions = memberDecisions(decs)
	return res, nil
}

// memberDecisions normalizes collected member logs: nil when no member
// logged anything, the full per-member slice otherwise.
func memberDecisions(decs [][]core.Decision) [][]core.Decision {
	for _, d := range decs {
		if len(d) > 0 {
			return decs
		}
	}
	return nil
}

// aggregate folds the member results into the fleet metrics, always in
// member index order so float accumulation is reproducible. jobsPer is each
// member's completed-job count (the partition's deal, net of migrations).
func aggregate(cfg Config, backends []Member, jobsPer []int, members []sim.Result) Result {
	res := Result{
		Policy:        backends[0].Policy(),
		Route:         cfg.Route,
		Members:       members,
		JobsPerMember: jobsPer,
		GoodputFrac:   1,
	}
	// Fleet window over members that ran jobs (an empty member's zeroed
	// window must not drag FirstStart to 0).
	first := true
	var firstStart, lastEnd float64
	for i, m := range members {
		if jobsPer[i] == 0 {
			continue
		}
		if first || m.FirstStart < firstStart {
			firstStart, first = m.FirstStart, false
		}
		if m.LastEnd > lastEnd {
			lastEnd = m.LastEnd
		}
	}
	if !first {
		res.TotalTime = lastEnd - firstStart
	}
	var used, delivered, overhead float64
	var wSum, wResp, wComp float64
	minUtil, maxUtil := 1.0, 0.0
	for i, m := range members {
		// Extend each member's deliverable capacity to the fleet end. A
		// member with an availability trace is re-integrated over the full
		// fleet window from the trace itself: the sim skips trailing
		// capacity events once its own work has drained, but those events
		// still change what the idle member could have delivered to the
		// fleet. Without a trace the member idles at its end capacity.
		var d float64
		if tr := backends[i].Availability(); len(tr.Events) > 0 {
			steps := make([]sim.UtilSample, len(tr.Events))
			for ei, ev := range tr.Events {
				steps[ei] = sim.UtilSample{At: ev.At, Used: ev.Capacity}
			}
			d = sim.CapacityArea(float64(backends[i].Capacity()), steps, lastEnd)
		} else {
			d = m.DeliveredSlotSec
			if lastEnd > m.LastEnd {
				d += float64(m.EndCapacity) * (lastEnd - m.LastEnd)
			}
		}
		used += m.UsedSlotSec
		delivered += d
		overhead += (1 - m.GoodputFrac) * m.UsedSlotSec
		wSum += m.WeightSum
		wResp += m.WeightSum * m.WeightedResponse
		wComp += m.WeightSum * m.WeightedCompletion
		u := 0.0
		if d > 0 {
			u = m.UsedSlotSec / d
		}
		if u < minUtil {
			minUtil = u
		}
		if u > maxUtil {
			maxUtil = u
		}
		res.CapacityEvents += m.CapacityEvents
		res.ForcedShrinks += m.ForcedShrinks
		res.Requeues += m.Requeues
		res.WorkLostSec += m.WorkLostSec
	}
	if delivered > 0 {
		res.Utilization = used / delivered
	}
	if wSum > 0 {
		res.WeightedResponse = wResp / wSum
		res.WeightedCompletion = wComp / wSum
	}
	if used > 0 {
		res.GoodputFrac = 1 - overhead/used
	}
	if maxUtil > minUtil {
		res.Imbalance = maxUtil - minUtil
	}
	return res
}
