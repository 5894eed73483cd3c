package federation

import (
	"fmt"
	"math"
	"sort"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
)

// This file is the fleet-level rebalancer: the elastic-fleet loop that makes
// a router placement provisional instead of final. The member simulators
// co-simulate in barrier-synchronized rounds (StepTo on every member, in
// parallel, to the same instant), and between rounds the rebalancer
// checkpoint-migrates queued — then, on draining members, running — jobs
// from backlogged or capacity-losing members to members that can finish
// them sooner, lifting core.Preempt to the federation layer.
//
// Determinism contract: a rebalanced run is a pure function of (Config,
// workload). Every round observes the members in index order, sorts its
// victims with a total deterministic order, applies moves sequentially, and
// only then lets the members advance again — so repeated runs, and runs at
// any Workers count, produce identical Migrations logs and bit-identical
// fleet Results. The per-member advancement between barriers is the same
// single-threaded event loop as a batch run.

// DefaultRebalanceThreshold is the relative backlog excess over the fleet
// mean that marks a member backlogged (25%).
const DefaultRebalanceThreshold = 0.25

// maxStagnantRounds bounds rounds in which no member processed an event and
// no job moved before the rebalancer declares the fleet stalled — a
// defensive limit (a finite workload always makes progress or drains).
const maxStagnantRounds = 1000

// RebalanceConfig parameterizes the fleet rebalancer.
type RebalanceConfig struct {
	// Every is the rebalance round period in seconds; <= 0 disables the
	// rebalancer entirely (the zero value keeps the batch federation path).
	Every float64
	// Threshold is the relative backlog-drain-time excess over the fleet
	// mean that marks a member a migration donor. 0 means
	// DefaultRebalanceThreshold.
	Threshold float64
	// MigrateRunning also checkpoint-preempts running jobs off draining
	// members — members whose availability trace is about to drop capacity
	// below their running allocation — and migrates them with their
	// completed iterations instead of letting the capacity event force a
	// local requeue.
	MigrateRunning bool
	// MaxMovesPerRound caps migrations per round (0 = unlimited).
	MaxMovesPerRound int
}

func (rc RebalanceConfig) enabled() bool { return rc.Every > 0 }

func (rc RebalanceConfig) withDefaults() RebalanceConfig {
	if rc.Threshold == 0 {
		rc.Threshold = DefaultRebalanceThreshold
	}
	return rc
}

func (rc RebalanceConfig) validate() error {
	if rc.Every < 0 || math.IsNaN(rc.Every) || math.IsInf(rc.Every, 0) {
		return fmt.Errorf("federation: rebalance period %v", rc.Every)
	}
	if rc.Threshold < 0 {
		return fmt.Errorf("federation: rebalance threshold %v < 0", rc.Threshold)
	}
	if rc.MaxMovesPerRound < 0 {
		return fmt.Errorf("federation: rebalance move cap %d < 0", rc.MaxMovesPerRound)
	}
	return nil
}

// Migration is one job move in the rebalancer's decision log.
type Migration struct {
	Round int     // 1-based rebalance round
	At    float64 // fleet instant of the move
	JobID string
	From  int
	To    int
	// Checkpointed marks a job that had already run on the donor: it
	// migrated with its checkpoint and pays restart+restore on the
	// receiver. Queued-never-started jobs move for free.
	Checkpointed bool
}

// memberState is one member's snapshot at a round barrier.
type memberState struct {
	eff     int     // capacity right now (after applied availability events)
	effNext int     // capacity the trace delivers one round from now
	plan    float64 // planning capacity: min(eff, effNext), ≥ 1 slot
	drainT  float64 // queued work over plan — the backlog drain-time estimate
	used    int     // running jobs' allocated slots
	queued  []sim.QueuedJob
}

// runRebalanced is the rebalancing twin of Run: co-simulate the members in
// rounds of Config.Rebalance.Every seconds, migrating jobs at each barrier.
func runRebalanced(cfg Config, w sim.Workload) (Result, error) {
	backends := cfg.backends()
	parts, _, err := Partition(cfg, w)
	if err != nil {
		return Result{}, err
	}
	n := len(backends)
	sims := make([]*sim.Simulator, n)
	for i, b := range backends {
		sb, ok := b.(stepBackend)
		if !ok {
			return Result{}, fmt.Errorf("federation: member %d (%T) cannot rebalance: only simulator-backed members are steppable", i, b)
		}
		s, err := sb.newStepper()
		if err != nil {
			return Result{}, fmt.Errorf("federation: member %d: %w", i, err)
		}
		if err := s.Begin(parts[i]); err != nil {
			return Result{}, fmt.Errorf("federation: member %d: %w", i, err)
		}
		sims[i] = s
	}
	counts := make([]int, n)
	for i := range parts {
		counts[i] = len(parts[i].Jobs)
	}

	rb := cfg.Rebalance
	var migs []Migration
	rounds, stagnant := 0, 0
	t := rb.Every
	for {
		before := 0
		for _, s := range sims {
			before += s.Processed()
		}
		// Barrier: every member advances to t on the worker pool. Members
		// are independent between barriers, so this is bit-identical to
		// advancing them one by one.
		if err := sim.RunTasks(n, cfg.Workers, func(i int) error {
			return sims[i].StepTo(t)
		}); err != nil {
			return Result{}, err
		}
		rounds++
		drained := true
		for _, s := range sims {
			if !s.Drained() {
				drained = false
				break
			}
		}
		if drained {
			break
		}
		moved, err := rebalanceRound(rb, backends, sims, t, rounds, counts, &migs)
		if err != nil {
			return Result{}, err
		}
		after := 0
		for _, s := range sims {
			after += s.Processed()
		}
		if after == before && moved == 0 {
			stagnant++
			if stagnant > maxStagnantRounds {
				return Result{}, fmt.Errorf("federation: rebalancer stalled at t=%.1f after %d rounds", t, rounds)
			}
		} else {
			stagnant = 0
		}
		// Fleet fully idle with submissions still ahead: fast-forward the
		// round clock onto the Every-grid point just before the next
		// arrival instead of spinning through empty rounds.
		if next, ok := fleetNextSubmit(sims); ok && fleetIdle(sims) && next >= t+rb.Every {
			t += math.Floor((next-t)/rb.Every) * rb.Every
		}
		t += rb.Every
	}

	members := make([]sim.Result, n)
	decs := make([][]core.Decision, n)
	err = sim.RunTasks(n, cfg.Workers, func(i int) error {
		res, err := sims[i].Finish()
		if err != nil {
			return fmt.Errorf("federation: member %d: %w", i, err)
		}
		members[i], decs[i] = res, sims[i].Decisions()
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := aggregate(cfg, backends, counts, members)
	res.Migrations = migs
	res.RebalanceRounds = rounds
	res.MemberDecisions = memberDecisions(decs)
	return res, nil
}

func fleetIdle(sims []*sim.Simulator) bool {
	for _, s := range sims {
		if !s.Idle() {
			return false
		}
	}
	return true
}

func fleetNextSubmit(sims []*sim.Simulator) (float64, bool) {
	best, ok := 0.0, false
	for _, s := range sims {
		if at, has := s.NextSubmitAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// queuedWork is one waiting job's modelled slot-second demand on a member's
// own machine: runtime at the placement replica count times that count.
func queuedWork(m model.Machine, capacity int, spec model.Spec) float64 {
	minPE := spec.MinReplicas
	if minPE > capacity {
		minPE = capacity
	}
	return m.JobRuntime(spec, minPE) * float64(minPE)
}

// sortVictims orders a donor's migration candidates: lowest priority first
// (they would wait longest locally and cost the least to move), ties broken
// by later submission, then ID — a total deterministic order.
func sortVictims(victims []sim.QueuedJob) {
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if va.Priority != vb.Priority {
			return va.Priority < vb.Priority
		}
		if va.SubmitAt != vb.SubmitAt {
			return va.SubmitAt > vb.SubmitAt
		}
		return va.ID < vb.ID
	})
}

// rebalanceRound snapshots every member at the barrier instant t, picks
// donors (backlogged beyond threshold, or draining), and migrates victims to
// the receivers that can finish them soonest. Returns the number of jobs
// moved. All state reads precede all mutations except the moves themselves,
// which only ever touch a donor's own snapshot entries — so the decision
// sequence is a pure function of the barrier state.
func rebalanceRound(rb RebalanceConfig, backends []Member, sims []*sim.Simulator,
	t float64, round int, counts []int, migs *[]Migration) (int, error) {
	n := len(sims)
	specs := model.Specs()
	machines := make([]model.Machine, n)
	states := make([]memberState, n)
	mean := 0.0
	for i := range sims {
		machines[i] = backends[i].Machine()
		st := memberState{
			eff:     sims[i].CurrentCapacity(),
			used:    sims[i].UsedSlots(),
			queued:  sims[i].QueuedJobs(),
			effNext: sims[i].CurrentCapacity(),
		}
		if tr := backends[i].Availability(); len(tr.Events) > 0 {
			st.effNext = tr.CapacityAt(backends[i].Capacity(), t+rb.Every)
		}
		plan := st.eff
		if st.effNext < plan {
			plan = st.effNext
		}
		if plan < 1 {
			plan = 1
		}
		st.plan = float64(plan)
		// A float sum depends on its order, and the snapshot's order is the
		// member queue's internal layout. Impose the coordinator's own:
		// one job at a time, classes ascending.
		var waiting [model.XLarge + 1]int
		for _, q := range st.queued {
			waiting[q.Class]++
		}
		for c, n := range waiting {
			work := queuedWork(machines[i], backends[i].Capacity(), specs[model.Class(c)])
			for ; n > 0; n-- {
				st.drainT += work
			}
		}
		st.drainT /= st.plan
		states[i] = st
		mean += st.drainT
	}
	mean /= float64(n)

	moved := 0
	budget := rb.MaxMovesPerRound
	for donor := range states {
		if budget > 0 && moved >= budget {
			break
		}
		backlogged := states[donor].drainT > mean*(1+rb.Threshold) && len(states[donor].queued) > 0
		draining := states[donor].effNext < states[donor].eff
		if !backlogged && !draining {
			continue
		}
		// Phase 1: evacuate queued jobs.
		victims := append([]sim.QueuedJob(nil), states[donor].queued...)
		sortVictims(victims)
		for _, v := range victims {
			if budget > 0 && moved >= budget {
				break
			}
			ok, err := tryMove(rb, backends, sims, states, machines, specs, donor, v, t, round, counts, migs)
			if err != nil {
				return moved, err
			}
			if ok {
				moved++
			}
		}
		// Phase 2: a draining member whose running allocation will not fit
		// after the drop checkpoint-preempts the deficit (core.Preempt
		// lifted to the fleet) and migrates the evicted jobs too.
		if rb.MigrateRunning && draining && states[donor].used > states[donor].effNext {
			seen := make(map[int32]bool, len(states[donor].queued))
			for _, q := range states[donor].queued {
				seen[q.Ref] = true
			}
			if sims[donor].Preempt(states[donor].used-states[donor].effNext) > 0 {
				evicted := make([]sim.QueuedJob, 0, 4)
				for _, q := range sims[donor].QueuedJobs() {
					if !seen[q.Ref] {
						evicted = append(evicted, q)
					}
				}
				sortVictims(evicted)
				for _, v := range evicted {
					if budget > 0 && moved >= budget {
						break
					}
					ok, err := tryMove(rb, backends, sims, states, machines, specs, donor, v, t, round, counts, migs)
					if err != nil {
						return moved, err
					}
					if ok {
						moved++
					}
				}
			}
		}
	}
	if moved > 0 {
		// Donors freed queue entries (and possibly slots); receivers got
		// new submissions. One scheduling pass per member, in index order,
		// lets everyone act on the new state at exactly t.
		for i := range sims {
			sims[i].Kick()
		}
	}
	return moved, nil
}

// tryMove migrates one victim off donor to the best receiver, updating the
// round's bookkeeping. A move happens only when some feasible receiver,
// even after absorbing the job, would still drain sooner than the donor
// does now — otherwise the job stays put. Returns whether a move happened.
func tryMove(rb RebalanceConfig, backends []Member, sims []*sim.Simulator,
	states []memberState, machines []model.Machine, specs map[model.Class]model.Spec,
	donor int, v sim.QueuedJob, t float64, round int, counts []int, migs *[]Migration) (bool, error) {
	spec := specs[v.Class]
	recv, recvWork := -1, 0.0
	best := states[donor].drainT
	for i := range states {
		if i == donor {
			continue
		}
		// Hardware fit: the receiver's base capacity must host the job at
		// all, and its planning capacity (which sees the next drain window)
		// must host the job's minimum now.
		if spec.MinReplicas > backends[i].Capacity() || float64(spec.MinReplicas) > states[i].plan {
			continue
		}
		work := queuedWork(machines[i], backends[i].Capacity(), spec)
		after := states[i].drainT + work/states[i].plan
		if after < best {
			best, recv, recvWork = after, i, work
		}
	}
	if recv < 0 {
		return false, nil
	}
	mj, err := sims[donor].Withdraw(v.Ref)
	if err != nil {
		// The snapshot said the job was waiting; a failure here means the
		// coordinator and member disagree — a bug, not a routine miss.
		return false, fmt.Errorf("federation: migrate %s off member %d: %w", v.ID, donor, err)
	}
	if err := sims[recv].Inject(mj); err != nil {
		return false, fmt.Errorf("federation: migrate %s to member %d: %w", v.ID, recv, err)
	}
	donorWork := queuedWork(machines[donor], backends[donor].Capacity(), spec)
	states[donor].drainT -= donorWork / states[donor].plan
	if states[donor].drainT < 0 {
		states[donor].drainT = 0
	}
	states[recv].drainT += recvWork / states[recv].plan
	counts[donor]--
	counts[recv]++
	*migs = append(*migs, Migration{
		Round: round, At: t, JobID: v.ID, From: donor, To: recv,
		Checkpointed: mj.Checkpointed,
	})
	return true, nil
}
