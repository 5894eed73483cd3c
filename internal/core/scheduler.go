package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Policy selects one of the four scheduling strategies compared in §4.3.
type Policy int

// The four policies the paper evaluates.
const (
	// Elastic is the paper's contribution: jobs launch anywhere within
	// [min,max] replicas and are rescaled on the fly (Figures 2 & 3).
	Elastic Policy = iota
	// Moldable picks the replica count at launch to maximize utilization
	// but never rescales a running job. The paper emulates it as the
	// elastic policy with an effectively infinite rescale gap.
	Moldable
	// RigidMin launches every job with exactly minReplicas.
	RigidMin
	// RigidMax launches every job with exactly maxReplicas.
	RigidMax
)

// String returns the policy's name as used in the paper's tables.
func (p Policy) String() string {
	switch p {
	case Elastic:
		return "elastic"
	case Moldable:
		return "moldable"
	case RigidMin:
		return "min_replicas"
	case RigidMax:
		return "max_replicas"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// AllPolicies lists the four policies in the paper's presentation order.
func AllPolicies() []Policy { return []Policy{RigidMin, RigidMax, Moldable, Elastic} }

// PolicyByName resolves a policy's flag-friendly name (as produced by
// Policy.String) back to its Policy.
func PolicyByName(name string) (Policy, error) {
	for _, p := range AllPolicies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf(`core: unknown policy %q (have "min_replicas", "max_replicas", "moldable", "elastic")`, name)
}

// Actuator is the substrate the scheduler drives: the DES simulator or the
// Kubernetes operator. Each call may fail (e.g. the application declined the
// rescale, or pods could not be placed); the scheduler treats failures as
// "this job cannot change right now" and moves on, exactly like the
// pseudocode's boolean shrinkJob/createOrExpandJob results.
type Actuator interface {
	// StartJob launches a queued (or preempted) job with the given
	// replica count.
	StartJob(j *Job, replicas int) error
	// ShrinkJob rescales a running job down to the given replica count.
	ShrinkJob(j *Job, to int) error
	// ExpandJob rescales a running job up to the given replica count.
	ExpandJob(j *Job, to int) error
	// PreemptJob checkpoints and stops a running job (optional extension,
	// paper §3.2.2). Only called when Config.EnablePreemption is set.
	PreemptJob(j *Job) error
}

// CostBenefit optionally gates rescale decisions on application progress
// (paper §6 future work). A nil function disables the corresponding gate.
type CostBenefit struct {
	// Progress reports the fraction of the job already completed, 0..1.
	Progress func(j *Job) float64
	// MinRemainingFraction declines any rescale of a job whose remaining
	// fraction is below this threshold ("If only a small fraction of a
	// job remains, scaling up may not provide enough benefit").
	MinRemainingFraction float64
	// MinExpandGain declines an expand that grows the job by fewer than
	// this many replicas ("A small increase in the number of replicas may
	// not justify the overhead of rescaling").
	MinExpandGain int
}

// Config configures a Scheduler.
type Config struct {
	Policy   Policy
	Capacity int // total worker slots in the cluster (vCPUs in the paper)
	// RescaleGap is the minimum time between scheduling events on the
	// same job (T_rescale_gap, §3.2.1). Creation stamps LastAction, so a
	// freshly started job cannot be rescaled within the gap either.
	RescaleGap time.Duration
	// JobOverheadSlots is the per-job slot overhead beyond its workers
	// (the launcher pod; the pseudocode's "freeSlots - 1"). The paper's
	// experiments run launchers outside the worker slot pool, so the
	// experiment harnesses use 0; set 1 for the literal Figure 2 snippet.
	JobOverheadSlots int
	// AgingRate adds AgingRate priority units per second of queue wait to
	// a job's effective priority (paper §3.2.2 "Aging priorities"
	// extension). 0 disables aging.
	AgingRate float64
	// EnablePreemption lets the scheduler checkpoint-and-stop lower
	// priority jobs when shrinking alone cannot make room for a higher
	// priority job (paper §3.2.2 "Job preemption" extension).
	EnablePreemption bool
	// StrictFCFS disables out-of-order allocation: redistribution stops
	// at the first queued job that does not fit instead of letting
	// smaller lower-priority jobs fill the gaps. The paper's policy is
	// explicitly NOT strict ("out-of-order allocations if they improve
	// cluster utilization", §3.2); this flag exists for the ablation.
	StrictFCFS bool
	// CostBenefit optionally gates rescales on application progress.
	CostBenefit *CostBenefit
	// EnableLog records the scheduler's effects for retrieval via
	// Scheduler.Log — the audit trail operators want when a rescale storm
	// needs explaining: start, shrink, expand, preempt, complete, capacity,
	// withdraw, and a job's first entry into the wait queue. Only record and
	// recordCapacity read the flag, so logging never changes what the
	// scheduler does. Entries land in a bounded ring buffer, so steady state
	// logging allocates nothing per decision.
	EnableLog bool
	// FullRedistribute disables the incremental-scheduling early-outs:
	// every redistribute runs the full Figure 3 pass and every Reschedule
	// drains the whole queue.
	// The early-outs are provably decision-transparent (the equivalence
	// tests pin incremental ≡ full across policies and workloads), so
	// this knob exists for those audits and for debugging, not for
	// production use.
	FullRedistribute bool
}

// Scheduler implements the priority-based elastic policy and its baselines.
// It is not goroutine-safe; callers (simulator event loop, operator
// reconcile queue) serialize access.
//
// Incremental-scheduling invariants (relied on by the hot path, pinned by
// the equivalence tests):
//
//   - free = Capacity − Σ running Replicas − NumRunning×JobOverheadSlots,
//     so maxFreeable is O(1) arithmetic over free and runMinSum instead of
//     a scan of the running set.
//   - runMinSum = Σ running policy-minimums, maintained by
//     insertRunning/removeRunning.
//   - the wait queue is one heap per distinct slot need, so the smallest
//     waiting need (queue.minNeed) is exact and "the job that schedules
//     first among those a budget could fit" is an O(buckets) question.
//   - a waiting job does anything in submit iff it is placeable: free plus
//     what Figure 2's feasibility walk counts for its priority covers its
//     need. Reschedule's placeable-only pass (placeWaiting) touches only
//     those jobs; the drain loop (drainResubmit) is the reference it must
//     equal, and the fallback wherever the pass's argument does not hold.
//   - clean means the last redistribute ran to completion and no slot,
//     queue, or capacity state changed since; cleanUntil is the earliest
//     rescale-gap expiry that could unblock an expansion the pass skipped.
//     Any mutation (start/shrink/expand/enqueue/complete/reclaim/
//     SetCapacity) clears clean.
type Scheduler struct {
	cfg Config
	act Actuator
	now func() time.Time

	// tnow caches the clock for the duration of one public call. Drivers
	// hold time constant within a scheduling pass (the simulator's event
	// handler, the operator's reconcile callback), so one read per entry
	// point replaces thousands of closure calls on the hot path. tnowNs
	// mirrors it in Unix nanoseconds for the arithmetic-only comparisons;
	// gapNs is the precomputed RescaleGap (MaxInt64 = never rescale).
	tnow   time.Time
	tnowNs int64
	gapNs  int64

	running []*Job
	queue   jobQueue
	free    int
	// runMinSum is the sum of policy-minimum replicas over the running
	// set, maintained incrementally so maxFreeable is O(1).
	runMinSum int

	// clean/cleanUntilNs implement the redistribute early-out; see the
	// struct comment. cleanUntilNs is Unix nanoseconds, 0 = no time bound.
	clean        bool
	cleanUntilNs int64

	log logRing

	// capStats counts forced capacity reclaims (SetCapacity / Preempt);
	// reclaiming is set while one is in progress so actuators can
	// attribute the resulting shrinks to the availability event.
	capStats   CapacityStats
	reclaiming bool

	// Scratch buffers reused across scheduling passes so the hot path
	// allocates nothing per event.
	runScratch     []*Job
	refusedScratch []*Job
	needScratch    []int
}

// NewScheduler creates a scheduler over an empty cluster with the given
// capacity. now supplies the current time (virtual or real).
func NewScheduler(cfg Config, act Actuator, now func() time.Time) (*Scheduler, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("core: capacity %d < 1", cfg.Capacity)
	}
	if act == nil || now == nil {
		return nil, fmt.Errorf("core: actuator and clock are required")
	}
	if cfg.Policy == Moldable && cfg.RescaleGap < time.Duration(math.MaxInt64) {
		// Moldable = elastic that never rescales (paper §4.3.2).
		cfg.RescaleGap = time.Duration(math.MaxInt64)
	}
	s := &Scheduler{cfg: cfg, act: act, now: now, free: cfg.Capacity, gapNs: int64(cfg.RescaleGap)}
	s.queue.s = s
	return s, nil
}

// refresh caches the clock for the duration of one public call.
func (s *Scheduler) refresh() {
	s.tnow = s.now()
	s.tnowNs = s.tnow.UnixNano()
}

// dirty invalidates the clean-pass flag; every mutation of slots, the
// running set, the queue, or capacity goes through one of the callers.
func (s *Scheduler) dirty() { s.clean = false }

// FreeSlots reports the scheduler's current free-slot count.
func (s *Scheduler) FreeSlots() int { return s.free }

// Running returns a copy of the running jobs in decreasing priority order.
// Hot paths that only read should prefer VisitRunning, which does not copy.
func (s *Scheduler) Running() []*Job {
	s.refresh()
	return append([]*Job(nil), s.running...)
}

// Queued returns a copy of the queued jobs in decreasing priority order.
// Hot paths that only read should prefer VisitQueued, which does not copy.
func (s *Scheduler) Queued() []*Job {
	s.refresh()
	return s.queue.sorted()
}

// VisitRunning calls fn for each running job in decreasing priority order,
// stopping early when fn returns false. It does not copy: the *Job values
// are the scheduler's own records, and fn must not mutate them or call back
// into scheduling methods.
func (s *Scheduler) VisitRunning(fn func(*Job) bool) {
	for _, j := range s.running {
		if !fn(j) {
			return
		}
	}
}

// VisitQueued calls fn for each waiting job, stopping early when fn returns
// false. Iteration order is the queue's internal layout — bucket order
// (ascending slot need), then heap order within a bucket; not sorted, and
// free to change with the queue's implementation, so callers whose result
// depends on order must impose their own (or use Queued). Like VisitRunning
// it does not copy, and fn must not mutate the jobs or call back into
// scheduling methods.
func (s *Scheduler) VisitQueued(fn func(*Job) bool) { s.queue.visit(fn) }

// NumRunning reports the running-job count without copying (the per-event
// fast path for drivers that only need the length).
func (s *Scheduler) NumRunning() int { return len(s.running) }

// NumQueued reports the waiting-job count without copying or sorting.
func (s *Scheduler) NumQueued() int { return s.queue.Len() }

// jobNeed is the smallest slot count j needs to start under the policy.
func (s *Scheduler) jobNeed(j *Job) int {
	jmin, _ := s.bounds(j)
	return jmin + s.cfg.JobOverheadSlots
}

// effPriority computes a job's effective priority including aging, against
// the pass-cached clock. Without aging it is the cached base priority — no
// conversion, no time math.
func (s *Scheduler) effPriority(j *Job) float64 {
	if s.cfg.AgingRate > 0 && j.State == StateQueued {
		// Kept as time.Time math: Duration.Seconds rounds differently
		// from a raw nanosecond quotient, and aged priorities are pinned
		// bit for bit by the equivalence tests.
		return j.prio + s.cfg.AgingRate*s.tnow.Sub(j.SubmitTime).Seconds()
	}
	return j.prio
}

// compare orders jobs for scheduling: decreasing effective priority, ties
// broken by earlier submission, then ID — a total and deterministic order.
// Negative means a schedules ahead of b.
func (s *Scheduler) compare(a, b *Job) int {
	pa, pb := s.effPriority(a), s.effPriority(b)
	switch {
	case pa > pb:
		return -1
	case pa < pb:
		return 1
	}
	switch {
	case a.submitNs < b.submitNs:
		return -1
	case a.submitNs > b.submitNs:
		return 1
	case a.IDRank < b.IDRank:
		return -1
	case a.IDRank > b.IDRank:
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// before reports whether a schedules ahead of b (compare < 0). The aging-off
// body is spelled out so the common case inlines into the heap operations.
// Measured with bench/ (alternating 5 s pairs): one spelling of the order for
// compare, before and sortJobs, with submit's gate folded into its walk, is
// 55 lines shorter and costs avail_drain 4 % of jobs_per_s (530.4 k →
// 508.9 k, ahead in 1 pair of 6) and burst_backlog 2 % (ahead in 2 of 6).
func (s *Scheduler) before(a, b *Job) bool {
	if s.cfg.AgingRate > 0 {
		return s.compare(a, b) < 0
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.submitNs != b.submitNs {
		return a.submitNs < b.submitNs
	}
	if a.IDRank != b.IDRank {
		return a.IDRank < b.IDRank
	}
	return a.ID < b.ID
}

// insertRunning places j into the running list, keeping it sorted in
// decreasing effective priority without the interface boxing a full re-sort
// costs per start. Running jobs' effective priorities are static (aging only
// applies while queued), so insertion preserves the order a re-sort would
// produce.
func (s *Scheduler) insertRunning(j *Job) {
	i := sort.Search(len(s.running), func(k int) bool {
		return s.before(j, s.running[k])
	})
	s.running = append(s.running, nil)
	copy(s.running[i+1:], s.running[i:])
	s.running[i] = j
	jmin, _ := s.bounds(j)
	s.runMinSum += jmin
	s.dirty()
}

// gapOK reports whether the job is outside its rescale gap (the pseudocode's
// `currentTime() - j.lastAction < rescaleGap → continue`). Queued jobs have
// no last action and are always eligible for creation.
func (s *Scheduler) gapOK(j *Job) bool {
	if j.LastAction.IsZero() {
		return true
	}
	if s.gapNs == math.MaxInt64 {
		return false // moldable: never rescale after creation
	}
	return s.tnowNs-j.lastActionNs >= s.gapNs
}

// costBenefitOK reports whether the cost/benefit gate allows rescaling j.
func (s *Scheduler) costBenefitOK(j *Job, newReplicas int) bool {
	cb := s.cfg.CostBenefit
	if cb == nil {
		return true
	}
	if cb.Progress != nil && cb.MinRemainingFraction > 0 {
		if 1-cb.Progress(j) < cb.MinRemainingFraction {
			return false
		}
	}
	if newReplicas > j.Replicas && cb.MinExpandGain > 0 {
		if newReplicas-j.Replicas < cb.MinExpandGain {
			return false
		}
	}
	return true
}

// effective min/max replicas under the policy: the rigid baselines pin both
// bounds to one value ("The rigid job schedulers are emulated by setting the
// same value for min_replicas and max_replicas for all jobs", §4.3.2).
func (s *Scheduler) bounds(j *Job) (minR, maxR int) {
	switch s.cfg.Policy {
	case RigidMin:
		return j.MinReplicas, j.MinReplicas
	case RigidMax:
		return j.MaxReplicas, j.MaxReplicas
	default:
		return j.MinReplicas, j.MaxReplicas
	}
}

// start launches j with the given replica count and updates accounting.
func (s *Scheduler) start(j *Job, replicas int) bool {
	if err := s.act.StartJob(j, replicas); err != nil {
		return false
	}
	j.State = StateRunning
	j.Replicas = replicas
	j.LastAction = s.tnow
	j.lastActionNs = s.tnowNs
	if j.StartTime.IsZero() {
		j.StartTime = s.tnow
	}
	s.free -= replicas + s.cfg.JobOverheadSlots
	s.insertRunning(j)
	s.record(DecisionStart, j)
	return true
}

// shrink rescales a running job down and updates accounting.
func (s *Scheduler) shrink(j *Job, to int) bool {
	if !s.costBenefitOK(j, to) {
		return false
	}
	if err := s.act.ShrinkJob(j, to); err != nil {
		return false
	}
	s.free += j.Replicas - to
	j.Replicas = to
	j.LastAction = s.tnow
	j.lastActionNs = s.tnowNs
	j.Rescales++
	s.dirty()
	s.record(DecisionShrink, j)
	return true
}

// expand rescales a running job up and updates accounting.
func (s *Scheduler) expand(j *Job, to int) bool {
	if !s.costBenefitOK(j, to) {
		return false
	}
	if err := s.act.ExpandJob(j, to); err != nil {
		return false
	}
	s.free -= to - j.Replicas
	j.Replicas = to
	j.LastAction = s.tnow
	j.lastActionNs = s.tnowNs
	j.Rescales++
	s.dirty()
	s.record(DecisionExpand, j)
	return true
}

// enqueue places j on the internal priority queue. It logs nothing: Submit
// records a job's first entry, and a job a pass puts back is not an effect.
func (s *Scheduler) enqueue(j *Job) {
	j.State = StateQueued
	s.queue.push(j)
	s.dirty()
}

// removeRunning deletes j from the running list.
func (s *Scheduler) removeRunning(j *Job) {
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			jmin, _ := s.bounds(j)
			s.runMinSum -= jmin
			s.dirty()
			return
		}
	}
}

// Submit handles a new job submission (paper Figure 2). For the elastic
// policy it may shrink lower-priority running jobs to make room; for the
// baselines the gap checks and pinned bounds reduce it to the corresponding
// rigid/moldable behaviour.
func (s *Scheduler) Submit(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	s.refresh()
	if j.SubmitTime.IsZero() {
		j.SubmitTime = s.tnow
	}
	j.prio = float64(j.Priority)
	j.submitNs = j.SubmitTime.UnixNano()
	s.submit(j)
	if j.State == StateQueued {
		s.record(DecisionEnqueue, j)
	}
	return nil
}

// Withdraw removes a waiting job from this scheduler entirely — the
// federation rebalancer's migration primitive: the job leaves this member's
// queue and is re-submitted to another member. Only waiting jobs (queued, or
// checkpoint-preempted back to the queue) can be withdrawn; a running or
// completed job is an error and the scheduler is left untouched. On success
// the job's state becomes StateWithdrawn and the scheduler drops every
// reference to it.
func (s *Scheduler) Withdraw(j *Job) error {
	if j.State != StateQueued && j.State != StatePreempted {
		return fmt.Errorf("core: withdraw %s: state %v, want Queued or Preempted", j.ID, j.State)
	}
	s.refresh()
	if !s.queue.remove(j) {
		return fmt.Errorf("core: withdraw %s: not in this scheduler's queue", j.ID)
	}
	j.State = StateWithdrawn
	s.dirty()
	s.record(DecisionWithdraw, j)
	return nil
}

// placeable is Figure 2's feasibility pass: walk running jobs from the lowest
// priority upward, counting how many slots shrinking them to their minimum
// could free, until free plus that count covers need. Jobs inside their
// rescale gap are skipped and the walk stops at the first job with priority
// above job's. No actuation happens here. What the walk can count only grows
// with job's priority — the monotonicity placeWaiting's bucket argument
// rests on.
func (s *Scheduler) placeable(job *Job, need int) bool {
	numToFree := need - s.free
	for i := len(s.running) - 1; i >= 0 && numToFree > 0; i-- {
		j := s.running[i]
		if !s.gapOK(j) {
			continue
		}
		if s.effPriority(j) > s.effPriority(job) {
			break
		}
		if jmin, _ := s.bounds(j); j.Replicas > jmin {
			numToFree -= j.Replicas - jmin
		}
	}
	return numToFree <= 0
}

func (s *Scheduler) submit(job *Job) {
	minR, maxR := s.bounds(job)
	overhead := s.cfg.JobOverheadSlots

	// replicas = min(freeSlots - overhead, job.maxReplicas)
	replicas := s.free - overhead
	if replicas > maxR {
		replicas = maxR
	}
	if replicas >= minR {
		if s.start(job, replicas) {
			return
		}
		s.enqueue(job)
		return
	}

	// O(1) infeasibility gate: the feasibility walk below can never count
	// more freeable slots than maxFreeable, so when even that bound cannot
	// cover the deficit the walk's outcome is already decided. The gated
	// path reproduces it exactly — try preemption, else enqueue — and the
	// walk it skips emits no decisions, so the shortcut is
	// decision-transparent. Disabled in FullRedistribute mode like every
	// incremental early-out. It repeats the refusal arm below because
	// merging the two is part of the measured 4 % avail_drain loss noted at
	// before.
	if !s.cfg.FullRedistribute && s.free+s.maxFreeable() < minR+overhead {
		if s.cfg.EnablePreemption && s.tryPreempt(job, minR, overhead) {
			s.submit(job) // room was made; re-run placement
			return
		}
		s.enqueue(job)
		return
	}

	if !s.placeable(job, minR+overhead) {
		// Shrinking cannot make room; optionally try preemption, else
		// queue the job.
		if s.cfg.EnablePreemption && s.tryPreempt(job, minR, overhead) {
			s.submit(job) // room was made; re-run placement
			return
		}
		s.enqueue(job)
		return
	}

	// Actuation pass (Figure 2, second loop): free as many slots as would
	// let the new job run at its maximum, shrinking from the lowest
	// priority upward.
	minToFree := minR - s.free + overhead
	maxToFree := maxR - s.free + overhead
	for i := len(s.running) - 1; i >= 0 && maxToFree > 0; i-- {
		j := s.running[i]
		if !s.gapOK(j) {
			continue
		}
		if s.effPriority(j) > s.effPriority(job) {
			break
		}
		jmin, _ := s.bounds(j)
		if j.Replicas > jmin {
			newReplicas := j.Replicas - maxToFree
			if newReplicas < jmin {
				newReplicas = jmin
			}
			oldReplicas := j.Replicas
			if s.shrink(j, newReplicas) {
				freed := oldReplicas - newReplicas
				minToFree -= freed
				maxToFree -= freed
			}
		}
	}
	if minToFree > 0 {
		s.enqueue(job)
		return
	}
	replicas = s.free - overhead
	if replicas > maxR {
		replicas = maxR
	}
	if replicas < minR || !s.start(job, replicas) {
		s.enqueue(job)
	}
}

// tryPreempt checkpoints-and-stops strictly lower priority running jobs
// (lowest first) until minR+overhead slots are free or no candidates remain.
// Preempted jobs return to the queue and resume from their checkpoint when
// scheduled again (paper §3.2.2).
func (s *Scheduler) tryPreempt(job *Job, minR, overhead int) bool {
	for i := len(s.running) - 1; i >= 0 && s.free < minR+overhead; i-- {
		j := s.running[i]
		if s.effPriority(j) >= s.effPriority(job) {
			break
		}
		if err := s.act.PreemptJob(j); err != nil {
			continue
		}
		s.free += j.Replicas + s.cfg.JobOverheadSlots
		j.Replicas = 0
		j.State = StatePreempted
		j.LastAction = s.tnow
		j.lastActionNs = s.tnowNs
		s.removeRunning(j)
		s.queue.push(j)
		s.record(DecisionPreempt, j)
	}
	return s.free >= minR+overhead
}

// OnJobComplete handles a job finishing (paper Figure 3): its slots are
// redistributed to running and queued jobs in decreasing priority order —
// expanding running jobs below their max and starting queued jobs.
func (s *Scheduler) OnJobComplete(j *Job) {
	if j.State != StateRunning {
		return
	}
	s.refresh()
	j.State = StateCompleted
	j.EndTime = s.tnow
	s.removeRunning(j)

	// freeWorkers(job): slots released by the finished job.
	numWorkers := j.Replicas + s.cfg.JobOverheadSlots
	j.Replicas = 0
	s.free += numWorkers
	s.record(DecisionComplete, j)
	s.redistribute()
}

// Kick re-runs the redistribution pass (Figure 3's loop) without a
// completion event — used by the aging extension, where queue priorities
// change over time, and by operators after failed actuations.
func (s *Scheduler) Kick() {
	s.refresh()
	s.redistribute()
}

// Reschedule re-evaluates the whole cluster: every queued job is re-placed
// through the Figure 2 submission logic (so a high-priority job that was
// blocked by rescale gaps can now shrink lower-priority jobs), then the
// Figure 3 redistribution expands running jobs into any remaining free
// slots. Drivers call this when a rescale gap expires — the simulator via a
// timer event, the operator via its requeue-after reconcile loop.
//
// "Every queued job" is what the effects must equal, not what the pass
// touches. With FullRedistribute — the reference — the whole queue goes
// through the drain loop. Otherwise nothing happens at all when even the
// smallest waiting need exceeds what shrinking — or preempting — the whole
// running set could free, and what does happen is the placeable-only pass
// wherever its argument holds. A job put back on the queue is not logged, so
// none of this depends on EnableLog.
func (s *Scheduler) Reschedule() {
	s.refresh()
	if s.queue.Len() > 0 {
		switch {
		case s.cfg.FullRedistribute:
			s.drainResubmit(nil)
		case s.free+s.maxFreeable() < s.queue.minNeed():
			// No waiting job could start: every submit would re-enqueue.
		case s.cfg.AgingRate > 0 || s.cfg.EnablePreemption || s.free < 0 || s.queue.preempted > 0:
			// Aging reorders buckets against each other over time,
			// preemption lets a job that is not placeable act anyway, a
			// negative free pool breaks the budget bound, and a waiting
			// job still in StatePreempted has that marker erased by the
			// drain loop's re-enqueue (drivers read it at the next start),
			// which only the drain loop reproduces.
			s.drainResubmit(nil)
		default:
			s.placeWaiting()
		}
	}
	s.redistribute()
}

// placeWaiting is the drain loop restricted to the jobs it would not merely
// re-enqueue. Write B(p) = free + F(p) for the budget of a waiting job of
// priority p, F(p) being what placeable's walk counts; a job acts in submit
// iff B(prio) ≥ need. F is monotone in p, so when a bucket's head fails the
// test every job behind it (same need, no higher priority) fails it too. And
// B never grows while every job the pass touches starts: a start that needed
// shrinks takes all of free, a start that did not takes its allocation, and a
// job started with a zero rescale gap adds to F less than it took. So a
// bucket whose head fails is dead for the rest of the pass, and the drain
// loop's submissions that do anything are exactly: best head among the live
// buckets, while one is placeable.
//
// A popped job that does not end up running (the actuator refused, or the
// cost/benefit gate vetoed the shrinks it needed) may have left shrunk jobs
// behind, so B grew; the drain loop finishes the pass for the jobs ordered
// after it.
func (s *Scheduler) placeWaiting() {
	s.queue.revive()
	for {
		bi := s.queue.best(s.free+s.maxFreeable(), true)
		if bi < 0 {
			return
		}
		b := &s.queue.buckets[bi]
		if !s.placeable(b.jobs[0], b.need) {
			b.dead = true
			continue
		}
		j := s.queue.pop(bi)
		s.submit(j)
		if j.State != StateRunning {
			s.drainResubmit(j)
			return
		}
	}
}

// drainResubmit is the reference scheduling loop: drain the wait queue in
// priority order and re-place, through the Figure 2 submission logic, every
// job ordered after the cursor (every job when after is nil; the jobs up to
// and including the cursor go straight back). Once no remaining waiting job
// could start even if every running job were shrunk to its minimum (or
// preempted outright), the rest of the backlog is re-queued wholesale instead
// of being re-submitted one by one — each of those submits would only have
// put its job back, which is neither a decision nor a log entry.
func (s *Scheduler) drainResubmit(after *Job) {
	drained := s.queue.drainSorted()
	rest := drained
	if after != nil {
		at := sort.Search(len(drained), func(k int) bool { return s.before(after, drained[k]) })
		s.queue.bulkAdd(drained[:at])
		rest = drained[at:]
	}
	// needs[i] = smallest slot requirement among rest[i:].
	needs := s.needScratch[:0]
	for range rest {
		needs = append(needs, 0)
	}
	s.needScratch = needs
	for i := len(rest) - 1; i >= 0; i-- {
		n := s.jobNeed(rest[i])
		if i+1 < len(rest) && needs[i+1] < n {
			n = needs[i+1]
		}
		needs[i] = n
	}
	for i, j := range rest {
		if s.free+s.maxFreeable() < needs[i] {
			s.queue.bulkAdd(rest[i:])
			break
		}
		s.submit(j)
	}
	clear(drained)
}

// maxFreeable is an upper bound on the worker slots a submission could free
// from the running set: every job shrunk to its policy minimum, or — with
// preemption enabled — stopped outright. Both forms follow in O(1) from the
// capacity invariant (free + Σ Replicas + overhead×NumRunning = Capacity)
// and the incrementally maintained runMinSum.
func (s *Scheduler) maxFreeable() int {
	if s.cfg.EnablePreemption {
		// Σ (Replicas + overhead) = Capacity − free.
		return s.cfg.Capacity - s.free
	}
	// Σ (Replicas − jmin) = Capacity − free − overhead×n − Σ jmin.
	return s.cfg.Capacity - s.free - s.cfg.JobOverheadSlots*len(s.running) - s.runMinSum
}

// NextGapExpiry returns the earliest future instant at which a rescale that
// is currently blocked only by T_rescale_gap becomes possible: an expansion
// of a below-max running job into free slots, or a shrink of an above-min
// running job on behalf of a queued job. ok is false when no such moment
// exists (nothing blocked, or the policy never rescales).
func (s *Scheduler) NextGapExpiry() (at time.Time, ok bool) {
	if s.cfg.RescaleGap == time.Duration(math.MaxInt64) {
		return time.Time{}, false // moldable: gaps never expire
	}
	s.refresh()
	for _, j := range s.running {
		minR, maxR := s.bounds(j)
		expandable := s.free > 0 && j.Replicas < maxR
		shrinkable := s.queue.Len() > 0 && j.Replicas > minR
		if !expandable && !shrinkable {
			continue
		}
		if s.gapOK(j) {
			continue // not gap-blocked; a plain Kick already had its chance
		}
		exp := j.LastAction.Add(s.cfg.RescaleGap)
		if exp.After(s.tnow) && (!ok || exp.Before(at)) {
			at, ok = exp, true
		}
	}
	return at, ok
}

// redistribute walks all running and queued jobs in decreasing priority
// order, growing each below-max job as far as free slots allow (Figure 3).
// The running snapshot and the queue's buckets are merged lazily. Free slots
// only fall during the pass, so under out-of-order allocation a bucket whose
// need exceeds them can never place a job and is not looked at; StrictFCFS
// looks at the overall queue head and stops there when it does not fit.
//
// Two early-outs make the pass incremental (FullRedistribute disables
// both; both are decision-transparent, see the equivalence tests):
//
//   - free ≤ 0: the Figure 3 loop cannot expand or start anything.
//   - clean: the previous pass ran to completion, nothing mutated since,
//     and no rescale gap that blocked an expansion has expired yet
//     (cleanUntil) — re-running it would replay the identical no-op scan.
func (s *Scheduler) redistribute() {
	if !s.cfg.FullRedistribute {
		if s.free <= 0 {
			s.clean = true
			s.cleanUntilNs = 0
			return
		}
		if s.clean && (s.cleanUntilNs == 0 || s.tnowNs < s.cleanUntilNs) {
			return
		}
	}
	if s.cfg.AgingRate > 0 && (s.cfg.EnablePreemption || s.capStats.Requeues > 0) {
		// Preempted jobs do not age while queued jobs do, so a mixed
		// backlog's relative order can drift; restore the heap invariant.
		// Capacity reclaims requeue jobs even with preemption disabled.
		s.queue.init()
	}
	run := append(s.runScratch[:0], s.running...)
	s.runScratch = run
	overhead := s.cfg.JobOverheadSlots
	// refused collects queue jobs whose start the actuator refused; they go
	// back once the pass is over.
	refused := s.refusedScratch[:0]
	// Track what could invalidate a clean skip of the next pass: the
	// earliest gap expiry among blocked expansions (Unix ns, 0 = none),
	// and whether any actuation failed (an external actuator might accept
	// a retry).
	var blockedExpiryNs int64
	attemptFailed := false
	ri := 0
	// bi is the queue's candidate bucket, recomputed whenever free or the
	// queue changed.
	bi, stale := -1, true
	for s.free > 0 {
		if stale {
			limit := s.free
			if s.cfg.StrictFCFS {
				limit = maxSlotNeed
			}
			bi, stale = s.queue.best(limit, false), false
		}
		if bi < 0 && ri >= len(run) {
			break
		}
		if bi < 0 || ri < len(run) && !s.before(s.queue.head(bi), run[ri]) {
			j := run[ri]
			ri++
			jmin, jmax := s.bounds(j)
			if !s.gapOK(j) {
				if j.Replicas < jmax && s.gapNs != math.MaxInt64 {
					if exp := j.lastActionNs + s.gapNs; blockedExpiryNs == 0 || exp < blockedExpiryNs {
						blockedExpiryNs = exp
					}
				}
				continue
			}
			if j.Replicas < jmax {
				add := jmax - j.Replicas
				if add > s.free {
					add = s.free
				}
				if j.Replicas+add >= jmin && add > 0 {
					if s.expand(j, j.Replicas+add) {
						stale = true
					} else {
						attemptFailed = true
					}
				}
			}
			continue
		}
		if s.queue.buckets[bi].need > s.free {
			break // StrictFCFS: no backfilling past the queue head
		}
		j := s.queue.pop(bi)
		stale = true
		_, jmax := s.bounds(j)
		replicas := s.free - overhead
		if replicas > jmax {
			replicas = jmax
		}
		if !s.start(j, replicas) {
			attemptFailed = true
			refused = append(refused, j)
		}
	}
	for _, j := range refused {
		s.queue.push(j)
	}
	clear(refused)
	s.refusedScratch = refused[:0]
	clear(run)
	s.runScratch = run[:0]
	// The pass is now a fixed point of the current state: mark it clean so
	// identical follow-up passes can skip. Aging drifts queue priorities
	// with time and a cost/benefit gate consults time-varying progress, so
	// neither configuration can be skipped safely; a failed actuation may
	// succeed on retry (external actuators), so those passes stay dirty
	// too.
	if !attemptFailed && s.cfg.AgingRate == 0 && s.cfg.CostBenefit == nil {
		s.clean = true
		s.cleanUntilNs = blockedExpiryNs
	}
}
