package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// refScheduler is the paper's policy read literally: Figure 2 for a
// submission, Figure 3 for every pass that hands out freed slots, and the
// capacity reclaim of capacity.go, over plain slices. It re-sorts whatever it
// walks on every pass and keeps no bound, bucket or cache, so it shares no
// code with Scheduler beyond the Job, Decision and Actuator types: it reads
// only a job's exported fields (Priority, SubmitTime, ID and LastAction for
// the order and the rescale gap) and drives the same Actuator with the same
// calls. The oracle in refusal_test.go holds Scheduler to it.
type refScheduler struct {
	policy   Policy
	capacity int
	gap      time.Duration // math.MaxInt64: never rescale (moldable)
	act      Actuator
	now      func() time.Time

	free       int
	running    []*Job
	queue      []*Job
	log        []Decision
	stats      CapacityStats
	reclaiming bool
}

func newRefScheduler(cfg Config, act Actuator, now func() time.Time) *refScheduler {
	gap := cfg.RescaleGap
	if cfg.Policy == Moldable {
		gap = math.MaxInt64 // elastic that never rescales (§4.3.2)
	}
	return &refScheduler{policy: cfg.Policy, capacity: cfg.Capacity, gap: gap, act: act, now: now, free: cfg.Capacity}
}

// refSorted returns a copy of jobs in scheduling order: decreasing priority,
// then earlier submission, then ID.
func refSorted(jobs []*Job) []*Job {
	out := slices.Clone(jobs)
	slices.SortFunc(out, func(a, b *Job) int {
		if a.Priority != b.Priority {
			return b.Priority - a.Priority
		}
		if c := a.SubmitTime.Compare(b.SubmitTime); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// lowestFirst is the running set in increasing priority order: the order
// Figure 2 looks for slots to take and a reclaim picks its victims in.
func (r *refScheduler) lowestFirst() []*Job {
	jobs := refSorted(r.running)
	slices.Reverse(jobs)
	return jobs
}

func (r *refScheduler) bounds(j *Job) (minR, maxR int) {
	switch r.policy {
	case RigidMin:
		return j.MinReplicas, j.MinReplicas
	case RigidMax:
		return j.MaxReplicas, j.MaxReplicas
	}
	return j.MinReplicas, j.MaxReplicas
}

// gapOK is the pseudocode's `currentTime() - j.lastAction < rescaleGap →
// continue`, negated; a job never acted on is always eligible.
func (r *refScheduler) gapOK(j *Job) bool {
	if j.LastAction.IsZero() {
		return true
	}
	return r.gap != math.MaxInt64 && r.now().Sub(j.LastAction) >= r.gap
}

func (r *refScheduler) record(kind DecisionKind, id string, replicas int) {
	r.log = append(r.log, Decision{AtNs: r.now().UnixNano(), Kind: kind, JobID: id, Replicas: int32(replicas), FreeSlots: int32(r.free)})
}

func without(jobs []*Job, j *Job) []*Job {
	return slices.DeleteFunc(jobs, func(x *Job) bool { return x == j })
}

func (r *refScheduler) start(j *Job, replicas int) bool {
	if r.act.StartJob(j, replicas) != nil {
		return false
	}
	j.State, j.Replicas, j.LastAction = StateRunning, replicas, r.now()
	if j.StartTime.IsZero() {
		j.StartTime = r.now()
	}
	r.free -= replicas
	r.running = append(r.running, j)
	r.record(DecisionStart, j.ID, replicas)
	return true
}

func (r *refScheduler) resize(j *Job, to int) bool {
	kind, call := DecisionShrink, r.act.ShrinkJob
	if to > j.Replicas {
		kind, call = DecisionExpand, r.act.ExpandJob
	}
	if call(j, to) != nil {
		return false
	}
	r.free += j.Replicas - to
	j.Replicas, j.LastAction = to, r.now()
	j.Rescales++
	r.record(kind, j.ID, to)
	return true
}

func (r *refScheduler) enqueue(j *Job) {
	j.State = StateQueued
	r.queue = append(r.queue, j)
}

func (r *refScheduler) Submit(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.SubmitTime.IsZero() {
		j.SubmitTime = r.now()
	}
	r.submit(j)
	if j.State == StateQueued {
		r.record(DecisionEnqueue, j.ID, 0)
	}
	return nil
}

// submit is Figure 2: start the job with what is free, or — when that is
// below its minimum — count what shrinking lower-priority jobs outside their
// rescale gap could free, and if that covers the minimum, shrink them (lowest
// priority first) towards the job's maximum and start it.
func (r *refScheduler) submit(job *Job) {
	minR, maxR := r.bounds(job)
	if replicas := min(r.free, maxR); replicas >= minR {
		if !r.start(job, replicas) {
			r.enqueue(job)
		}
		return
	}
	victims := r.lowestFirst()
	numToFree := minR - r.free
	for _, j := range victims {
		if numToFree <= 0 {
			break
		}
		if !r.gapOK(j) {
			continue
		}
		if j.Priority > job.Priority {
			break
		}
		if jmin, _ := r.bounds(j); j.Replicas > jmin {
			numToFree -= j.Replicas - jmin
		}
	}
	if numToFree > 0 {
		r.enqueue(job)
		return
	}
	minToFree, maxToFree := minR-r.free, maxR-r.free
	for _, j := range victims {
		if maxToFree <= 0 {
			break
		}
		if !r.gapOK(j) {
			continue
		}
		if j.Priority > job.Priority {
			break
		}
		if jmin, _ := r.bounds(j); j.Replicas > jmin {
			to := max(j.Replicas-maxToFree, jmin)
			freed := j.Replicas - to
			if r.resize(j, to) {
				minToFree -= freed
				maxToFree -= freed
			}
		}
	}
	if minToFree > 0 {
		r.enqueue(job)
		return
	}
	if replicas := min(r.free, maxR); replicas < minR || !r.start(job, replicas) {
		r.enqueue(job)
	}
}

// redistribute is Figure 3: walk every running and waiting job in scheduling
// order while slots are free, growing each running job outside its rescale
// gap towards its maximum and starting each waiting job whose minimum fits.
func (r *refScheduler) redistribute() {
	for _, j := range refSorted(append(slices.Clone(r.running), r.queue...)) {
		if r.free <= 0 {
			return
		}
		jmin, jmax := r.bounds(j)
		switch {
		case j.State == StateRunning:
			if r.gapOK(j) && j.Replicas < jmax {
				r.resize(j, j.Replicas+min(jmax-j.Replicas, r.free))
			}
		case jmin <= r.free:
			if r.start(j, min(r.free, jmax)) {
				r.queue = without(r.queue, j)
			}
		}
	}
}

func (r *refScheduler) OnJobComplete(j *Job) {
	if j.State != StateRunning {
		return
	}
	j.State, j.EndTime = StateCompleted, r.now()
	r.running = without(r.running, j)
	r.free += j.Replicas
	j.Replicas = 0
	r.record(DecisionComplete, j.ID, 0)
	r.redistribute()
}

// shrinkable is what shrinking every running job to its minimum would free.
func (r *refScheduler) shrinkable() int {
	n := 0
	for _, j := range r.running {
		jmin, _ := r.bounds(j)
		n += j.Replicas - jmin
	}
	return n
}

// Reschedule re-submits the waiting jobs through Figure 2 in scheduling
// order, then runs Figure 3.
func (r *refScheduler) Reschedule() {
	waiting := refSorted(r.queue)
	for i, j := range waiting {
		need := math.MaxInt
		for _, w := range waiting[i:] {
			wmin, _ := r.bounds(w)
			need = min(need, wmin)
		}
		if r.free+r.shrinkable() < need {
			// No remaining job could start even with every running job
			// shrunk to its minimum: the rest stay where they are, and a
			// reclaim-requeued job among them keeps its StatePreempted
			// marker. A job that is re-submitted and still cannot start
			// goes back through enqueue as StateQueued — the re-submission
			// erases the marker even though the job never ran. That
			// asymmetry is the scheduler's today; both sides keep it.
			break
		}
		r.queue = without(r.queue, j)
		r.submit(j)
	}
	r.redistribute()
}

func (r *refScheduler) Withdraw(j *Job) error {
	if j.State != StateQueued && j.State != StatePreempted {
		return fmt.Errorf("core: withdraw %s: state %v, want Queued or Preempted", j.ID, j.State)
	}
	if !slices.Contains(r.queue, j) {
		return fmt.Errorf("core: withdraw %s: not in this scheduler's queue", j.ID)
	}
	r.queue = without(r.queue, j)
	j.State = StateWithdrawn
	r.record(DecisionWithdraw, j.ID, j.Replicas)
	return nil
}

// SetCapacity follows capacity.go's contract: growth is handed out by
// Figure 3; a loss takes free slots first, then reclaims the deficit. The
// capacity entry is logged with the free pool before the change.
func (r *refScheduler) SetCapacity(n int) error {
	if n < 1 {
		return fmt.Errorf("core: capacity %d < 1", n)
	}
	old := r.capacity
	if n == old {
		return nil
	}
	r.capacity = n
	r.record(DecisionCapacity, "", n)
	r.free += n - old
	if n < old && r.free < 0 {
		r.reclaim(-r.free)
		if r.free < 0 {
			return fmt.Errorf("core: capacity %d → %d: actuator refused every victim, %d slots over-committed",
				old, n, -r.free)
		}
	}
	if r.free > 0 {
		r.redistribute()
	}
	return nil
}

func (r *refScheduler) Preempt(slots int) int {
	if slots <= 0 {
		return 0
	}
	before := r.free
	r.reclaim(slots)
	return r.free - before
}

// reclaim frees need slots, lowest priority first, ignoring rescale gaps:
// shrink every victim towards its minimum, then checkpoint-requeue whole
// jobs, each pass stopping once the slots are free.
func (r *refScheduler) reclaim(need int) {
	r.reclaiming = true
	defer func() { r.reclaiming = false }()
	target := r.free + need
	for _, j := range r.lowestFirst() {
		if r.free >= target {
			break
		}
		jmin, _ := r.bounds(j)
		if j.Replicas <= jmin {
			continue
		}
		to := max(j.Replicas-(target-r.free), jmin)
		freed := j.Replicas - to
		if r.resize(j, to) {
			r.stats.ForcedShrinks++
			r.stats.SlotsReclaimed += freed
		}
	}
	for _, j := range r.lowestFirst() {
		if r.free >= target {
			break
		}
		if r.act.PreemptJob(j) != nil {
			continue
		}
		freed := j.Replicas
		r.free += freed
		j.State, j.Replicas, j.LastAction = StatePreempted, 0, r.now()
		r.running = without(r.running, j)
		r.queue = append(r.queue, j)
		r.record(DecisionPreempt, j.ID, 0)
		r.stats.Requeues++
		r.stats.SlotsReclaimed += freed
	}
}

// NextGapExpiry is the earliest future instant at which a running job that
// could expand into free slots, or shrink for a waiting job, leaves its
// rescale gap.
func (r *refScheduler) NextGapExpiry() (at time.Time, ok bool) {
	if r.gap == math.MaxInt64 {
		return time.Time{}, false
	}
	for _, j := range r.running {
		minR, maxR := r.bounds(j)
		if !(r.free > 0 && j.Replicas < maxR) && !(len(r.queue) > 0 && j.Replicas > minR) || r.gapOK(j) {
			continue
		}
		if exp := j.LastAction.Add(r.gap); exp.After(r.now()) && (!ok || exp.Before(at)) {
			at, ok = exp, true
		}
	}
	return at, ok
}
