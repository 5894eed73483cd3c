package core

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// State is a job's lifecycle state.
type State int

// Job lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateCompleted
	StatePreempted
	// StateWithdrawn marks a job removed from this scheduler entirely — the
	// federation rebalancer's migration primitive. A withdrawn job is no
	// longer this scheduler's responsibility; it is typically re-submitted
	// to another member's scheduler.
	StateWithdrawn
)

// String returns the state's display name.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "Queued"
	case StateRunning:
		return "Running"
	case StateCompleted:
		return "Completed"
	case StatePreempted:
		return "Preempted"
	case StateWithdrawn:
		return "Withdrawn"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Job is the scheduler's view of one malleable job. MinReplicas and
// MaxReplicas bound the allocation (the CRD fields added in §3.2.1);
// Priority is user-defined with larger values scheduled first; ties are
// broken by earlier SubmitTime.
//
// Field order is deliberate: the comparator-hot fields (the comparison
// caches, IDRank, and the allocation bounds the placement loop reads) lead
// the struct so the sort and gap-check paths touch the first cache line or
// two, with the strings and time.Time records — visited only off the hot
// path — trailing. Construct Jobs with keyed literals.
type Job struct {
	// Comparison caches maintained by the scheduler: the base priority as
	// a float and the submit/last-action instants in Unix nanoseconds, so
	// the priority order and rescale-gap checks on the hot path are plain
	// arithmetic instead of time.Time method calls. submitNs is stamped by
	// Submit, lastActionNs wherever LastAction is set. (Virtual-clock
	// drivers carry no monotonic reading, so the nanosecond comparison is
	// exactly time.Time's.)
	prio         float64
	submitNs     int64
	lastActionNs int64

	// IDRank is an optional driver-assigned tie-break rank: among jobs with
	// equal SubmitTime it must be ordered exactly like ID (rank(a) < rank(b)
	// iff a.ID < b.ID). The final comparator tie-break then costs one integer
	// compare instead of a string compare. Two jobs with equal ranks fall
	// back to comparing IDs, so a zero rank is correct only where both jobs
	// are unranked: against a ranked job of the same instant, an unranked
	// one is ordered by the ranks, not by the IDs.
	IDRank int32

	// Ref is an opaque driver-owned handle. The scheduler never reads or
	// writes it; drivers that intern job identities (the simulator's slab
	// indices, the operator's managed-job table) store their int32 index
	// here so actuator callbacks resolve a *Job to driver state without a
	// string-keyed map lookup on the hot path.
	Ref int32

	// Tag is a small driver-owned label the wait queue counts its jobs by
	// (Scheduler.NumQueuedTagged): the simulator sets the job's class, so a
	// per-class backlog is a read of counters, not a walk of the queue. Set
	// it before Submit and leave it while the job is queued.
	Tag uint8

	Priority    int
	MinReplicas int
	MaxReplicas int

	// Managed by the scheduler.
	State    State
	Replicas int
	Rescales int // number of shrink/expand events applied to this job

	ID         string
	SubmitTime time.Time
	LastAction time.Time // last creation/shrink/expand event (rescale-gap anchor)
	StartTime  time.Time
	EndTime    time.Time
}

// Validate checks the job's static fields.
func (j *Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("core: job has no ID")
	}
	if j.MinReplicas < 1 {
		return fmt.Errorf("core: job %s: minReplicas %d < 1", j.ID, j.MinReplicas)
	}
	if j.MaxReplicas < j.MinReplicas {
		return fmt.Errorf("core: job %s: maxReplicas %d < minReplicas %d", j.ID, j.MaxReplicas, j.MinReplicas)
	}
	return nil
}

// ResponseTime is the submission→start latency (paper metric: "time between
// a job submission and start"). Zero if the job has not started.
func (j *Job) ResponseTime() time.Duration {
	if j.StartTime.IsZero() {
		return 0
	}
	return j.StartTime.Sub(j.SubmitTime)
}

// CompletionTime is the submission→completion latency. Zero if not finished.
func (j *Job) CompletionTime() time.Duration {
	if j.EndTime.IsZero() {
		return 0
	}
	return j.EndTime.Sub(j.SubmitTime)
}

// sortJobs sorts jobs in decreasing priority (Scheduler.before order). The
// stable merge sort is kept deliberately: drained backlogs are nearly sorted
// (a heapified sorted remainder plus a few fresh pushes), the regime where
// the merge's insertion runs approach O(n) while a quicksort still
// partitions. slices.SortStableFunc takes the comparator directly, so
// nothing is boxed or allocated per call. The closure spells the order out a
// second time (after before) because it pays: see before.
func (s *Scheduler) sortJobs(jobs []*Job) {
	slices.SortStableFunc(jobs, func(a, b *Job) int {
		switch {
		case a.prio > b.prio:
			return -1
		case a.prio < b.prio:
			return 1
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
	})
}
