package core

import "fmt"

// SchedulerState is a point-in-time snapshot of a scheduler: the capacity in
// force, the forced-reclaim counters, and value copies of every running and
// waiting job. It is plain data — no pointers into the scheduler — so a
// snapshot can be held across scheduler mutations, handed to another
// scheduler, or serialized by a service front-end.
//
// The simulator's sharded mode uses it to seed epoch-local schedulers with
// the capacity an availability trace has established at the epoch boundary.
type SchedulerState struct {
	// Capacity is the total worker-slot capacity in force (which may differ
	// from the construction-time capacity after SetCapacity calls).
	Capacity int
	// CapStats carries the forced-reclaim counters accumulated so far.
	CapStats CapacityStats
	// Running holds the running jobs in decreasing effective priority
	// order; Queued holds the waiting (queued and preempted) jobs in the
	// same order. Both are value copies.
	Running []Job
	Queued  []Job
}

// ExportState snapshots the scheduler's current state. The decision log is
// not part of the snapshot; retrieve it separately via Log.
func (s *Scheduler) ExportState() SchedulerState {
	var st SchedulerState
	s.ExportStateInto(&st)
	return st
}

// ExportStateInto snapshots the scheduler's current state into st, reusing
// st's Running and Queued backing arrays, so a caller that snapshots in a
// loop allocates nothing. st's previous contents are overwritten; an empty
// job set leaves a zero-length slice over whatever backing array st carried
// (nil in a fresh value).
func (s *Scheduler) ExportStateInto(st *SchedulerState) {
	s.refresh()
	st.Capacity = s.cfg.Capacity
	st.CapStats = s.capStats
	st.Running = st.Running[:0]
	for _, j := range s.running {
		st.Running = append(st.Running, *j)
	}
	st.Queued = st.Queued[:0]
	if s.queue.Len() > 0 {
		for _, j := range s.queue.sorted() {
			st.Queued = append(st.Queued, *j)
		}
	}
}

// restoreCaches rebuilds the comparison caches a snapshot does not carry
// (they are derivable from the exported fields).
func restoreCaches(j *Job) {
	j.prio = float64(j.Priority)
	j.submitNs = j.SubmitTime.UnixNano()
	if j.LastAction.IsZero() {
		j.lastActionNs = 0
	} else {
		j.lastActionNs = j.LastAction.UnixNano()
	}
}

// RestoreState replaces the scheduler's entire state with a snapshot: jobs,
// capacity, free-slot accounting, and reclaim counters. Fresh Job records
// are allocated (the snapshot stays untouched); drivers re-attach their
// per-job state through Job.Ref, which the snapshot preserves. No decisions
// are recorded and the decision log is left as it was — a restore models
// resuming from a checkpoint, not scheduling activity.
//
// The snapshot must be internally consistent: running jobs in state
// StateRunning with at least one replica, waiting jobs in StateQueued or
// StatePreempted with none, and the running allocations (plus per-job
// overhead) within Capacity. Violations return an error with the scheduler
// unchanged.
func (s *Scheduler) RestoreState(st SchedulerState) error {
	if st.Capacity < 1 {
		return fmt.Errorf("core: restore: capacity %d < 1", st.Capacity)
	}
	used := 0
	runMinSum := 0
	running := make([]*Job, len(st.Running))
	for i := range st.Running {
		j := new(Job)
		*j = st.Running[i]
		if err := j.Validate(); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		if j.State != StateRunning || j.Replicas < 1 {
			return fmt.Errorf("core: restore: running job %s in state %v with %d replicas",
				j.ID, j.State, j.Replicas)
		}
		restoreCaches(j)
		used += j.Replicas + s.cfg.JobOverheadSlots
		jmin, _ := s.bounds(j)
		runMinSum += jmin
		running[i] = j
	}
	if used > st.Capacity {
		return fmt.Errorf("core: restore: running set uses %d of %d slots", used, st.Capacity)
	}
	queued := make([]*Job, len(st.Queued))
	for i := range st.Queued {
		j := new(Job)
		*j = st.Queued[i]
		if err := j.Validate(); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		if j.State != StateQueued && j.State != StatePreempted {
			return fmt.Errorf("core: restore: waiting job %s in state %v", j.ID, j.State)
		}
		if j.Replicas != 0 {
			return fmt.Errorf("core: restore: waiting job %s holds %d replicas", j.ID, j.Replicas)
		}
		restoreCaches(j)
		queued[i] = j
	}

	s.cfg.Capacity = st.Capacity
	s.capStats = st.CapStats
	s.free = st.Capacity - used
	s.running = running
	s.sortJobs(s.running) // exported order is already sorted; re-sorting is cheap insurance
	s.runMinSum = runMinSum
	s.queue.reset()
	s.queue.bulkAdd(queued)
	s.clean = false
	s.cleanUntilNs = 0
	s.reclaiming = false
	return nil
}
