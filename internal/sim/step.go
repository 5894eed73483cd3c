package sim

import (
	"fmt"
	"math"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// This file is the simulator's stepping API — the co-simulation surface the
// federation rebalancer drives. A batch run (Simulator.Run) owns the whole
// timeline at once: it is Begin followed by Finish, with no StepTo between. A
// stepped run advances the same event loop in bounded windows (Begin →
// StepTo… → Finish) and, between windows, lets an external coordinator
// inspect the waiting queue and move jobs in and out (QueuedJobs / Withdraw /
// Inject / Preempt / Kick).
//
// Determinism contract: a stepped run is a pure function of (Config,
// workload, the sequence of StepTo instants, and the mutations applied
// between them). The event loop itself is untouched — windowing reuses the
// sharded mode's prepare/extend machinery, and events are still processed in
// the exact (time, kind, order) sequence of the batch loop. StepTo moves the
// clock without folding the open utilization term, so the integral's term
// boundaries are the state changes alone, wherever the windows fall: an
// unmutated stepped run is the batch run bit for bit (the conformance
// matrix's "stepped" candidate pins it).

// MigratedJob is a job in flight between federation members: everything a
// receiving simulator needs to resume it. Checkpointed jobs carry their
// completed iterations and pay restart+restore on their next start, exactly
// as a locally checkpoint-preempted job would.
type MigratedJob struct {
	Spec      workload.JobSpec
	ItersDone float64
	// Checkpointed marks a job that had started (and was checkpointed)
	// before leaving its donor.
	Checkpointed bool
	// ForcedOut carries the donor's pending forced-restart attribution: the
	// job was evicted by a capacity reclaim, so its restart overhead counts
	// as work lost wherever it resumes.
	ForcedOut bool
	// Started/StartAt preserve the job's first-ever start for honest
	// response-time metrics on the receiving member.
	Started bool
	StartAt float64
}

// QueuedJob is a read-only projection of one waiting job, keyed by its slab
// Ref for Withdraw.
type QueuedJob struct {
	Ref         int32
	ID          string
	Class       model.Class
	Priority    int
	SubmitAt    float64
	MinReplicas int
	// Checkpointed reports whether the job has run before (it would migrate
	// with a checkpoint and pay restart+restore wherever it resumes).
	Checkpointed bool
}

// Begin installs the workload with an empty window: no events are processed
// until the first StepTo, or Finish. Sharded execution (Config.Shards, set
// or automatic) does not apply; the window machinery below is the sequential
// loop's.
func (s *Simulator) Begin(w workload.Workload) error {
	if err := s.cfg.Availability.Validate(); err != nil {
		return err
	}
	jobs, widxs := submissionView(w)
	s.prepare(jobs, widxs, model.Specs(), 0, 0, window{})
	return nil
}

// StepTo advances the simulation to instant t, processing every submission,
// capacity event, and heap event strictly before t, then moves the clock to
// exactly t. Events at t itself belong to the next window, so a coordinator
// acting at t always observes the state "just before t". The utilization term
// open at t stays open: the next state change — an event, or a mutation the
// coordinator applies at t — folds it exactly where the batch loop would.
func (s *Simulator) StepTo(t float64) error {
	capHi := s.capHi
	ev := s.cfg.Availability.Events
	for capHi < len(ev) && ev[capHi].At < t {
		capHi++
	}
	s.extend(window{subHi: s.submittedBefore(t), capHi: capHi, horizon: t})
	if err := s.runWindow(); err != nil {
		return err
	}
	if t > s.now {
		s.now = t
	}
	return nil
}

// submittedBefore is the submission window's far edge for a step to t: the
// index past the last submission strictly before t.
func (s *Simulator) submittedBefore(t float64) int {
	subHi := s.subHi
	for subHi < len(s.jobs) && s.jobs[subHi].SubmitAt < t {
		subHi++
	}
	return subHi
}

// DueBefore estimates the events StepTo(t) will process: the submissions
// before t not yet ingested plus the armed heap events before t (stale ones
// included). It is an estimate — processing an event can arm more — meant for
// a coordinator deciding whether a round is worth stepping in parallel;
// nothing a run computes may depend on it.
func (s *Simulator) DueBefore(t float64) int {
	due := s.submittedBefore(t) - s.cursor
	for _, k := range s.events.keys {
		if k.at < t {
			due++
		}
	}
	return due
}

// Finish opens the window over everything that remains, drains the timeline
// and collects the result. Straight after Begin that is the whole batch run.
func (s *Simulator) Finish() (Result, error) {
	s.extend(window{subHi: len(s.jobs), capHi: len(s.cfg.Availability.Events), horizon: math.Inf(1), final: true})
	if err := s.runWindow(); err != nil {
		return Result{}, err
	}
	return s.collect()
}

// Drained reports whether every submission has been ingested and no job is
// running or waiting — nothing remains but (droppable) stale heap events.
func (s *Simulator) Drained() bool {
	return s.cursor >= len(s.jobs) && s.sched.NumRunning() == 0 && s.sched.NumQueued() == 0
}

// Idle reports whether no job is running or waiting right now (submissions
// may still be pending — see NextSubmitAt).
func (s *Simulator) Idle() bool {
	return s.sched.NumRunning() == 0 && s.sched.NumQueued() == 0
}

// NextSubmitAt returns the submission instant of the next job the stepped
// run has not ingested yet, if any.
func (s *Simulator) NextSubmitAt() (float64, bool) {
	if s.cursor >= len(s.jobs) {
		return 0, false
	}
	return s.jobs[s.cursor].SubmitAt, true
}

// Processed returns the cumulative count of events processed — the
// coordinator's progress signal for stall detection, and after Run the run's
// event count: the same number however many epochs the run was sharded into.
func (s *Simulator) Processed() int { return s.processed }

// CurrentCapacity is the scheduler's slot capacity right now (after every
// applied availability event).
func (s *Simulator) CurrentCapacity() int { return s.sched.Capacity() }

// UsedSlots is the running jobs' total allocation right now.
func (s *Simulator) UsedSlots() int { return s.sched.Capacity() - s.sched.FreeSlots() }

// QueuedJobs snapshots the waiting queue (queued and checkpoint-preempted
// jobs) in the scheduler's internal layout — bucket order (ascending slot
// need), then heap order within a bucket. That is deterministic for a
// deterministic run, but not sorted, and it changes whenever the queue's
// implementation does: coordinators impose their own order on anything
// order-sensitive, float sums included.
func (s *Simulator) QueuedJobs() []QueuedJob {
	return s.AppendQueuedJobs(make([]QueuedJob, 0, s.sched.NumQueued()))
}

// AppendQueuedJobs is QueuedJobs into a caller-owned buffer: a coordinator
// that snapshots every few rounds reuses one.
func (s *Simulator) AppendQueuedJobs(dst []QueuedJob) []QueuedJob {
	s.sched.VisitQueued(func(j *core.Job) bool {
		sj := s.byRef[j.Ref]
		dst = append(dst, QueuedJob{
			Ref:          j.Ref,
			ID:           j.ID,
			Class:        s.cold[j.Ref].Class,
			Priority:     j.Priority,
			SubmitAt:     sj.submitAt,
			MinReplicas:  j.MinReplicas,
			Checkpointed: sj.started || j.State == core.StatePreempted || sj.migratedCkpt,
		})
		return true
	})
	return dst
}

// QueuedByClass counts the waiting jobs of each class — all a backlog
// estimate needs. A job's Tag is its class, so this reads the wait queue's
// per-tag counters: O(classes), whatever the queue's length.
func (s *Simulator) QueuedByClass() (n [model.XLarge + 1]int) {
	for c := range n {
		n[c] = s.sched.NumQueuedTagged(uint8(c))
	}
	return n
}

// Withdraw removes a waiting job from this simulator, returning the
// migration record a receiving member's Inject consumes. Only queued or
// checkpoint-preempted jobs can be withdrawn.
func (s *Simulator) Withdraw(ref int32) (MigratedJob, error) {
	if ref < 0 || int(ref) >= len(s.byRef) {
		return MigratedJob{}, fmt.Errorf("sim: withdraw: ref %d out of range", ref)
	}
	sj := s.byRef[ref]
	c := &s.cold[ref]
	mj := MigratedJob{
		Spec: workload.JobSpec{
			ID:       c.ID,
			Class:    c.Class,
			Priority: c.Priority,
			SubmitAt: sj.submitAt,
		},
		ItersDone:    sj.prog.Done,
		Checkpointed: sj.started || sj.job.State == core.StatePreempted || sj.migratedCkpt,
		ForcedOut:    sj.forcedOut,
		Started:      sj.started,
		StartAt:      sj.startAt,
	}
	if err := s.sched.Withdraw(&sj.job); err != nil {
		return MigratedJob{}, err
	}
	// A waiting job has no live heap events, but bump seq anyway so a
	// recycled slot can never resurrect a stale one.
	sj.seq++
	sj.forcedOut = false
	sj.migratedCkpt = false
	s.withdrawn++
	s.freeJobs = append(s.freeJobs, sj)
	return mj, nil
}

// Inject submits a migrated job to this simulator at the current clock. The
// job keeps its original submission time (response/completion metrics stay
// honest) and, when checkpointed, pays restart+restore on its next start.
// Begin must have been called first. Returns the slab Ref the job now has on
// this simulator.
func (s *Simulator) Inject(mj MigratedJob) (int32, error) {
	spec, ok := s.specs[mj.Spec.Class]
	if !ok {
		return 0, fmt.Errorf("sim: inject %s: unknown class %v", mj.Spec.ID, mj.Spec.Class)
	}
	if spec.MinReplicas > s.cfg.Capacity {
		return 0, fmt.Errorf("sim: inject %s: min replicas %d exceed capacity %d",
			mj.Spec.ID, spec.MinReplicas, s.cfg.Capacity)
	}
	js := mj.Spec
	sj := s.newSimJob(&js, spec, -1)
	sj.prog.Done = mj.ItersDone
	sj.prog.Last = s.now
	sj.migratedCkpt = mj.Checkpointed
	sj.forcedOut = mj.ForcedOut && mj.Checkpointed
	if mj.Started {
		sj.started = true
		sj.startAt = mj.StartAt
		// The job's first start happened on its donor; fold it into this
		// member's experiment window so the fleet window stays exact.
		s.ledger.Started(mj.StartAt)
	}
	s.injected++
	if err := s.sched.Submit(&sj.job); err != nil {
		return 0, err
	}
	s.scheduleKick()
	return sj.ref, nil
}

// Preempt forcibly reclaims up to slots worker slots from running jobs
// (core.Scheduler.Preempt lifted to the stepping API): victims are shrunk,
// then checkpoint-requeued lowest priority first, and land in QueuedJobs
// ready to migrate. Returns the slots actually freed.
func (s *Simulator) Preempt(slots int) int {
	return s.sched.Preempt(slots)
}

// Kick forces a scheduling pass at the current instant — the coordinator
// calls it after a batch of migrations so donors refill their freed slots
// immediately — and re-arms the simulator's gap kick.
func (s *Simulator) Kick() {
	s.sched.Reschedule()
	s.scheduleKick()
}
