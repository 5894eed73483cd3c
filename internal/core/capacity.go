package core

import "fmt"

// CapacityStats counts the scheduler's forced-reclaim actions — the
// resilience ledger behind the availability experiments: how many
// capacity-loss events each running job absorbed by shrinking in place
// versus being checkpointed back to the queue.
type CapacityStats struct {
	// ForcedShrinks counts jobs shrunk in place during capacity reclaims
	// (a preemption survived without losing the allocation).
	ForcedShrinks int
	// Requeues counts jobs checkpoint-stopped and returned to the queue
	// because shrinking could not absorb the capacity loss.
	Requeues int
	// SlotsReclaimed is the total worker slots taken back by reclaims.
	SlotsReclaimed int
}

// Capacity reports the scheduler's current total slot capacity.
func (s *Scheduler) Capacity() int { return s.cfg.Capacity }

// CapacityStats returns the forced-reclaim counters accumulated so far.
func (s *Scheduler) CapacityStats() CapacityStats { return s.capStats }

// Reclaiming reports whether the scheduler is inside a forced capacity
// reclaim (SetCapacity shrink or Preempt). Actuators use it to attribute a
// shrink's overhead to the availability event rather than to the policy.
func (s *Scheduler) Reclaiming() bool { return s.reclaiming }

// SetCapacity changes the cluster's total worker-slot capacity at the
// current clock instant — the entry point for availability events (node
// failures and repairs, spot preemptions, maintenance drains, capacity
// bursts).
//
// Growth adds the new slots to the free pool and redistributes them
// (Figure 3) exactly as a job completion would. Shrink removes free slots
// first; any remaining deficit is reclaimed from running jobs in increasing
// priority order: each victim is shrunk to its policy minimum, and — when
// shrinking every eligible job still cannot cover the deficit — victims are
// checkpoint-stopped and requeued outright, again lowest priority first.
// Forced reclaim models hardware that is already gone, so it bypasses the
// rescale gap that voluntary rescales respect.
//
// An actuator may refuse to shrink or preempt an individual victim (the
// rescale protocol is mid-flight, say); the reclaim then moves to the next
// victim. If every victim refuses and the deficit remains, SetCapacity
// returns an error with the accounting left consistent at the new capacity
// (free slots temporarily negative; the next completion absorbs the debt).
func (s *Scheduler) SetCapacity(n int) error {
	if n < 1 {
		return fmt.Errorf("core: capacity %d < 1", n)
	}
	old := s.cfg.Capacity
	if n == old {
		return nil
	}
	s.refresh()
	s.dirty()
	s.cfg.Capacity = n
	s.recordCapacity(n)
	if n > old {
		s.free += n - old
		s.redistribute()
		return nil
	}
	s.free -= old - n
	if s.free < 0 {
		s.reclaim(-s.free)
	}
	if s.free < 0 {
		return fmt.Errorf("core: capacity %d → %d: actuator refused every victim, %d slots over-committed",
			old, n, -s.free)
	}
	if s.free > 0 {
		// Requeueing a large victim can overshoot the deficit; hand the
		// surplus to whatever still fits (a smaller queued job, say).
		s.redistribute()
	}
	return nil
}

// Preempt forcibly reclaims up to slots worker slots from running jobs into
// the free pool, shrinking victims to their policy minimum in increasing
// priority order and checkpoint-requeueing them (lowest priority first) only
// once no lower-priority job can shrink further. It returns the number of
// slots actually freed, which may fall short when the cluster is empty or
// the actuator refuses. Like SetCapacity, Preempt bypasses the rescale gap:
// it models an external authority (an operator draining a node, a
// higher-tenancy scheduler) that needs the slots now.
func (s *Scheduler) Preempt(slots int) int {
	if slots <= 0 {
		return 0
	}
	s.refresh()
	before := s.free
	s.reclaim(slots)
	return s.free - before
}

// reclaim frees at least need worker slots from the running set: a shrink
// pass over every victim from the lowest priority upward, then a preempt
// pass requeueing whole jobs, also lowest first. Both passes stop as soon as
// the target is met. Victim order is the scheduling priority order inverted,
// so a higher-priority job is never touched while a lower-priority job still
// has slots to give — the invariant the availability property tests pin.
func (s *Scheduler) reclaim(need int) {
	s.reclaiming = true
	defer func() { s.reclaiming = false }()
	target := s.free + need // reclaim until s.free reaches this

	// Shrink pass: running is sorted in decreasing priority, so walk
	// backwards. Replicas move to the policy minimum, overriding the
	// rescale gap — the slots no longer exist.
	for i := len(s.running) - 1; i >= 0 && s.free < target; i-- {
		j := s.running[i]
		jmin, _ := s.bounds(j)
		if j.Replicas <= jmin {
			continue
		}
		to := j.Replicas - (target - s.free)
		if to < jmin {
			to = jmin
		}
		freed := j.Replicas - to
		if !s.shrink(j, to) {
			continue
		}
		s.capStats.ForcedShrinks++
		s.capStats.SlotsReclaimed += freed
	}

	// Preempt pass: checkpoint-stop whole jobs until the target is met.
	// Walking backwards stays safe across removals because removeRunning
	// deletes exactly the index we are standing on.
	for i := len(s.running) - 1; i >= 0 && s.free < target; i-- {
		j := s.running[i]
		freed := j.Replicas
		if !s.preempt(j) {
			continue
		}
		s.capStats.Requeues++
		s.capStats.SlotsReclaimed += freed
	}
}
