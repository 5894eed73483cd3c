package sim

import (
	"elastichpc/internal/core"
	"elastichpc/internal/workload"
)

// The sharded mode's merge must reproduce the sequential Result bit for bit,
// and floating-point addition is not associative: summing each shard's
// partial utilization integral would round differently from the sequential
// left-to-right fold. So the merge never adds partial sums. The run's Ledger
// folds every order-sensitive sum at two levels in both execution modes and
// seals it at every instant the cluster fully drains (no job running, none
// queued) — the only instants a shard cut can be adopted at. A drained cut
// never splits a sub-run, so an adopted epoch seals exactly the values the
// sequential loop seals over the same window, and replaying the epochs' seal
// logs in order is the sequential fold. Integer counters and float min/max
// (first start, last end) are exact under any grouping.
//
// The seal log is also what keeps the shard path allocation-lean: a term per
// event is O(events) float64s an epoch (~40× the sequential footprint on the
// scaling benchmark); a seal per drain is O(drains), which the epoch planner
// already requires to be dense for sharding to pay at all.

// mergeSegments folds the reconciled segments — each a simulator that ran a
// half-open stretch of the timeline bounded by fully drained instants — into
// the facade simulator's ledger and derives the Result. The first segment is
// always epoch 0, whose fold starts from zero like the sequential loop's, so
// its ledger is the merged one's prefix as it stands; every later segment's
// seal log replays onto it in epoch order, which is the sequential fold.
func (s *Simulator) mergeSegments(w workload.Workload, segs []*Simulator) (Result, error) {
	s.ledger = segs[0].ledger
	var cs core.CapacityStats
	for i, sg := range segs {
		if i > 0 {
			s.ledger.replay(&sg.ledger)
		}
		s.completed += sg.completed
		// Events: what the segment popped, plus what an adopted boundary
		// left parked in its heap — superseded kicks and stale completions
		// past the horizon, which the sequential loop pops (and counts) on
		// its way to the next epoch's events. The final segment drains its
		// heap, so the term is zero there.
		s.processed += sg.processed + sg.events.len()
		st := sg.sched.CapacityStats()
		cs.ForcedShrinks += st.ForcedShrinks
		cs.Requeues += st.Requeues
		cs.SlotsReclaimed += st.SlotsReclaimed
	}
	last := segs[len(segs)-1]
	if s.cfg.LogDecisions {
		logs := make([][]core.Decision, len(segs))
		for i, sg := range segs {
			logs[i] = sg.sched.Log()
		}
		s.mergedDecisions = core.MergeLogs(logs...)
	}
	if s.completed != len(w.Jobs) {
		return Result{Policy: s.cfg.Policy}, unfinished(s.completed, len(w.Jobs), segs...)
	}
	res := s.ledger.Result(s.cfg.Policy, s.cfg.Capacity, 0, cs, last.sched.Capacity())
	if !s.cfg.Streaming {
		// Every job lives entirely inside one segment (segments are
		// bounded by drained instants), so the retained records merge by
		// concatenation in segment order.
		retainedRecords(&res, len(w.Jobs), segs...)
		for _, sg := range segs {
			res.UtilTimeline = append(res.UtilTimeline, sg.utilTL...)
		}
	}
	return res, nil
}
