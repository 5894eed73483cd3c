package sim

import (
	"elastichpc/internal/core"
	"elastichpc/internal/workload"
)

// The sharded mode's merge must reproduce the sequential Result bit for
// bit, and floating-point addition is not associative: summing each shard's
// partial utilization integral would round differently from the sequential
// left-to-right fold. The merge therefore never adds partial sums across an
// arbitrary grouping. Instead every order-sensitive accumulator is folded at
// two levels, in BOTH execution modes: the event loop adds each term to a
// running sub-accumulator, and whenever the cluster fully drains (no job
// running, none queued — the only instants a shard cut can be adopted at)
// the sub-accumulator is *sealed*: folded into the run total and reset to
// zero. A sealed value is a pure function of the decision sequence since the
// previous drain, and a drained cut never splits a sub-run, so an adopted
// epoch produces exactly the seal values the sequential loop produces over
// the same windows. The merge then replays the per-segment seal logs — a
// handful of float64s per drain, not a term per event — in segment order
// into one continuous fold, bit-identical to the sequential two-level fold.
// Integer counters and float min/max (first start, last end) are exact under
// any grouping and merge directly.
//
// This is also what makes the shard path allocation-lean: logging every
// nonzero utilization increment, finish term, and overhead area is O(events)
// float64s per epoch (~40× the sequential footprint on the scaling
// benchmark); the seal log is O(drains), which the epoch planner already
// requires to be dense for sharding to pay at all.

// sealTerm is one drained instant's contribution to each order-sensitive
// accumulator: the sub-run totals folded at the seal.
type sealTerm struct {
	util   float64 // utilization integral (UsedSlotSec numerator)
	w      float64 // priority-weight sum
	wr, wc float64 // weighted response / completion sums
	ovh    float64 // overhead area (replica-seconds frozen by rescales)
	lost   float64 // forced-rescale share of ovh (WorkLostSec)
}

// runLog records a segment's seal sequence for the replay merge.
type runLog struct {
	seals []sealTerm
}

// seal folds the open sub-accumulators into the run totals and resets them —
// called at every drained instant, in the sequential and sharded modes
// alike, so both fold the same terms in the same grouping. With a recording
// log attached (sharded segments), the seal is also appended for the merge
// to replay.
func (s *Simulator) seal() {
	t := sealTerm{
		util: s.utilSub, w: s.finWSub, wr: s.finRespSub, wc: s.finCompSub,
		ovh: s.ovhSub, lost: s.lostSub,
	}
	s.utilArea += t.util
	s.wSum += t.w
	s.wResp += t.wr
	s.wComp += t.wc
	s.overheadArea += t.ovh
	s.workLost += t.lost
	s.utilSub, s.finWSub, s.finRespSub, s.finCompSub = 0, 0, 0, 0
	s.ovhSub, s.lostSub = 0, 0
	if s.rec != nil {
		s.rec.seals = append(s.rec.seals, t)
	}
}

// mergeSegments folds the reconciled segments — each a simulator that ran a
// half-open stretch of the timeline bounded by fully drained instants —
// into the facade simulator's accumulators and derives the Result. Segment
// order is epoch order, so the seal replay is the sequential fold.
func (s *Simulator) mergeSegments(w workload.Workload, segs []*Simulator) (Result, error) {
	var cs core.CapacityStats
	for _, sg := range segs {
		for _, t := range sg.rec.seals {
			s.utilArea += t.util
			s.wSum += t.w
			s.wResp += t.wr
			s.wComp += t.wc
			s.overheadArea += t.ovh
			s.workLost += t.lost
		}
		s.completed += sg.completed
		// Events: what the segment popped, plus what an adopted boundary
		// left parked in its heap — superseded kicks and stale completions
		// past the horizon, which the sequential loop pops (and counts) on
		// its way to the next epoch's events. The final segment drains its
		// heap, so the term is zero there.
		s.processed += sg.processed + sg.events.len()
		if sg.haveStart && (!s.haveStart || sg.firstStart < s.firstStart) {
			s.haveStart = true
			s.firstStart = sg.firstStart
		}
		if sg.lastEnd > s.lastEnd {
			s.lastEnd = sg.lastEnd
		}
		s.capEvents += sg.capEvents
		s.capSteps = append(s.capSteps, sg.capSteps...)
		st := sg.sched.CapacityStats()
		cs.ForcedShrinks += st.ForcedShrinks
		cs.Requeues += st.Requeues
		cs.SlotsReclaimed += st.SlotsReclaimed
	}
	// Unsealed tails: every non-final segment ends at an adopted boundary
	// (drained, so freshly sealed — its open subs are exactly zero), and the
	// final segment's last completion drains the cluster too. The final
	// segment's subs are still carried over so the derivation below matches
	// the sequential run's final fold position even in degenerate cases.
	last := segs[len(segs)-1]
	s.utilSub, s.finWSub, s.finRespSub, s.finCompSub = last.utilSub, last.finWSub, last.finRespSub, last.finCompSub
	s.ovhSub, s.lostSub = last.ovhSub, last.lostSub
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
	res := s.resultFromTotals(cs, last.sched.Capacity())
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
