package sim

import "elastichpc/internal/core"

// Ledger is a run's accountant: both backends — this simulator and the
// Kubernetes emulation (internal/cluster) — fold into one the terms a
// Result's aggregates are made of, and Result is the one derivation of those
// aggregates. Each backend keeps its own clock and passes the exact float64
// term it measured, in the order it measured it.
//
// Every order-sensitive sum is folded at two levels: a term enters an open
// sub-accumulator, and seal — which the simulator calls whenever the cluster
// fully drains — folds the subs into the run totals and resets them, the
// grouping a sharded run's merge replays (merge.go). The emulation never
// seals: its subs hold the whole run, and Result folds them into totals that
// are still zero, which is the plain left-to-right fold (0 + x = x).
//
// The zero Ledger is ready to use. Result reads a copy, so a live backend can
// report mid-run without changing what it reports later.
type Ledger struct {
	// Run totals and their open subs: the utilization integral (allocated
	// slot-seconds), the priority-weight sum and the weighted response and
	// completion sums, the overhead area (replica-seconds frozen by every
	// rescale and restart) and the work lost (its forced share, plus what
	// the emulation's preempted jobs lose past their last checkpoint).
	utilArea, utilSub               float64
	wSum, wResp, wComp              float64
	finWSub, finRespSub, finCompSub float64
	overheadArea, ovhSub            float64
	workLost, lostSub               float64

	// The experiment window: the earliest first start and the latest end.
	// Both are exact under any grouping, so they merge by min and max.
	haveStart           bool
	firstStart, lastEnd float64

	// capSteps records each applied capacity change (Used = the new
	// capacity) for the delivered-capacity integral; its length is
	// CapacityEvents. It is bounded by the trace, so streaming runs keep it.
	capSteps []UtilSample

	// logSeals, set on a sharded run's epochs after the first, keeps every
	// seal's terms in seals for the merge to replay.
	logSeals bool
	seals    []sealTerm
}

// sealTerm is one drained instant's contribution to each order-sensitive
// total: the open subs folded at the seal.
type sealTerm struct {
	util   float64 // utilization integral (UsedSlotSec)
	w      float64 // priority-weight sum
	wr, wc float64 // weighted response / completion sums
	ovh    float64 // overhead area (replica-seconds frozen by rescales)
	lost   float64 // work lost (WorkLostSec)
}

// Use adds one term of the utilization integral: slots held × how long.
func (l *Ledger) Use(area float64) { l.utilSub += float64(area) }

// Started folds a job's first-ever start into the experiment window.
func (l *Ledger) Started(at float64) {
	if !l.haveStart || at < l.firstStart {
		l.haveStart = true
		l.firstStart = at
	}
}

// Finished folds a completed job: its priority weight, response and
// completion times, and the instant it ended.
func (l *Ledger) Finished(weight, resp, comp, at float64) {
	if at > l.lastEnd {
		l.lastEnd = at
	}
	l.finWSub += float64(weight)
	l.finRespSub += float64(weight * resp)
	l.finCompSub += float64(weight * comp)
}

// Overhead charges replica-seconds frozen by a rescale or a restart. A forced
// one — a capacity loss's doing, not the policy's choice — is work lost too.
func (l *Ledger) Overhead(area float64, forced bool) {
	l.ovhSub += float64(area)
	if forced {
		l.lostSub += float64(area)
	}
}

// Lost charges replica-seconds of work lost outside any overhead window.
func (l *Ledger) Lost(area float64) { l.lostSub += float64(area) }

// CapacityStep records a capacity change applied at the given instant.
func (l *Ledger) CapacityStep(at float64, capacity int) {
	l.capSteps = append(l.capSteps, UtilSample{At: at, Used: capacity})
}

// open is what the subs would seal to right now.
func (l *Ledger) open() sealTerm {
	return sealTerm{util: l.utilSub, w: l.finWSub, wr: l.finRespSub, wc: l.finCompSub,
		ovh: l.ovhSub, lost: l.lostSub}
}

// fold adds one seal's terms to the run totals.
func (l *Ledger) fold(t sealTerm) {
	l.utilArea += t.util
	l.wSum += t.w
	l.wResp += t.wr
	l.wComp += t.wc
	l.overheadArea += t.ovh
	l.workLost += t.lost
}

// seal folds the open subs into the run totals, resets them and, on a logging
// ledger, keeps the terms for a replay.
func (l *Ledger) seal() {
	t := l.open()
	l.fold(t)
	l.utilSub, l.finWSub, l.finRespSub, l.finCompSub = 0, 0, 0, 0
	l.ovhSub, l.lostSub = 0, 0
	if l.logSeals {
		l.seals = append(l.seals, t)
	}
}

// replay continues this ledger, which ends sealed at a drained instant, with
// next, the ledger of the stretch of timeline that follows: next's seal log
// folds into the totals in order, its open subs become these, the window
// widens over it and its capacity steps follow these.
func (l *Ledger) replay(next *Ledger) {
	for _, t := range next.seals {
		l.fold(t)
	}
	l.utilSub, l.finWSub, l.finRespSub, l.finCompSub = next.utilSub, next.finWSub, next.finRespSub, next.finCompSub
	l.ovhSub, l.lostSub = next.ovhSub, next.lostSub
	if next.haveStart {
		l.Started(next.firstStart)
	}
	if next.lastEnd > l.lastEnd {
		l.lastEnd = next.lastEnd
	}
	l.capSteps = append(l.capSteps, next.capSteps...)
}

// Result derives the aggregate metrics from the accumulated terms, folding
// the open subs on a copy: the ledger itself is left as it was. baseCap is
// the slot capacity before the first capacity step. Utilization is measured
// over [0, max(windowEnd, LastEnd)]: the simulator passes 0 — no work happens
// after the last completion — and the emulation the instant its pod
// accounting last moved, which teardown events carry a hair past it. cs and
// endCap are the owning scheduler's.
func (l *Ledger) Result(policy core.Policy, baseCap int, windowEnd float64, cs core.CapacityStats, endCap int) Result {
	t := *l
	t.fold(t.open())
	res := Result{
		Policy:         policy,
		TotalTime:      t.lastEnd - t.firstStart,
		FirstStart:     t.firstStart,
		LastEnd:        t.lastEnd,
		UsedSlotSec:    t.utilArea,
		WeightSum:      t.wSum,
		EndCapacity:    endCap,
		CapacityEvents: len(t.capSteps),
		ForcedShrinks:  cs.ForcedShrinks,
		Requeues:       cs.Requeues,
		WorkLostSec:    t.workLost,
		GoodputFrac:    1,
	}
	end := windowEnd
	if t.lastEnd > end {
		end = t.lastEnd
	}
	// With availability events the denominator is the capacity the cluster
	// actually delivered over the window; without any, the closed form is the
	// value every fixed-capacity golden pins.
	if end > 0 {
		if len(t.capSteps) == 0 {
			res.DeliveredSlotSec = float64(baseCap) * end
		} else {
			res.DeliveredSlotSec = CapacityArea(float64(baseCap), t.capSteps, end)
		}
		res.Utilization = t.utilArea / res.DeliveredSlotSec
	}
	if t.wSum > 0 {
		res.WeightedResponse = t.wResp / t.wSum
		res.WeightedCompletion = t.wComp / t.wSum
	}
	if t.utilArea > 0 {
		res.GoodputFrac = 1 - t.overheadArea/t.utilArea
	}
	return res
}

// CapacityArea integrates a capacity step function over [0, end] seconds:
// base capacity until the first step, then each step's Used value from its
// At onward. It is the utilization denominator of every Result whose
// capacity varied, and the federation's fleet-wide one.
func CapacityArea(base float64, steps []UtilSample, end float64) float64 {
	area := 0.0
	prevAt, prevCap := 0.0, base
	for _, st := range steps {
		at := st.At
		if at > end {
			at = end
		}
		if at > prevAt {
			area += float64(prevCap * (at - prevAt))
			prevAt = at
		}
		if st.At >= end {
			return area
		}
		prevCap = float64(st.Used)
	}
	if end > prevAt {
		area += float64(prevCap * (end - prevAt))
	}
	return area
}
