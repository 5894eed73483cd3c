package sim

import (
	"errors"
	"math"
	"sort"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// errEpochAbandoned is the early-exit sentinel an abandoned speculative
// epoch's runWindow returns. It is recorded in that epoch's error slot, which
// the reconciliation pass never reads for a discarded epoch, so it cannot
// surface from Run.
var errEpochAbandoned = errors.New("sim: speculative epoch abandoned")

// shardStats counts a sharded run's reconciliation outcomes: epochs planned,
// boundaries whose speculative epoch was adopted, and windows the live chain
// re-executed. Test and debugging visibility only — adopted+reexecuted ==
// epochs-1.
type shardStats struct {
	epochs, adopted, reexecuted int
}

// Sharded execution: the event loop is partitioned in TIME, not across jobs.
//
// The submission order and the availability trace are cut into K epochs at
// instants where the cluster is predicted to have fully drained (no running
// jobs, no queue, no pending kick). Every epoch is then simulated
// speculatively on its own goroutine under the guess that the prediction
// holds — i.e. that the epoch starts from an empty cluster at the capacity
// the trace has established by then. A sequential reconciliation pass walks
// the epochs in order and checks each guess against the truth established so
// far: if the live chain really is drained at the boundary, the speculative
// epoch IS the sequential continuation (a deterministic event loop from
// identical state over identical inputs) and is adopted wholesale; if the
// backlog crossed the boundary, the speculative epoch is discarded and the
// live chain's window is extended to re-execute it sequentially. The worst
// case (no boundary ever drains) degrades to exactly the sequential run —
// never to a wrong one.
//
// Why adoption is exact: a drained scheduler holds no jobs, its free-slot
// count equals its capacity, its wait queue is empty (no smallest waiting
// need), and its pending-kick clock is unarmed — all of which a freshly
// constructed scheduler at the same capacity reproduces identically. The
// only cross-boundary state is therefore the capacity in force, which the
// planner hands each epoch via core.SchedulerState, and the accumulated
// metrics, which merge exactly: integer counters and float min/max are
// order-insensitive, and every order-sensitive float accumulator is merged
// by replaying the per-window seal logs (see merge.go), not by adding
// partial sums. The scheduler's wall-clock caches cannot diverge either:
// each epoch's scheduler clock is anchored to the same global epoch, and
// time-dependent decisions (aging, gap checks) only consult jobs the epoch
// itself submitted.
//
// The drain predictor is a fluid approximation — backlog accumulates each
// submission's total compute demand and drains at the base capacity's rate —
// and is allowed to be wrong in either direction: a missed drain only costs
// parallelism, a falsely predicted drain is caught by the reconciliation
// pass. Its only job is to place cuts where adoption is likely. Cuts are
// chosen to equalize the predictor's *work* integral per epoch, not job
// counts: a workload whose heavy jobs cluster at one end still yields epochs
// of comparable simulation cost, so no shard sits idle behind one giant
// window.
//
// Reconciliation is pipelined (chained speculation): epoch 0 runs on the
// caller's goroutine while every later epoch speculates concurrently, and
// the boundary walk consumes each epoch the moment the live chain reaches
// it — adopting it (after waiting for just that epoch's goroutine) when the
// boundary really drained, or discarding it and re-executing its window on
// the live chain while the epochs further right keep speculating. A dirty
// boundary therefore costs only its own window's re-execution overlapped
// with downstream speculation, and the sequential tail is bounded to the
// truly-divergent suffix; discarded epochs are flagged to abandon their
// speculative runs early instead of simulating to the horizon.

// epochPlan is one epoch's share of the inputs.
type epochPlan struct {
	subLo, subHi int     // submission-order window [subLo, subHi)
	capLo, capHi int     // availability-event window [capLo, capHi)
	start        float64 // first submission instant; -Inf for epoch 0
	startCap     int     // capacity the trace has established entering the epoch
}

// planHorizon is the event horizon for epoch k: the next epoch's start, or
// +Inf for the last.
func planHorizon(plans []epochPlan, k int) float64 {
	if k+1 < len(plans) {
		return plans[k+1].start
	}
	return math.Inf(1)
}

// planWindow is epoch k's window: its share of the inputs, up to the next
// epoch's start.
func planWindow(plans []epochPlan, k int) window {
	return window{subHi: plans[k].subHi, capHi: plans[k].capHi,
		horizon: planHorizon(plans, k), final: k == len(plans)-1}
}

// planEpochs cuts the workload into at most cfg.Shards epochs at predicted
// drain instants, spreading the cuts toward equal submission counts. One
// plan covering everything is returned when the workload offers no usable
// cut (the caller then runs the plain sequential loop).
func planEpochs(cfg Config, w workload.Workload, order []int32) []epochPlan {
	n := len(order)
	avail := cfg.Availability.Events
	whole := []epochPlan{{
		subLo: 0, subHi: n,
		capLo: 0, capHi: len(avail),
		start: math.Inf(-1), startCap: cfg.Capacity,
	}}
	if cfg.Shards <= 1 || n < 2 {
		return whole
	}

	// Fluid drain estimate: each submission batch adds its jobs' total
	// compute demand (steps × iteration time × replicas, at the replica
	// count the policy favors) to a backlog that drains at the base
	// capacity's rate. A cut is a candidate wherever the backlog hits zero
	// before the next distinct submission instant; each candidate records
	// the cumulative demand submitted before it, the work integral the cut
	// chooser balances on.
	specs := model.Specs()
	capRate := float64(cfg.Capacity)
	var cuts []int        // candidate epoch-start positions in order, ascending
	var cutWork []float64 // predicted work submitted before each candidate (non-decreasing)
	backlog := 0.0
	work := 0.0
	tPrev := w.Jobs[order[0]].SubmitAt
	for i := 0; i < n; {
		t := w.Jobs[order[i]].SubmitAt
		if i > 0 {
			backlog -= capRate * (t - tPrev)
			if backlog <= 0 {
				backlog = 0
				cuts = append(cuts, i)
				cutWork = append(cutWork, work)
			}
		}
		for i < n && w.Jobs[order[i]].SubmitAt == t {
			spec := specs[w.Jobs[order[i]].Class]
			r := spec.MaxReplicas
			if cfg.Policy == core.RigidMin {
				r = spec.MinReplicas
			}
			if r > cfg.Capacity {
				r = cfg.Capacity
			}
			if r < 1 {
				r = 1
			}
			d := float64(spec.Steps) * cfg.Machine.IterTime(spec.Grid, r) * float64(r)
			backlog += d
			work += d
			i++
		}
		tPrev = t
	}
	if len(cuts) == 0 || work <= 0 {
		return whole
	}

	// Pick, for each equal-work target k·W/K, the candidate whose cumulative
	// predicted work is nearest, keeping picks strictly increasing so every
	// epoch stays non-empty. Balancing the predictor's work integral rather
	// than submission counts is what keeps skewed workloads — heavy jobs
	// clustered at the head or tail, swarms of cheap ones elsewhere — from
	// producing one epoch that dwarfs the rest: epoch wall-time tracks the
	// events simulated, which tracks demand, not the job count.
	chosen := make([]int, 0, cfg.Shards-1)
	prev := 0
	for k := 1; k < cfg.Shards; k++ {
		target := work * float64(k) / float64(cfg.Shards)
		pos := sort.SearchFloat64s(cutWork, target)
		best := -1
		if pos < len(cuts) && cuts[pos] > prev {
			best = pos
		}
		if pos > 0 && cuts[pos-1] > prev {
			if best < 0 || target-cutWork[pos-1] <= cutWork[best]-target {
				best = pos - 1
			}
		}
		if best < 0 {
			continue
		}
		chosen = append(chosen, cuts[best])
		prev = cuts[best]
	}
	if len(chosen) == 0 {
		return whole
	}

	bounds := append([]int{0}, chosen...)
	plans := make([]epochPlan, len(bounds))
	for k, lo := range bounds {
		hi := n
		if k+1 < len(bounds) {
			hi = bounds[k+1]
		}
		start := math.Inf(-1)
		if lo > 0 {
			start = w.Jobs[order[lo]].SubmitAt
		}
		plans[k] = epochPlan{subLo: lo, subHi: hi, start: start}
	}
	// Availability partition: epoch k owns the events with At in
	// [start_k, start_{k+1}) — an event landing exactly on a boundary
	// belongs to the successor, where it applies before the first
	// submission, just as the sequential equal-timestamp rule orders it.
	ci := 0
	for k := range plans {
		plans[k].capLo = ci
		end := planHorizon(plans, k)
		for ci < len(avail) && avail[ci].At < end {
			ci++
		}
		plans[k].capHi = ci
		if plans[k].capLo == 0 {
			plans[k].startCap = cfg.Capacity
		} else {
			plans[k].startCap = avail[plans[k].capLo-1].Capacity
		}
	}
	return plans
}

// boundaryIdle reports whether the simulator's state at its window horizon
// matches the successor epoch's speculative starting guess: cluster fully
// drained and no kick pending. (The window cursors are always exhausted
// when a non-final runWindow returns; superseded kick events still parked
// in the heap carry no state.) A stale kick armed past the horizon keeps
// the boundary conservative — the successor is then re-executed, which
// resolves the kick exactly as the sequential loop would.
func (s *Simulator) boundaryIdle() bool {
	return s.sched.NumRunning() == 0 && s.sched.NumQueued() == 0 && s.kickAt < 0
}

// runSharded executes Run's sharded mode: plan, speculate in parallel,
// reconcile sequentially, merge exactly. See the package comment above for
// why the result is bit-identical to the sequential loop.
func (s *Simulator) runSharded(w workload.Workload) (Result, error) {
	if err := s.cfg.Availability.Validate(); err != nil {
		return Result{}, err
	}
	order := submissionOrder(w)
	ranks := submissionRanks(w, order)
	specs := model.Specs()
	plans := s.testPlans
	if plans == nil {
		plans = planEpochs(s.cfg, w, order)
	}
	if len(plans) == 1 {
		// No usable cut: run the plain sequential loop in place.
		s.prepare(w, order, ranks, specs, 0, 0, window{})
		return s.Finish()
	}

	sims := make([]*Simulator, len(plans))
	for k, pl := range plans {
		cfg := s.cfg
		cfg.Shards = 0
		sub, err := New(cfg)
		if err != nil {
			return Result{}, err
		}
		if pl.startCap != cfg.Capacity {
			// Seed the epoch's scheduler with the capacity the trace has
			// established at the boundary — the one piece of cross-epoch
			// scheduler state. No decisions are logged by the restore.
			if err := sub.sched.RestoreState(core.SchedulerState{Capacity: pl.startCap}); err != nil {
				return Result{}, err
			}
		}
		sub.rec = &runLog{}
		sub.prepare(w, order, ranks, specs, pl.subLo, pl.capLo, planWindow(plans, k))
		sims[k] = sub
	}

	// Speculate and reconcile as a pipeline (chained speculation). Epochs
	// 1..K-1 speculate on their own goroutines; epoch 0 — the live chain's
	// exact prefix — runs right here, overlapping the speculation. The
	// boundary walk then consumes each epoch the moment the live chain
	// reaches it: adoption waits for that epoch's goroutine alone, and a
	// dirty boundary re-executes its window on the live chain while every
	// epoch further right keeps speculating. Errors are held per epoch — a
	// speculative failure only matters if the walk adopts that epoch.
	errs := make([]error, len(sims))
	done := make([]chan struct{}, len(sims))
	for k := 1; k < len(sims); k++ {
		done[k] = make(chan struct{})
		go func(k int) {
			defer close(done[k])
			errs[k] = sims[k].runWindow()
		}(k)
	}
	errs[0] = sims[0].runWindow()

	live, liveErr := sims[0], errs[0]
	segs := make([]*Simulator, 0, len(sims))
	s.stats = shardStats{epochs: len(sims)}
	next := 1
	for ; next < len(sims) && liveErr == nil; next++ {
		if live.boundaryIdle() {
			<-done[next]
			segs = append(segs, live)
			live, liveErr = sims[next], errs[next]
			s.stats.adopted++
			continue
		}
		// The backlog crossed the boundary: the speculative epoch is dead
		// weight. Flag it to bail out of its run early, then re-execute its
		// window sequentially on the live chain.
		sims[next].abandoned.Store(true)
		live.extend(planWindow(plans, next))
		liveErr = live.runWindow()
		s.stats.reexecuted++
	}
	// Reap every speculative goroutine before reading any segment state (an
	// early liveErr exit flags the unvisited epochs first so they return
	// promptly).
	for k := next; k < len(sims); k++ {
		sims[k].abandoned.Store(true)
	}
	for k := 1; k < len(sims); k++ {
		<-done[k]
	}
	if liveErr != nil {
		return Result{}, liveErr
	}
	segs = append(segs, live)
	return s.mergeSegments(w, segs)
}
