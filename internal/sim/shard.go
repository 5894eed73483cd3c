package sim

import (
	"errors"
	"math"
	"runtime"

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
// only cross-boundary state is therefore the capacity in force, which each
// epoch's scheduler is constructed at, and the accumulated metrics, which
// merge exactly: integer counters and float min/max are
// order-insensitive, and every order-sensitive float accumulator is merged
// by replaying the per-window seal logs (see merge.go), not by adding
// partial sums. The scheduler's wall-clock caches cannot diverge either:
// each epoch's scheduler clock is anchored to the same global epoch, and
// time-dependent decisions (gap checks) only consult jobs the epoch itself
// submitted.
//
// The drain predictor is a fluid approximation — backlog accumulates each
// submission's total compute demand and drains at the base capacity's rate —
// and is allowed to be wrong in either direction: a missed drain only costs
// parallelism, a falsely predicted drain is caught by the reconciliation
// pass. Its only job is to place cuts where adoption is likely. Cuts are
// chosen to equalize the predictor's *work* integral per epoch, not job
// counts: a workload whose heavy jobs cluster at one end still yields epochs
// of comparable simulation cost, so no shard sits idle behind one giant
// window — and, within a stated tolerance of that balance, where the
// predictor sees the most idle time before the next arrival (chooseCuts).
// With Config.Shards unset the planner also decides whether to shard at all
// (autoEpochs, autoAccepts).
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
// speculative runs early instead of simulating to the horizon. (The
// automatic width gives up on its plan at the first dirty boundary instead:
// see runSharded.)
//
// The accounting merges too: Processed() after a sharded run is the
// sequential loop's event count (mergeSegments).

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

// Auto mode (Config.Shards == 0) shards a run only where that pays. The
// constants were measured on the 2-vCPU reference host and are deliberately
// not configurable: a wrong call costs one wasted speculative epoch on an
// otherwise idle core, never a wrong result.
const (
	// epochFloorJobs is the fewest jobs auto gives one epoch. At ≈ 4.2 events
	// a job and sim.ns_per_event ≈ 300–600 ns (bench's 8 k-job probe; its
	// 80 k-job standing backlog), 16 k jobs are 20–40 ms of event loop to
	// overlap, against what an epoch costs whether or not it is adopted: a
	// simulator of its own (≈ 0.25 MB — 5 % of the ≈ 5 MB those jobs allocate
	// in streaming mode at 0.31 kB a job, and 5 % is the benchmark's bound on
	// alloc_kb_per_job), a goroutine start (µs) and its share of the planning
	// passes (3.5–6.5 ns a job). Under two floors a run is not even planned,
	// so bench's 12 k-job poisson_retained runs, its 8 k-job probes and every
	// sweep cell stay on the plain loop, allocation for allocation.
	epochFloorJobs = 16_000

	// slackMargin is the predicted idle time, in seconds beyond the rescale
	// gap, auto requires before every cut. The fluid predictor packs
	// perfectly and knows nothing of rescale gaps, so the real drain trails
	// its estimate, and a kick armed up to one rescale gap after the last
	// scheduling action keeps a drained boundary from being adopted. Stepping
	// the sequential elastic loop to every candidate of four 100 k-job
	// Poisson traces (mean gaps 170 and 250 s, seeds 1 and 2) at the default
	// 180 s gap, the cluster was really idle at 22 % of the candidates with
	// under 60 s of predicted slack, 77 % at 180–240 s, 99.8 % (16,315 of
	// 16,340) at 360–600 s and 9,291 of 9,291 from 600 s up — hence
	// 180 + 420; at a 600 s gap, 99.3 % from 600 s up and 766 of 766 from
	// 1,200 s. An overloaded trace (mean gap 120 s, seeds 1–3) offers 4–13
	// candidates in 100 k jobs, none with more than 504 s, and is declined.
	slackMargin = 420.0

	// balanceTolerance is how far, as a fraction of one epoch's equal share
	// of the predicted work, a cut may sit from its equal-work target and
	// still be preferred for its slack: a plan's longest epoch is then at
	// most 1.2 shares, against the whole extra share one re-executed boundary
	// costs.
	balanceTolerance = 0.1
)

// autoEpochs is the epoch count an unset Config.Shards asks the planner for:
// one per processor the runtime will schedule on, as far as the floor allows.
func autoEpochs(jobs int) int {
	return min(runtime.GOMAXPROCS(0), jobs/epochFloorJobs)
}

// epochCut is one chosen boundary: the submission-order position its epoch
// starts at and the idle time the fluid predictor expects before it.
type epochCut struct {
	pos   int
	slack float64
}

// cutCand is a cut candidate while the chooser weighs it: a position the
// predicted backlog reaches zero before (pos 0 is "none": the run's first
// submission is never a cut), the predicted work submitted before it — the
// integral the chooser balances — and the predicted idle time before it.
type cutCand struct {
	pos         int
	work, slack float64
}

// classDemand is the fluid predictor's per-job compute demand, by class:
// steps × iteration time × replicas at the replica count the policy favors.
func classDemand(cfg Config, specs map[model.Class]model.Spec) (demand [model.XLarge + 1]float64) {
	for c := range demand {
		spec := specs[model.Class(c)]
		r := spec.MaxReplicas
		if cfg.Policy == core.RigidMin {
			r = spec.MinReplicas
		}
		r = max(min(r, cfg.Capacity), 1)
		demand[c] = float64(spec.Steps) * cfg.Machine.IterTime(spec.Grid, r) * float64(r)
	}
	return demand
}

// chooseCuts appends to dst at most shards-1 epoch boundaries, ascending.
//
// Fluid drain estimate: each submission batch adds its jobs' total compute
// demand to a backlog that drains at the base capacity's rate. A cut is a
// candidate wherever the backlog hits zero before the next distinct
// submission instant; what is left of the interval after the backlog is gone
// is the candidate's slack.
//
// For each equal-work target k·W/K the chooser takes, among the candidates
// within tolerance (balanceTolerance, outside tests) of a share of it, the
// one with the most slack — the one likeliest to be adopted: work balance
// alone lands Poisson cuts where the cluster is merely predicted empty, and
// one boundary in two is then re-executed — and, when the tolerance holds
// none, the candidate whose cumulative work is nearest, keeping picks
// strictly increasing so every epoch stays non-empty. Balancing the predictor's work integral rather than
// submission counts is what keeps skewed workloads — heavy jobs clustered at
// the head or tail, swarms of cheap ones elsewhere — from producing one
// epoch that dwarfs the rest: epoch wall-time tracks the events simulated,
// which tracks demand, not the job count.
//
// Two passes over the submissions (the total, then the candidates against
// the targets it fixes) and no candidate list: the chooser allocates nothing
// beyond dst, so a plan auto goes on to decline costs no memory. The explicit
// float64 conversions round each product on its own, so an architecture that
// fuses multiply-add (arm64) cuts where amd64 cuts.
func chooseCuts(dst []epochCut, cfg Config, jobs []workload.JobSpec, specs map[model.Class]model.Spec, shards int, tolerance float64) []epochCut {
	n := len(jobs)
	if shards <= 1 || n < 2 {
		return dst
	}
	demand := classDemand(cfg, specs)
	demandOf := func(i int) float64 {
		if c := jobs[i].Class; c >= 0 && int(c) < len(demand) {
			return demand[c]
		}
		return 0 // an unknown class: Submit rejects the job
	}
	total := 0.0
	for i := range jobs {
		total += demandOf(i)
	}
	if total <= 0 {
		return dst
	}
	share := total / float64(shards)
	tol := float64(tolerance * share)

	// The target being settled is k·share. below is the last candidate under
	// its tolerance window, best the slackest inside it, prev the last
	// position picked.
	k, prev := 1, 0
	var below, best, last cutCand
	settle := func(above cutCand) {
		target := float64(share * float64(k))
		pick := best
		if pick.pos == 0 {
			if below.pos > prev {
				pick = below
			}
			if above.pos > prev && (pick.pos == 0 || above.work-target < target-pick.work) {
				pick = above
			}
		}
		if pick.pos > 0 {
			dst = append(dst, epochCut{pos: pick.pos, slack: pick.slack})
			prev = pick.pos
		}
		k++
		best, below = cutCand{}, last
	}

	capRate := float64(cfg.Capacity)
	backlog, work := 0.0, 0.0
	tPrev := jobs[0].SubmitAt
	for i := 0; i < n && k < shards; {
		t := jobs[i].SubmitAt
		if i > 0 {
			backlog -= float64(capRate * (t - tPrev))
			if backlog <= 0 {
				c := cutCand{pos: i, work: work, slack: -backlog / capRate}
				backlog = 0
				for k < shards && c.work > float64(share*float64(k))+tol {
					settle(c)
				}
				if k < shards {
					target := float64(share * float64(k))
					switch {
					case c.work < target-tol:
						below = c
					case c.pos > prev && (best.pos == 0 || c.slack > best.slack ||
						c.slack == best.slack && math.Abs(c.work-target) < math.Abs(best.work-target)):
						best = c
					}
				}
				last = c
			}
		}
		for i < n && jobs[i].SubmitAt == t {
			d := demandOf(i)
			backlog += d
			work += d
			i++
		}
		tPrev = t
	}
	for k < shards {
		settle(cutCand{})
	}
	return dst
}

// autoAccepts is auto's go/no-go on a plan: every cut has its slack margin
// and every epoch clears the floor.
func autoAccepts(cuts []epochCut, jobs int, rescaleGap float64) bool {
	if len(cuts) == 0 {
		return false
	}
	lo := 0
	for _, c := range cuts {
		if c.slack < rescaleGap+slackMargin || c.pos-lo < epochFloorJobs {
			return false
		}
		lo = c.pos
	}
	return jobs-lo >= epochFloorJobs
}

// planEpochs cuts the workload into epochs at predicted drain instants: at
// most cfg.Shards of them, or, with Shards unset, as many as autoEpochs asks
// for and autoAccepts lets through. nil means no usable plan (the caller then
// runs the plain sequential loop), and a plan auto declines has allocated
// nothing.
func planEpochs(cfg Config, jobs []workload.JobSpec, specs map[model.Class]model.Spec) []epochPlan {
	shards := cfg.Shards
	if shards == 0 {
		shards = autoEpochs(len(jobs))
	}
	var buf [15]epochCut // 16 epochs' cuts without touching the heap
	cuts := chooseCuts(buf[:0], cfg, jobs, specs, shards, balanceTolerance)
	if cfg.Shards == 0 && !autoAccepts(cuts, len(jobs), cfg.RescaleGap) {
		return nil
	}
	return buildPlans(cfg, jobs, cuts)
}

// buildPlans turns chosen cuts into the epochs' shares of the inputs; nil
// for no cuts.
func buildPlans(cfg Config, jobs []workload.JobSpec, cuts []epochCut) []epochPlan {
	if len(cuts) == 0 {
		return nil
	}
	n := len(jobs)
	avail := cfg.Availability.Events
	plans := make([]epochPlan, len(cuts)+1)
	plans[0] = epochPlan{start: math.Inf(-1)}
	for k, c := range cuts {
		plans[k].subHi = c.pos
		plans[k+1] = epochPlan{subLo: c.pos, start: jobs[c.pos].SubmitAt}
	}
	plans[len(cuts)].subHi = n
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

// epochRun is one epoch of a sharded run: its simulator, the error its
// window returned, and — for a speculative epoch — the signal that its
// goroutine has finished.
type epochRun struct {
	sim  *Simulator
	err  error
	done chan struct{}
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

// runSharded is Run for every Config.Shards but 1: plan, speculate in
// parallel, reconcile sequentially, merge exactly — or, when the planner
// offers no plan (auto declined, or the workload has no usable cut), the
// plain sequential loop in place, call for call what Shards: 1 runs. See the
// package comment above for why the result is bit-identical to the
// sequential loop.
func (s *Simulator) runSharded(w workload.Workload) (Result, error) {
	if err := s.cfg.Availability.Validate(); err != nil {
		return Result{}, err
	}
	jobs, widxs := submissionView(w)
	specs := model.Specs()
	plans := s.testPlans
	if plans == nil {
		plans = planEpochs(s.cfg, jobs, specs)
	}
	if len(plans) < 2 {
		s.prepare(jobs, widxs, specs, 0, 0, window{})
		return s.Finish()
	}

	// Each epoch's simulator, its error and its goroutine's done signal sit
	// in one record, so the fan-out allocates one array for all three.
	epochs := make([]epochRun, len(plans))
	for k, pl := range plans {
		cfg := s.cfg
		cfg.Shards = 1
		// The epoch's scheduler starts at the capacity the trace has
		// established at the boundary — the one piece of cross-epoch
		// scheduler state.
		sub, err := newSimulator(cfg, pl.startCap)
		if err != nil {
			return Result{}, err
		}
		// Epoch 0's fold starts from zero, as the sequential loop's does, so
		// the merge adopts its ledger whole; later epochs log their seals for
		// the merge to replay onto it.
		sub.ledger.logSeals = k > 0
		sub.prepare(jobs, widxs, specs, pl.subLo, pl.capLo, planWindow(plans, k))
		epochs[k].sim = sub
	}

	// Speculate and reconcile as a pipeline (chained speculation). Epochs
	// 1..K-1 speculate on their own goroutines; epoch 0 — the live chain's
	// exact prefix — runs right here, overlapping the speculation. The
	// boundary walk then consumes each epoch the moment the live chain
	// reaches it: adoption waits for that epoch's goroutine alone, and a
	// dirty boundary re-executes its window on the live chain while every
	// epoch further right keeps speculating. Errors are held per epoch — a
	// speculative failure only matters if the walk adopts that epoch.
	for k := 1; k < len(epochs); k++ {
		ep := &epochs[k]
		ep.done = make(chan struct{})
		go func() {
			defer close(ep.done)
			ep.err = ep.sim.runWindow()
		}()
	}
	epochs[0].err = epochs[0].sim.runWindow()

	live, liveErr := epochs[0].sim, epochs[0].err
	segs := make([]*Simulator, 0, len(epochs))
	s.stats = shardStats{epochs: len(epochs)}
	next := 1
	for ; next < len(epochs) && liveErr == nil; next++ {
		if live.boundaryIdle() {
			<-epochs[next].done
			segs = append(segs, live)
			live, liveErr = epochs[next].sim, epochs[next].err
			s.stats.adopted++
			continue
		}
		// The backlog crossed the boundary: the speculative epoch is dead
		// weight. Flag it to bail out of its run early, then re-execute its
		// window sequentially on the live chain. Auto, which planned on the
		// promise that every boundary drains, stops trusting the plan at the
		// first one that does not: every remaining epoch is flagged and the
		// live chain takes the whole remainder, so a wrong guess costs one
		// wasted epoch, never a chain of them.
		redo := next
		if s.cfg.Shards == 0 {
			redo = len(epochs) - 1
		}
		for k := next; k <= redo; k++ {
			epochs[k].sim.abandoned.Store(true)
		}
		live.extend(planWindow(plans, redo))
		liveErr = live.runWindow()
		s.stats.reexecuted += redo - next + 1
		next = redo
	}
	// Reap every speculative goroutine before reading any segment state (an
	// early liveErr exit flags the unvisited epochs first so they return
	// promptly).
	for k := next; k < len(epochs); k++ {
		epochs[k].sim.abandoned.Store(true)
	}
	for k := 1; k < len(epochs); k++ {
		<-epochs[k].done
	}
	if liveErr != nil {
		return Result{}, liveErr
	}
	segs = append(segs, live)
	return s.mergeSegments(w, segs)
}
