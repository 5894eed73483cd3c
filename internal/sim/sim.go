package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// JobMetrics is the per-job outcome.
type JobMetrics struct {
	ID             string
	Class          model.Class
	Priority       int
	Replicas       int // peak replica count
	SubmitAt       float64
	StartAt        float64
	EndAt          float64
	Rescales       int
	OverheadSec    float64 // total rescale overhead charged
	ResponseTime   float64
	CompletionTime float64
}

// UtilSample is one step of the cluster-utilization timeline.
type UtilSample struct {
	At   float64 // seconds
	Used int     // allocated worker slots
}

// ReplicaSample records a job's replica count change (Figure 9b).
type ReplicaSample struct {
	At       float64
	Replicas int
}

// Result aggregates one simulation run.
type Result struct {
	Policy core.Policy
	// TotalTime is "the end-to-end runtime from the start of the first
	// job to the end of the last job".
	TotalTime float64
	// Utilization is the time-averaged fraction of slots in use over the
	// experiment duration. With an availability trace the denominator is
	// the capacity actually delivered over time, not the base capacity.
	Utilization float64
	// WeightedResponse and WeightedCompletion are priority-weighted means.
	WeightedResponse   float64
	WeightedCompletion float64
	// Resilience aggregates. CapacityEvents counts applied availability
	// events; ForcedShrinks and Requeues split the capacity losses by how
	// running jobs absorbed them (shrink in place vs. checkpoint-requeue);
	// WorkLostSec is the replica-seconds of compute frozen by
	// availability-forced rescales and preemption restarts; GoodputFrac is
	// the fraction of all delivered replica-seconds spent on real
	// iterations rather than any rescale/restart overhead (1 when no
	// overhead was charged). All are computed incrementally, so streaming
	// and retained runs agree bit-for-bit.
	CapacityEvents int
	ForcedShrinks  int
	Requeues       int
	WorkLostSec    float64
	GoodputFrac    float64
	// Federation-aggregation ingredients. FirstStart and LastEnd bound the
	// experiment window (TotalTime = LastEnd - FirstStart); UsedSlotSec and
	// DeliveredSlotSec are the utilization integral's numerator and
	// denominator (allocated vs. deliverable slot-seconds over [0, LastEnd]);
	// WeightSum is the total priority weight behind the weighted means; and
	// EndCapacity is the slot capacity in force when the run drained. A
	// fleet-wide metric over member results sums the integrals and weights
	// rather than averaging the per-member ratios, so it is exact.
	FirstStart       float64
	LastEnd          float64
	UsedSlotSec      float64
	DeliveredSlotSec float64
	WeightSum        float64
	EndCapacity      int
	// Jobs, UtilTimeline, and ReplicaTimelines are nil in streaming mode
	// (Config.Streaming); the aggregate metrics above are always computed.
	Jobs             []JobMetrics
	UtilTimeline     []UtilSample
	ReplicaTimelines map[string][]ReplicaSample
}

// Config parameterizes a simulation.
type Config struct {
	Policy     core.Policy
	Capacity   int     // worker slots (64 in the paper)
	RescaleGap float64 // seconds (T_rescale_gap)
	Machine    model.Machine
	// Streaming computes Result's aggregate metrics incrementally and
	// recycles per-job state at completion instead of retaining a
	// JobMetrics, utilization sample, and replica timeline per job.
	// Memory becomes O(concurrently running jobs) — required for
	// million-job workloads. Result.Jobs, Result.UtilTimeline, and
	// Result.ReplicaTimelines are nil in this mode; the aggregates are
	// bit-identical to the retained mode.
	Streaming bool
	// Availability is the cluster-capacity timeline: each event sets the
	// total slot count at its instant, driving core.Scheduler.SetCapacity
	// through the event loop. Deterministic ordering rule: at equal
	// timestamps, capacity events apply before submissions, which apply
	// before completions and kicks; ties within each class keep trace,
	// workload, and push order respectively. Empty means fixed capacity.
	Availability workload.AvailabilityTrace
	// LogDecisions records the scheduler's effects (core.Config.EnableLog)
	// for retrieval via Simulator.Decisions — the audit trail for debugging
	// a run. It changes nothing else: the run's events, decisions and Result
	// are the same with it on or off. Default off: the streaming hot path
	// then allocates nothing per decision, and with it on the entries land
	// in core's bounded ring buffer (oldest overwritten past 100k).
	LogDecisions bool
	// FullRedistribute disables the scheduler's incremental early-outs
	// (see core.Config.FullRedistribute) — the reference mode the
	// equivalence tests run against. Decisions and results are identical
	// either way; this is strictly slower.
	FullRedistribute bool
	// Shards is how many time epochs a run's event loop may execute in
	// parallel. The workload's submission cursor and the availability trace
	// are deterministically partitioned at predicted cluster-drain
	// boundaries, every epoch is simulated speculatively on its own
	// goroutine from an empty-cluster guess, and a sequential reconciliation
	// pass adopts each epoch whose guess held and re-executes the ones
	// downstream of a boundary the backlog actually crossed. Decision
	// sequences, Results and Processed() are bit-identical to the sequential
	// loop's at every value (see shard.go for the contract and why the merge
	// is exact).
	//
	// 0, the default, is automatic: one epoch per GOMAXPROCS processor, as
	// far as the work floor allows (16 k jobs an epoch — a run under 32 k
	// jobs is the sequential loop, unplanned), and only when the drain
	// predictor finds every cut its margin of idle slack; a plan that fails
	// either test is declined for the sequential loop at the cost of the
	// O(n) planning passes, and the first boundary that does not drain
	// cancels what is left of the speculation. 1 is the sequential
	// reference. N > 1 plans up to N epochs unconditionally, degrading
	// gracefully where the workload offers fewer cuts. Negative values are
	// rejected. The stepping API (Begin/StepTo/Finish) never shards, and a
	// caller that already fans runs out over a RunTasks pool of more than
	// one worker resolves 0 to 1 before handing the config down, so
	// parallelism is not nested.
	Shards int
	// Extensions (all default off, matching the paper's §3.2.1 policy).
	JobOverheadSlots int
	AgingRate        float64
	EnablePreemption bool
	StrictFCFS       bool
	CostBenefit      *core.CostBenefit
}

// DefaultConfig matches the paper's evaluation setup.
func DefaultConfig(p core.Policy) Config {
	return Config{Policy: p, Capacity: 64, RescaleGap: 180, Machine: model.DefaultMachine()}
}

// simJob is a job's HOT simulation state: exactly the fields the event loop
// and the scheduler's actuator callbacks touch while the job lives — the
// embedded core.Job (whose own layout leads with the comparator keys), the
// progress-model floats, and the lifecycle flags. One pooled allocation
// covers scheduler and driver state, and the record stays free of strings,
// slices, and metrics metadata so the inner loop walks a handful of dense
// cache lines per event. Everything visited only at submission, rescale
// bookkeeping, or collection time lives in the parallel simJobCold record
// at Simulator.cold[ref].
type simJob struct {
	job core.Job

	itersDone   float64
	lastUpdate  float64 // sim time of the last progress update
	frozenUntil float64 // rescale overhead window: no progress before this
	seq         int64   // increments on every reschedule (and slot recycle)
	steps       float64 // spec.Steps as a float (remaining-work arithmetic)
	submitAt    float64
	startAt     float64 // first-ever start (possibly on a donor member)
	grid        int32   // spec.Grid (iteration-time table key)
	ref         int32   // slab-slot index: byRef[ref] == this, and job.Ref carries it
	widx        int32   // index of this job's spec in the workload
	peak        int32   // peak replica count
	started     bool
	forcedOut   bool // preempted by a capacity reclaim; next start is a forced restart
	// migratedCkpt marks a job injected from another federation member with
	// a checkpoint: its next start charges restart+restore exactly as a
	// locally preempted job's would (the flag exists because core.enqueue
	// resets an injected job's state to StateQueued, losing the
	// StatePreempted marker).
	migratedCkpt bool
}

// simJobCold is the cold half of a job's record: identity and metrics
// metadata, plus the retained-mode replica timeline. Indexed by the job's
// slab ref (Simulator.cold[ref], parallel to byRef) and written only at
// submission, on rescale bookkeeping, and at completion — the event loop
// proper never reads it.
type simJobCold struct {
	meta     JobMetrics
	timeline []ReplicaSample
}

// decisionsPerJob is what prepare reserves in the decision ring for each job
// of a logged run: the four policies record 2.4–3.0 (rigid and moldable) and
// 3.3–4.2 (elastic) decisions a job on Poisson, burst and uniform traces, so
// four is one allocation for nearly every run and a single 1.25× regrowth
// for the rest — where growing from empty reallocates a dozen times and
// clears ≈ 5× the final buffer (16 % of a logged 12 k-job run).
const decisionsPerJob = 4

// jobSlabSize is the simJob pool's allocation chunk. Slab entries are
// addressed by pointer and chunks are never appended to, so the pointers
// stay valid for the simulator's lifetime.
const jobSlabSize = 512

// Simulator runs one workload under one policy.
type Simulator struct {
	cfg    Config
	sched  *core.Scheduler
	events eventHeap
	ord    int64
	now    float64
	// byRef is the slab-slot directory: byRef[ref] is the simJob whose
	// core.Job carries Ref == ref. Job identities are interned to these
	// int32 indices at submission, so actuator callbacks resolve driver
	// state with an index load, not a string-keyed map lookup per
	// scheduling action. In streaming mode
	// slots are recycled, so the directory stays O(concurrent jobs).
	// cold is the parallel cold-half directory: cold[ref] holds the
	// metadata and timeline for byRef[ref] (see simJobCold).
	byRef []*simJob
	cold  []simJobCold

	// Pools: the simJob slab and (in streaming mode) completed-job records
	// ready for reuse.
	slab     []simJob
	slabUsed int
	freeJobs []*simJob

	// Cursor window (set by prepare, consumed by runWindow). A sequential
	// run owns the whole workload and trace with an infinite horizon; a
	// shard owns one epoch's slice of each, and reconciliation extends the
	// window of a simulator that must re-execute its successor epoch.
	w          workload.Workload
	order      []int32 // submission order (shared, read-only across shards)
	ranks      []int32 // per-widx ID tie-break ranks (shared, read-only)
	specs      map[model.Class]model.Spec
	cursor     int     // next submission index in order
	subHi      int     // submission window end (exclusive)
	capi       int     // next availability-trace index
	capHi      int     // availability window end (exclusive)
	horizon    float64 // stop before heap events at or past this instant
	final      bool    // last window: trailing capacity events are skipped
	deferKicks bool
	processed  int
	limit      int

	// rec, when non-nil, logs the seal values this window folds into each
	// order-sensitive accumulator so a sharded run can replay them into one
	// bit-identical sequential fold (see merge.go).
	rec *runLog
	// mergedDecisions overrides Decisions() after a sharded run.
	mergedDecisions []core.Decision
	// abandoned is set by the sharded reconciliation pass when this
	// simulator's speculative epoch has been discarded (its boundary guess
	// failed): runWindow then bails out early instead of simulating to the
	// horizon. Only ever set on speculative epoch simulators whose results
	// are never read.
	abandoned atomic.Bool
	// stats counts the reconciliation outcomes of a sharded run (facade
	// simulator only; see shard.go).
	stats shardStats
	// testPlans overrides the epoch planner (tests only): it pins cut
	// points the fluid predictor would not choose, e.g. boundaries that are
	// guaranteed not to drain, to exercise the re-execution path.
	testPlans []epochPlan

	used     int
	utilTL   []UtilSample
	utilArea float64
	utilLast float64
	kickAt   float64 // earliest pending kick event time, or -1

	// Availability accounting. capSteps records each applied capacity
	// change (Used = new capacity) for the delivered-capacity integral;
	// it is bounded by the trace length, so streaming mode keeps it too.
	capSteps     []UtilSample
	capEvents    int
	workLost     float64 // replica-seconds frozen by forced rescales/restarts
	overheadArea float64 // replica-seconds frozen by ALL rescales/restarts

	// Migration counters (the stepping API in step.go): injected counts
	// jobs submitted via Inject, withdrawn counts jobs removed via
	// Withdraw. Both stay zero on the batch path, where collect places
	// records by workload index.
	injected  int
	withdrawn int

	// Aggregates accumulated incrementally at job completion, so streaming
	// and retained runs produce bit-identical Result metrics.
	completed          int
	haveStart          bool
	firstStart         float64
	lastEnd            float64
	wSum, wResp, wComp float64

	// Open sub-accumulators for the order-sensitive float sums, folded into
	// the totals above at every drained instant (see seal in merge.go). Both
	// execution modes run the same two-level fold, which is what lets the
	// sharded merge replay O(drains) seal values instead of O(events) terms.
	utilSub                         float64
	finWSub, finRespSub, finCompSub float64
	ovhSub, lostSub                 float64
}

// epoch anchors the simulator's float timeline to the core scheduler's
// time.Time clock.
var epoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// New creates a simulator for the workload.
func New(cfg Config) (*Simulator, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("sim: capacity %d", cfg.Capacity)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("sim: shards %d (0 = automatic, 1 = sequential, N = up to N epochs)", cfg.Shards)
	}
	s := &Simulator{cfg: cfg, kickAt: -1}
	if cb := cfg.CostBenefit; cb != nil && cb.Progress == nil {
		// Wire the gate to the simulator's own progress model so users
		// only need to set thresholds.
		wired := *cb
		wired.Progress = s.progressFraction
		cfg.CostBenefit = &wired
	}
	sched, err := core.NewScheduler(core.Config{
		Policy:           cfg.Policy,
		Capacity:         cfg.Capacity,
		RescaleGap:       model.Duration(cfg.RescaleGap),
		JobOverheadSlots: cfg.JobOverheadSlots,
		AgingRate:        cfg.AgingRate,
		EnablePreemption: cfg.EnablePreemption,
		StrictFCFS:       cfg.StrictFCFS,
		CostBenefit:      cfg.CostBenefit,
		EnableLog:        cfg.LogDecisions,
		FullRedistribute: cfg.FullRedistribute,
	}, (*simActuator)(s), func() time.Time {
		return epoch.Add(model.Duration(s.now))
	})
	if err != nil {
		return nil, err
	}
	s.sched = sched
	return s, nil
}

// allocJob hands out a pooled simJob with its recycle-safe seq and slab-slot
// ref preserved. A fresh slot registers itself in the byRef directory.
func (s *Simulator) allocJob() *simJob {
	if n := len(s.freeJobs); n > 0 {
		sj := s.freeJobs[n-1]
		s.freeJobs = s.freeJobs[:n-1]
		return sj
	}
	if s.slabUsed == len(s.slab) {
		s.slab = make([]simJob, jobSlabSize)
		s.slabUsed = 0
	}
	sj := &s.slab[s.slabUsed]
	s.slabUsed++
	sj.ref = int32(len(s.byRef))
	s.byRef = append(s.byRef, sj)
	s.cold = append(s.cold, simJobCold{})
	return sj
}

// newSimJob builds the simulation record for one submission. widx is the
// job's index in the workload (for retained-mode collection).
func (s *Simulator) newSimJob(js *workload.JobSpec, spec model.Spec, widx int32) *simJob {
	sj := s.allocJob()
	// Bumping seq past the previous lifecycle invalidates any stale
	// completion event still in the heap for a recycled slot.
	seq := sj.seq + 1
	*sj = simJob{seq: seq, ref: sj.ref, widx: widx,
		steps: float64(spec.Steps), grid: int32(spec.Grid), submitAt: js.SubmitAt}
	sj.job = core.Job{
		ID:          js.ID,
		Ref:         sj.ref,
		Priority:    js.Priority,
		MinReplicas: spec.MinReplicas,
		MaxReplicas: spec.MaxReplicas,
		SubmitTime:  epoch.Add(model.Duration(js.SubmitAt)),
	}
	if s.ranks != nil && widx >= 0 {
		sj.job.IDRank = s.ranks[widx]
	}
	if sj.job.MaxReplicas > s.cfg.Capacity {
		sj.job.MaxReplicas = s.cfg.Capacity
	}
	c := &s.cold[sj.ref]
	c.meta = JobMetrics{ID: js.ID, Class: js.Class, Priority: js.Priority, SubmitAt: js.SubmitAt}
	c.timeline = c.timeline[:0]
	return sj
}

// push arms an event.
func (s *Simulator) push(at float64, kind evKind, job *simJob, seq int64) {
	s.ord++
	s.events.push(evKey{at: at, ord: s.ord}, evPayload{job: job, seq: seq, kind: kind})
}

// Run simulates the workload to completion and returns the metrics.
//
// Event ordering at equal timestamps is fixed and documented: capacity
// events apply first (in trace order), then submissions (in workload
// order), then completions and kicks (in push order) — so a capacity drop
// and a submission at the same instant always see the drop land before the
// job is placed, and replaying the same trace is bit-for-bit reproducible.
//
// The sequential run (Config.Shards == 1) is the stepping API's Begin
// followed by Finish — one loop driver for batch and stepped runs. Any other
// Shards goes through the epoch planner (see shard.go), which shards the run
// or hands it to that same loop; decisions, the Result and Processed() are
// bit-identical either way.
func (s *Simulator) Run(w workload.Workload) (Result, error) {
	if s.cfg.Shards != 1 {
		return s.runSharded(w)
	}
	if err := s.Begin(w); err != nil {
		return Result{}, err
	}
	return s.Finish()
}

// submissionOrder returns the workload's indices in stable submission-time
// order: equal submission times keep workload order, and submissions sort
// before same-instant completions/kicks.
func submissionOrder(w workload.Workload) []int32 {
	order := make([]int32, len(w.Jobs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return w.Jobs[order[a]].SubmitAt < w.Jobs[order[b]].SubmitAt
	})
	return order
}

// submissionRanks interns the ID tie-break for the scheduler's comparator:
// within each group of jobs sharing a submission instant (at the scheduler's
// nanosecond clock resolution, the only granularity at which the ID
// tie-break can fire) the IDs are sorted once and each job gets its sort
// position as core.Job.IDRank, turning every hot-path tie-break from a
// string compare into an integer compare with identical ordering. Groups
// containing duplicate IDs are left at rank zero so the comparator falls
// back to the sequential string compare. Measured with bench/ (alternating
// 5 s pairs): without the ranks burst_backlog loses 2.0 % of jobs_per_s
// (551.9 k → 541.1 k, behind in 6 pairs of 6).
func submissionRanks(w workload.Workload, order []int32) []int32 {
	ranks := make([]int32, len(w.Jobs))
	var group []int32
	for i := 0; i < len(order); {
		at := model.Duration(w.Jobs[order[i]].SubmitAt)
		j := i + 1
		for j < len(order) && model.Duration(w.Jobs[order[j]].SubmitAt) == at {
			j++
		}
		if j-i > 1 {
			group = append(group[:0], order[i:j]...)
			sort.Slice(group, func(a, b int) bool {
				return w.Jobs[group[a]].ID < w.Jobs[group[b]].ID
			})
			dup := false
			for k := 1; k < len(group); k++ {
				if w.Jobs[group[k]].ID == w.Jobs[group[k-1]].ID {
					dup = true
					break
				}
			}
			if !dup {
				for r, widx := range group {
					ranks[widx] = int32(r)
				}
			}
		}
		i = j
	}
	return ranks
}

// window bounds what one runWindow call may consume: the submission indices
// below subHi, the availability events below capHi, and heap events before
// horizon. final marks the run's last window, whose trailing capacity events
// are skipped.
type window struct {
	subHi, capHi int
	horizon      float64
	final        bool
}

// prepare installs the workload and a first window that starts at submission
// index subLo and availability event capLo. ranks may be nil (no ID-rank
// interning). Both cursors only move forward from there; extend moves the
// window's far edge.
func (s *Simulator) prepare(w workload.Workload, order, ranks []int32, specs map[model.Class]model.Spec,
	subLo, capLo int, win window) {
	s.w = w
	s.order = order
	s.ranks = ranks
	s.specs = specs
	s.cursor, s.capi = subLo, capLo
	s.extend(win)
	// Size the decision ring once: a window of its own for a shard epoch, the
	// whole workload otherwise (Begin's window is empty and only grows).
	jobs := win.subHi - subLo
	if jobs <= 0 {
		jobs = len(order) - subLo
	}
	s.sched.ReserveLog(decisionsPerJob * jobs)
	// Equal-timestamp events coalesce into one scheduler pass: the kick
	// re-arm (an O(running) gap scan) runs once per batch instead of per
	// event. Mid-batch state can only matter to a kick when priorities
	// drift with time (aging), preemption can fire without a gap check, or
	// a cost/benefit gate consults time-varying progress — in those
	// configurations every event re-arms individually: forcing them through
	// the coalescing path changes the Result or the decisions of 93 of 6,400
	// aging / preemption / cost-benefit cells. Whether the run is logged is
	// not one of them: a kick that starts nothing appends nothing to the log.
	s.deferKicks = s.cfg.AgingRate == 0 && !s.cfg.EnablePreemption && s.cfg.CostBenefit == nil
	s.limit = 5_000_000 + 64*len(w.Jobs) + 16*len(s.cfg.Availability.Events)
}

// extend moves the window's far edge: the next epoch when the reconciliation
// pass re-executes a successor on the live chain, the next step of a stepped
// run, the whole remainder in Finish.
func (s *Simulator) extend(win window) {
	s.subHi, s.capHi = win.subHi, win.capHi
	s.horizon = win.horizon
	s.final = win.final
}

// runWindow drives the event loop over the prepared cursor window until the
// window's submissions and capacity events are consumed and no heap event
// remains before the horizon. A non-final window force-applies its trailing
// capacity events even after its own work has drained (sequentially they
// would apply while later submissions are still pending); the final window
// skips them: nothing is left for them to affect.
func (s *Simulator) runWindow() error {
	w := s.w
	avail := s.cfg.Availability.Events
	for {
		if s.capi < s.capHi &&
			(!s.final || s.cursor < s.subHi || s.events.len() > 0 ||
				s.sched.NumRunning() > 0 || s.sched.NumQueued() > 0) {
			// Trailing capacity events after all work has drained are
			// skipped in the final window (the guard above): they cannot
			// affect any metric.
			at := avail[s.capi].At
			if (s.cursor >= s.subHi || at <= w.Jobs[s.order[s.cursor]].SubmitAt) &&
				(s.events.len() == 0 || at <= s.events.topAt()) {
				s.advanceTo(at)
				for {
					ev := avail[s.capi]
					s.capi++
					s.processed++
					if err := s.applyCapacity(ev.Capacity); err != nil {
						return err
					}
					if !s.deferKicks || s.capi >= s.capHi || avail[s.capi].At != at {
						break
					}
				}
				s.scheduleKick()
				continue
			}
		}
		if s.cursor < s.subHi {
			at := w.Jobs[s.order[s.cursor]].SubmitAt
			if s.events.len() == 0 || at <= s.events.topAt() {
				s.advanceTo(at)
				for {
					widx := s.order[s.cursor]
					js := &w.Jobs[widx]
					s.cursor++
					s.processed++
					sj := s.newSimJob(js, s.specs[js.Class], widx)
					if err := s.sched.Submit(&sj.job); err != nil {
						return err
					}
					if !s.deferKicks || s.cursor >= s.subHi || w.Jobs[s.order[s.cursor]].SubmitAt != at {
						break
					}
				}
				s.scheduleKick()
				continue
			}
		}
		if s.events.len() == 0 || s.events.topAt() >= s.horizon {
			// Window drained: nothing left before the horizon. Heap
			// events at or past it (stale kicks or stale completions,
			// at most — both bitwise no-ops) belong to the successor
			// epoch's timeline and are resolved by the reconciliation
			// pass.
			return nil
		}
		s.processed++
		if s.processed > s.limit {
			// Defensive: a finite workload must settle in far fewer
			// events; fail loudly rather than spin.
			return fmt.Errorf("sim: runaway event loop at t=%.1f: %d running, %d queued, %d heap",
				s.now, s.sched.NumRunning(), s.sched.NumQueued(), s.events.len())
		}
		if s.processed&255 == 0 && s.abandoned.Load() {
			return errEpochAbandoned
		}
		k, p := s.events.pop()
		if p.kind == evKick {
			// Skip superseded kicks, and kicks armed for a moment
			// beyond the workload's life — before advancing the
			// clock, so they don't distort the utilization window.
			if k.at != s.kickAt {
				continue
			}
			if s.sched.NumRunning() == 0 && s.sched.NumQueued() == 0 {
				s.kickAt = -1
				continue
			}
		}
		if p.kind == evComplete && p.seq != p.job.seq {
			// Stale completion from before a rescale: drop it before
			// advancing the clock, like superseded kicks, so the
			// utilization integral's term boundaries are a pure function
			// of live events — an adopted shard epoch never sees its
			// predecessor's parked stale events, and must fold the same
			// float terms as the sequential loop.
			continue
		}
		s.advanceTo(k.at)
		switch p.kind {
		case evComplete:
			sj := p.job
			s.progress(sj)
			// Release the job's workers in the utilization timeline
			// before the scheduler hands them to other jobs.
			s.record(-sj.job.Replicas, sj, 0)
			s.sched.OnJobComplete(&sj.job)
			s.finish(sj)
			if s.sched.NumRunning() == 0 && s.sched.NumQueued() == 0 {
				// The cluster fully drained: fold the open sub-accumulators
				// into the run totals. Drained instants are the only places
				// a shard cut can be adopted, so sealing here — in every
				// mode — keeps the fold grouping identical everywhere.
				s.seal()
			}
		case evKick:
			s.kickAt = -1
			s.sched.Reschedule()
		}
		s.scheduleKick()
	}
}

// finish folds a completed job into the aggregate metrics — from the hot
// record alone — then back-fills the cold metadata for collection and, in
// streaming mode, recycles the record instead.
func (s *Simulator) finish(sj *simJob) {
	resp := sj.startAt - sj.submitAt
	comp := s.now - sj.submitAt
	if s.now > s.lastEnd {
		s.lastEnd = s.now
	}
	wgt := float64(sj.job.Priority)
	s.finWSub += wgt
	s.finRespSub += wgt * resp
	s.finCompSub += wgt * comp
	s.completed++
	if s.cfg.Streaming {
		s.freeJobs = append(s.freeJobs, sj)
		return
	}
	m := &s.cold[sj.ref].meta
	m.Replicas = int(sj.peak)
	m.StartAt = sj.startAt
	m.EndAt = s.now
	m.ResponseTime = resp
	m.CompletionTime = comp
}

// Decisions returns the scheduler's decision log, oldest first. Empty unless
// Config.LogDecisions is set. After a sharded run the segments' logs are
// merged in epoch order with the same bounded-ring semantics (newest 100k),
// so the log is identical to the sequential mode's.
func (s *Simulator) Decisions() []core.Decision {
	if s.mergedDecisions != nil {
		return s.mergedDecisions
	}
	return s.sched.Log()
}

// scheduleKick arms a kick event at the next rescale-gap expiry that could
// unblock a scheduling action, modelling the operator's requeue-driven
// reconcile loop. A millisecond of slack is added so the float-seconds event
// time always lands strictly past the scheduler's nanosecond gap deadline.
func (s *Simulator) scheduleKick() {
	at, ok := s.sched.NextGapExpiry()
	if !ok {
		return
	}
	t := at.Sub(epoch).Seconds() + 1e-3
	if s.kickAt >= 0 && s.kickAt <= t {
		return // an earlier (or equal) kick is already pending
	}
	s.kickAt = t
	s.push(t, evKick, nil, 0)
}

// applyCapacity drives one availability event through the scheduler. The
// scheduler's forced reclaim calls back into the actuator, which recomputes
// completion events and charges overhead exactly as policy rescales do.
func (s *Simulator) applyCapacity(newCap int) error {
	if err := s.sched.SetCapacity(newCap); err != nil {
		return fmt.Errorf("sim: capacity event at t=%.1f: %w", s.now, err)
	}
	s.capEvents++
	s.capSteps = append(s.capSteps, UtilSample{At: s.now, Used: newCap})
	return nil
}

// CapacityArea integrates a capacity step function over [0, end] seconds:
// base capacity until the first step, then each step's Used value from its
// At onward. It is the utilization denominator both backends use when the
// cluster's slot count varies — shared so the simulator and the emulation
// can never drift apart on how delivered capacity is measured.
func CapacityArea(base float64, steps []UtilSample, end float64) float64 {
	area := 0.0
	prevAt, prevCap := 0.0, base
	for _, st := range steps {
		at := st.At
		if at > end {
			at = end
		}
		if at > prevAt {
			area += prevCap * (at - prevAt)
			prevAt = at
		}
		if st.At >= end {
			return area
		}
		prevCap = float64(st.Used)
	}
	if end > prevAt {
		area += prevCap * (end - prevAt)
	}
	return area
}

// advanceUtil accumulates the utilization integral up to t. Zero terms
// (idle time, repeated samples at one instant) add exactly +0.0 to a
// non-negative accumulator — a bitwise no-op — so they are skipped: the
// nonzero terms alone, folded in order, reproduce the full sum bit-for-bit
// (and an adopted epoch's trailing idle stretch contributes nothing, which
// keeps its seal sequence identical to the sequential loop's).
func (s *Simulator) advanceUtil(t float64) {
	if d := float64(s.used) * (t - s.utilLast); d != 0 {
		s.utilSub += d
	}
	s.utilLast = t
}

// advanceTo moves simulated time forward, accumulating the utilization
// integral.
func (s *Simulator) advanceTo(t float64) {
	if t < s.now {
		t = s.now
	}
	s.advanceUtil(t)
	s.now = t
}

// progressFraction estimates a job's completed fraction at the current sim
// time without mutating its state — the default Progress source for the
// cost/benefit gate.
func (s *Simulator) progressFraction(j *core.Job) float64 {
	if int(j.Ref) >= len(s.byRef) {
		return 0
	}
	sj := *s.byRef[j.Ref] // a copy: the estimate must not move the job's clock
	if sj.steps == 0 {
		return 0
	}
	s.progress(&sj)
	return sj.itersDone / sj.steps
}

// progress brings a job's iteration count up to date at the current time.
func (s *Simulator) progress(sj *simJob) {
	from := sj.lastUpdate
	if sj.frozenUntil > from {
		from = sj.frozenUntil
	}
	if s.now > from && sj.job.Replicas > 0 {
		iterTime := s.cfg.Machine.IterTime(int(sj.grid), sj.job.Replicas)
		sj.itersDone += (s.now - from) / iterTime
		if sj.itersDone > sj.steps {
			sj.itersDone = sj.steps
		}
	}
	sj.lastUpdate = s.now
}

// reschedule recomputes a job's completion event from its remaining work at
// the given replica count, charging overhead seconds of frozen time first.
func (s *Simulator) reschedule(sj *simJob, overhead float64, replicas int) {
	sj.seq++
	start := s.now + overhead
	sj.frozenUntil = start
	remaining := sj.steps - sj.itersDone
	iterTime := s.cfg.Machine.IterTime(int(sj.grid), replicas)
	finish := start + remaining*iterTime
	s.push(finish, evComplete, sj, sj.seq)
}

// record tracks an allocation change of delta worker slots for the
// utilization accounting and, outside streaming mode, appends the sample to
// the utilization and per-job replica timelines.
func (s *Simulator) record(delta int, sj *simJob, replicas int) {
	s.advanceUtil(s.now)
	s.used += delta
	if int32(replicas) > sj.peak {
		sj.peak = int32(replicas) // peak allocation
	}
	if !s.cfg.Streaming {
		s.utilTL = append(s.utilTL, UtilSample{At: s.now, Used: s.used})
		c := &s.cold[sj.ref]
		c.timeline = append(c.timeline, ReplicaSample{At: s.now, Replicas: replicas})
	}
}

// simActuator implements core.Actuator on the simulator. Methods run inside
// scheduler calls, which run inside event handling — single-threaded.
type simActuator Simulator

func (a *simActuator) sim() *Simulator { return (*Simulator)(a) }

func (a *simActuator) StartJob(j *core.Job, replicas int) error {
	s := a.sim()
	sj := s.byRef[j.Ref]
	if !sj.started {
		sj.started = true
		sj.startAt = s.now
		if !s.haveStart || s.now < s.firstStart {
			s.haveStart = true
			s.firstStart = s.now
		}
	}
	resumeOverhead := 0.0
	if j.State == core.StatePreempted || sj.migratedCkpt {
		sj.migratedCkpt = false
		// Restarting from a disk checkpoint: charge restart+restore.
		ph := s.cfg.Machine.RescaleOverhead(int(sj.grid), replicas, replicas)
		resumeOverhead = ph.Restart + ph.Restore
		area := resumeOverhead * float64(replicas)
		s.ovhSub += area
		if sj.forcedOut {
			sj.forcedOut = false
			s.lostSub += area
		}
	}
	sj.lastUpdate = s.now
	s.record(replicas, sj, replicas)
	s.reschedule(sj, resumeOverhead, replicas)
	return nil
}

func (a *simActuator) ShrinkJob(j *core.Job, to int) error {
	return a.rescale(j, to)
}

func (a *simActuator) ExpandJob(j *core.Job, to int) error {
	return a.rescale(j, to)
}

func (a *simActuator) rescale(j *core.Job, to int) error {
	s := a.sim()
	sj := s.byRef[j.Ref]
	s.progress(sj) // credit progress at the old replica count first
	ph := s.cfg.Machine.RescaleOverhead(int(sj.grid), j.Replicas, to)
	tot := ph.Total()
	delta := to - j.Replicas
	if !s.cfg.Streaming {
		m := &s.cold[sj.ref].meta
		m.Rescales++
		m.OverheadSec += tot
	}
	area := tot * float64(to)
	s.ovhSub += area
	if s.sched.Reclaiming() {
		// The shrink was forced by a capacity loss, not chosen by the
		// policy: its frozen window is work the availability event cost.
		s.lostSub += area
	}
	s.record(delta, sj, to)
	s.reschedule(sj, tot, to)
	return nil
}

func (a *simActuator) PreemptJob(j *core.Job) error {
	s := a.sim()
	sj := s.byRef[j.Ref]
	s.progress(sj)
	// Checkpoint-to-store cost is charged when the job resumes; stopping
	// invalidates the completion event.
	sj.seq++
	if s.sched.Reclaiming() {
		sj.forcedOut = true
	}
	s.record(-j.Replicas, sj, 0)
	return nil
}

// resultFromTotals derives the aggregate Result fields from the simulator's
// accumulated integrals. After a sharded run the facade simulator holds the
// replayed (exactly sequential) fold of every segment's terms, so both modes
// share this derivation bit-for-bit. cs and endCap come from the owning
// scheduler (sequential) or the segment merge (sharded).
func (s *Simulator) resultFromTotals(cs core.CapacityStats, endCap int) Result {
	// Fold any unsealed tail first. After a batch run this adds exact zeros
	// (the last completion drained the cluster and sealed), so it is a
	// bitwise no-op there; stepping-API runs that end without a final
	// completion (withdrawals) land their open sub-runs here.
	s.seal()
	res := Result{Policy: s.cfg.Policy}
	res.TotalTime = s.lastEnd - s.firstStart
	res.FirstStart = s.firstStart
	res.LastEnd = s.lastEnd
	res.UsedSlotSec = s.utilArea
	res.WeightSum = s.wSum
	res.EndCapacity = endCap
	// Utilization over the experiment window [0, lastEnd]: no work happens
	// after the last completion, so the accumulated area is complete. With
	// availability events the denominator is the capacity the cluster
	// actually delivered over the window; without any, the closed form is
	// the value every fixed-capacity golden pins.
	if s.lastEnd > 0 {
		if len(s.capSteps) == 0 {
			res.DeliveredSlotSec = float64(s.cfg.Capacity) * s.lastEnd
		} else {
			res.DeliveredSlotSec = CapacityArea(float64(s.cfg.Capacity), s.capSteps, s.lastEnd)
		}
		res.Utilization = s.utilArea / res.DeliveredSlotSec
	}
	if s.wSum > 0 {
		res.WeightedResponse = s.wResp / s.wSum
		res.WeightedCompletion = s.wComp / s.wSum
	}
	res.CapacityEvents = s.capEvents
	res.ForcedShrinks = cs.ForcedShrinks
	res.Requeues = cs.Requeues
	res.WorkLostSec = s.workLost
	res.GoodputFrac = 1
	if s.utilArea > 0 {
		res.GoodputFrac = 1 - s.overheadArea/s.utilArea
	}
	return res
}

// collect finalizes the metrics accumulated during a sequential run. The
// expected completion count is the workload's job count adjusted by the
// stepping API's migration counters (jobs injected from, or withdrawn to,
// other federation members) — both zero on the batch path.
func (s *Simulator) collect(w workload.Workload) (Result, error) {
	if expected := len(w.Jobs) + s.injected - s.withdrawn; s.completed != expected {
		return Result{Policy: s.cfg.Policy}, unfinished(s.completed, expected, s)
	}
	res := s.resultFromTotals(s.sched.CapacityStats(), s.sched.Capacity())
	if !s.cfg.Streaming {
		res.UtilTimeline = s.utilTL
		if s.injected == 0 && s.withdrawn == 0 {
			retainedRecords(&res, len(w.Jobs), s)
		} else {
			// Migration reshaped the job set: workload indices no longer
			// cover it (injected jobs carry widx -1, withdrawn slots never
			// completed), so gather the jobs that completed here and order
			// them deterministically by (SubmitAt, ID).
			res.Jobs = make([]JobMetrics, 0, s.completed)
			res.ReplicaTimelines = make(map[string][]ReplicaSample, s.completed)
			for i, sj := range s.byRef {
				if sj.job.State != core.StateCompleted {
					continue
				}
				c := &s.cold[i]
				res.Jobs = append(res.Jobs, c.meta)
				res.ReplicaTimelines[c.meta.ID] = c.timeline
			}
			sort.Slice(res.Jobs, func(a, b int) bool {
				if res.Jobs[a].SubmitAt != res.Jobs[b].SubmitAt {
					return res.Jobs[a].SubmitAt < res.Jobs[b].SubmitAt
				}
				return res.Jobs[a].ID < res.Jobs[b].ID
			})
		}
	}
	return res, nil
}

// unfinished is the error of a run that completed fewer jobs than expected:
// it names the first job, over the simulators' slots in order, that ended
// neither completed nor withdrawn, or failing that the two counts.
func unfinished(completed, expected int, sims ...*Simulator) error {
	for _, sg := range sims {
		for _, sj := range sg.byRef {
			if st := sj.job.State; st != core.StateCompleted && st != core.StateWithdrawn {
				return fmt.Errorf("sim: job %s ended in state %v", sj.job.ID, st)
			}
		}
	}
	return fmt.Errorf("sim: %d of %d jobs completed", completed, expected)
}

// retainedRecords fills res.Jobs and res.ReplicaTimelines from simulators
// that between them ran every job of an n-job workload and moved none.
// Retained mode never recycles slots, so byRef holds every job a simulator
// ran; widx places each record back in workload order.
func retainedRecords(res *Result, n int, sims ...*Simulator) {
	res.Jobs = make([]JobMetrics, n)
	res.ReplicaTimelines = make(map[string][]ReplicaSample, n)
	for _, sg := range sims {
		for i, sj := range sg.byRef {
			c := &sg.cold[i]
			res.Jobs[sj.widx] = c.meta
			res.ReplicaTimelines[c.meta.ID] = c.timeline
		}
	}
}

// Run constructs a simulator for cfg and runs w to completion — the entry
// point of every caller that wants the Result and not the simulator.
func Run(cfg Config, w workload.Workload) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(w)
}
