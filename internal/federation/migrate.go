package federation

import (
	"fmt"
	"math"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// This file is the fleet-level rebalancer: the elastic-fleet loop that makes
// a router placement provisional instead of final. The member simulators
// co-simulate in barrier-synchronized rounds (StepTo on every member, in
// parallel, to the same instant), and between rounds the rebalancer
// checkpoint-migrates queued — then, on draining members, running — jobs
// from backlogged or capacity-losing members to members that can finish
// them sooner, lifting core.Preempt to the federation layer.
//
// A round decides from counts and touches individual jobs only to move them.
// What it reads of a member is capacity, allocation and a per-class count of
// the wait queue (sim.QueuedByClass: counters the queue keeps, no walk); a
// queue is materialised only for a donor some present class of which has a
// receiver that would still drain sooner, and then only the entries of such
// classes, popped off a heap in victim order until none can move. Everything
// that is constant for the run — specs, capacities, traces, the
// [member][class] work table — lives on the rebalancer, as do the round's
// buffers.
//
// Determinism contract: a rebalanced run is a pure function of (Config,
// workload). Every round observes the members in index order, takes its
// victims in a total deterministic order, applies moves sequentially, and
// only then lets the members advance again — so repeated runs, and runs at
// any Workers count, produce identical Migrations logs and bit-identical
// fleet Results. The per-member advancement between barriers is the same
// single-threaded event loop as a batch run.

// DefaultRebalanceThreshold is the relative backlog-drain-time excess over
// the fleet mean that marks a member a migration donor (25%).
const DefaultRebalanceThreshold = 0.25

// maxStagnantRounds bounds rounds in which no member processed an event and
// no job moved before the rebalancer declares the fleet stalled — a
// defensive limit (a finite workload always makes progress or drains).
const maxStagnantRounds = 1000

// RebalanceConfig parameterizes the fleet rebalancer.
type RebalanceConfig struct {
	// Every is the rebalance round period in seconds; <= 0 disables the
	// rebalancer entirely (the zero value keeps the batch federation path).
	Every float64
	// MigrateRunning also checkpoint-preempts running jobs off draining
	// members — members whose availability trace is about to drop capacity
	// below their running allocation — and migrates them with their
	// completed iterations instead of letting the capacity event force a
	// local requeue.
	MigrateRunning bool
}

func (rc RebalanceConfig) enabled() bool { return rc.Every > 0 }

func (rc RebalanceConfig) validate() error {
	if rc.Every < 0 || math.IsNaN(rc.Every) || math.IsInf(rc.Every, 0) {
		return fmt.Errorf("federation: rebalance period %v", rc.Every)
	}
	return nil
}

// Migration is one job move in the rebalancer's decision log. Its JSON tags
// are the conformance stream's migration fields, so a log is serialized as
// it was recorded.
type Migration struct {
	Round int     `json:"round"` // 1-based rebalance round
	At    float64 `json:"at_s"`  // fleet instant of the move
	JobID string  `json:"job"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	// Checkpointed marks a job that had already run on the donor: it
	// migrated with its checkpoint and pays restart+restore on the
	// receiver. Queued-never-started jobs move for free.
	Checkpointed bool `json:"checkpointed,omitempty"`
}

// RebalanceStats counts what the rebalancer looked at and did — pure
// functions of (Config, workload), identical at every Workers value (so
// whether a round stepped inline or in parallel is deliberately not here).
type RebalanceStats struct {
	Rounds        int // barrier rounds the rebalancer examined (the draining last round is not one)
	DonorRounds   int // of those, rounds with at least one donor
	Snapshots     int // wait queues materialised
	EntriesCopied int // queue entries those snapshots copied
	ReceiverEvals int // receiver scans: every other member scored for one job class
	MovesTried    int // victims offered to a receiver
	MovesMade     int // victims moved: len(Migrations)
}

const nClasses = int(model.XLarge) + 1

// memberState is what a round knows of one member at the barrier.
type memberState struct {
	eff     int           // capacity right now (after applied availability events)
	effNext int           // capacity the trace delivers one round from now
	plan    float64       // planning capacity: min(eff, effNext), ≥ 1 slot
	drainT  float64       // queued work over plan — the backlog drain-time estimate
	used    int           // running jobs' allocated slots
	waiting [nClasses]int // waiting jobs per class
	queued  int           // waiting jobs in all
}

// A receiver verdict for one job class off the current donor: a member
// index, or one of these.
const (
	verdictUnknown = -2
	verdictNone    = -1
)

// memberRef names one job slot of one member.
type memberRef struct {
	member int
	ref    int32
}

// rebalancer is the per-run coordinator: the members, the migration log, and
// everything that does not change between rounds, computed once.
type rebalancer struct {
	rb     RebalanceConfig
	sims   []*sim.Simulator
	counts []int // jobs per member, net of migrations
	migs   []Migration
	stats  RebalanceStats

	// Constant for the run.
	minPE    [nClasses]int
	capacity []int
	avail    []workload.AvailabilityTrace
	work     [][nClasses]float64 // queuedWork by member and class

	// The barrier: Config.Workers, the instant the members are stepping to,
	// and the step task (built once, so an inline round allocates nothing).
	workers int
	t       float64
	step    func(i int) error

	// Reused every round.
	states  []memberState
	victims []sim.QueuedJob
	// fresh holds the jobs injected this round: they were not waiting on
	// their receiver when the round observed it, so they are not its victims
	// should it turn donor later in the round.
	fresh map[memberRef]bool
	seen  map[int32]bool
	// verdict caches the receiver scan per class for the donor being
	// processed. A scan reads only the class and states, and states change
	// only on an accepted move, so a positive verdict holds until the next
	// move. A negative one holds for the rest of the donor: moves only lower
	// the donor's drain time and raise receivers', so a class no receiver
	// would take now is one no receiver will take later.
	verdict [nClasses]int
}

// parallelWorthEvents is the due work (sim.DueBefore summed over the
// members) from which a round is stepped through sim.RunTasks instead of
// inline. A RunTasks round costs the caller ≈ 16 µs in goroutine start and
// join on the 2-vCPU reference VM (the 16 k-job migration fleet with every
// round parallel against none: 64 vs 30 ms over 2,074 rounds), a round's
// events cost bench's sim.ns_per_event (≈ 280 ns), and a second worker can at
// best halve a round, so below 2 × 16 µs / 280 ns ≈ 115 events it cannot pay.
// Measured on either side: that fleet's 200-job wave rounds (≈ 215 due) are
// ≈ 50 µs slower each in parallel, and BenchmarkRebalancedWideRounds'
// 1,000-job wave rounds make the run 15% faster at Workers 2 than inline.
// 256 sits between the two; the crossover is not located more finely.
const parallelWorthEvents = 256

func newRebalancer(cfg Config, backends []Member, sims []*sim.Simulator, counts []int) *rebalancer {
	n := len(sims)
	r := &rebalancer{
		rb: cfg.Rebalance, sims: sims, counts: counts,
		capacity: make([]int, n),
		avail:    make([]workload.AvailabilityTrace, n),
		work:     make([][nClasses]float64, n),
		workers:  cfg.Workers,
		states:   make([]memberState, n),
		fresh:    map[memberRef]bool{},
		seen:     map[int32]bool{},
	}
	specs := model.Specs()
	for c := range r.minPE {
		r.minPE[c] = specs[model.Class(c)].MinReplicas
	}
	for i, b := range backends {
		r.capacity[i] = b.Capacity()
		r.avail[i] = b.Availability()
		machine := b.Machine()
		for c := range r.work[i] {
			r.work[i][c] = queuedWork(machine, r.capacity[i], specs[model.Class(c)])
		}
	}
	r.step = func(i int) error {
		if err := r.sims[i].StepTo(r.t); err != nil {
			return fmt.Errorf("federation: member %d: %w", i, err)
		}
		return nil
	}
	return r
}

// advance is the barrier: every member steps to t. Members are independent
// between barriers, so stepping them in parallel is bit-identical to stepping
// them one by one, and a round too small to repay the goroutines does the
// latter.
func (r *rebalancer) advance(t float64) error {
	r.t = t
	if r.workers != 1 {
		due := 0
		for _, s := range r.sims {
			due += s.DueBefore(t)
		}
		if due >= parallelWorthEvents {
			return sim.RunTasks(len(r.sims), r.workers, r.step)
		}
	}
	for i := range r.sims {
		if err := r.step(i); err != nil {
			return err
		}
	}
	return nil
}

// roundFunc is the rebalancer's decision procedure at one barrier —
// (*rebalancer).round, or the reference the oracle test holds it to. It
// returns the number of jobs it moved.
type roundFunc func(r *rebalancer, t float64, round int) (int, error)

// runRebalanced is the rebalancing twin of Run: co-simulate the members in
// rounds of Config.Rebalance.Every seconds, migrating jobs at each barrier.
func runRebalanced(cfg Config, w workload.Workload, round roundFunc) (Result, error) {
	backends := cfg.backends()
	parts, _, err := Partition(cfg, w)
	if err != nil {
		return Result{}, err
	}
	n := len(backends)
	sims := make([]*sim.Simulator, n)
	for i, b := range backends {
		m, ok := b.(SimMember)
		if !ok {
			return Result{}, fmt.Errorf("federation: member %d (%T) cannot rebalance: only simulator-backed members are steppable", i, b)
		}
		// Stepping is sequential per member (the fleet parallelizes across
		// members instead): Begin/StepTo/Finish never read Config.Shards.
		s, err := sim.New(m.Config)
		if err != nil {
			return Result{}, fmt.Errorf("federation: member %d: %w", i, err)
		}
		if err := s.Begin(parts[i]); err != nil {
			return Result{}, fmt.Errorf("federation: member %d: %w", i, err)
		}
		sims[i] = s
	}
	counts := make([]int, n)
	for i := range parts {
		counts[i] = len(parts[i].Jobs)
	}

	r := newRebalancer(cfg, backends, sims, counts)
	rb := cfg.Rebalance
	rounds, stagnant := 0, 0
	t := rb.Every
	for {
		before := 0
		for _, s := range sims {
			before += s.Processed()
		}
		if err := r.advance(t); err != nil {
			return Result{}, err
		}
		rounds++
		drained := true
		for _, s := range sims {
			if !s.Drained() {
				drained = false
				break
			}
		}
		if drained {
			break
		}
		moved, err := round(r, t, rounds)
		if err != nil {
			return Result{}, err
		}
		after := 0
		for _, s := range sims {
			after += s.Processed()
		}
		if after == before && moved == 0 {
			stagnant++
			if stagnant > maxStagnantRounds {
				return Result{}, fmt.Errorf("federation: rebalancer stalled at t=%.1f after %d rounds", t, rounds)
			}
		} else {
			stagnant = 0
		}
		// Fleet fully idle with submissions still ahead: fast-forward the
		// round clock onto the Every-grid point just before the next
		// arrival instead of spinning through empty rounds.
		if next, ok := fleetNextSubmit(sims); ok && fleetIdle(sims) && next >= t+rb.Every {
			t += math.Floor((next-t)/rb.Every) * rb.Every
		}
		t += rb.Every
	}

	members := make([]sim.Result, n)
	decs := make([][]core.Decision, n)
	err = sim.RunTasks(n, cfg.Workers, func(i int) error {
		res, err := sims[i].Finish()
		if err != nil {
			return fmt.Errorf("federation: member %d: %w", i, err)
		}
		members[i], decs[i] = res, sims[i].Decisions()
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := aggregate(cfg, backends, counts, members)
	res.Migrations = r.migs
	res.RebalanceRounds = rounds
	res.RebalanceStats = r.stats
	res.MemberDecisions = memberDecisions(decs)
	return res, nil
}

func fleetIdle(sims []*sim.Simulator) bool {
	for _, s := range sims {
		if !s.Idle() {
			return false
		}
	}
	return true
}

func fleetNextSubmit(sims []*sim.Simulator) (float64, bool) {
	best, ok := 0.0, false
	for _, s := range sims {
		if at, has := s.NextSubmitAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// queuedWork is one waiting job's modelled slot-second demand on a member's
// own machine: runtime at the placement replica count times that count.
func queuedWork(m model.Machine, capacity int, spec model.Spec) float64 {
	minPE := spec.MinReplicas
	if minPE > capacity {
		minPE = capacity
	}
	return m.JobRuntime(spec, minPE) * float64(minPE)
}

// victimBefore orders a donor's migration candidates: lowest priority first
// (they would wait longest locally and cost the least to move), ties broken
// by later submission, then ID, then slot — a total deterministic order.
func victimBefore(a, b *sim.QueuedJob) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.SubmitAt != b.SubmitAt {
		return a.SubmitAt > b.SubmitAt
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Ref < b.Ref
}

// siftVictim restores the min-heap (by victimBefore) below index i.
func siftVictim(h []sim.QueuedJob, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && victimBefore(&h[c+1], &h[c]) {
			c++
		}
		if !victimBefore(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// observe reads every member at the barrier instant t into r.states and
// returns the fleet's mean drain time.
func (r *rebalancer) observe(t float64) float64 {
	mean := 0.0
	for i, s := range r.sims {
		st := &r.states[i]
		*st = memberState{eff: s.CurrentCapacity(), used: s.UsedSlots(), waiting: s.QueuedByClass()}
		st.effNext = st.eff
		if len(r.avail[i].Events) > 0 {
			st.effNext = r.avail[i].CapacityAt(r.capacity[i], t+r.rb.Every)
		}
		st.plan = float64(max(min(st.eff, st.effNext), 1))
		// A float sum depends on its order, and results are pinned to this
		// one: one job at a time, classes ascending.
		work := 0.0
		for c, n := range st.waiting {
			st.queued += n
			for w := r.work[i][c]; n > 0; n-- {
				work += w
			}
		}
		st.drainT = work / st.plan
		mean += st.drainT
	}
	return mean / float64(len(r.sims))
}

// round observes every member at the barrier instant t, picks donors
// (backlogged beyond threshold, or draining), and migrates victims to the
// receivers that can finish them soonest. Returns the number of jobs moved.
// The members are observed before anything moves, and a donor's queue, read
// when its turn comes, is taken net of what the round itself injected — what
// it held at the barrier — so the decision sequence is a pure function of
// the barrier state.
func (r *rebalancer) round(t float64, round int) (int, error) {
	mean := r.observe(t)
	clear(r.fresh)
	r.stats.Rounds++
	moved, anyDonor := 0, false
	// evacuate offers the heap of victims in r.victims to receivers, in
	// victim order, until the heap is spent.
	evacuate := func(donor int) error {
		for len(r.victims) > 0 {
			v := r.popVictim()
			ok, err := r.tryMove(donor, v, t, round)
			if err != nil {
				return err
			}
			if ok {
				moved++
			} else {
				// v's class just lost its last receiver for this donor.
				r.heapVictims(func(q *sim.QueuedJob) bool { return q.Class != v.Class })
			}
		}
		return nil
	}
	for donor := range r.states {
		st := &r.states[donor]
		backlogged := st.drainT > mean*(1+DefaultRebalanceThreshold) && st.queued > 0
		draining := st.effNext < st.eff
		if !backlogged && !draining {
			continue
		}
		anyDonor = true
		for c := range r.verdict {
			r.verdict[c] = verdictUnknown
		}
		// Phase 1: evacuate the jobs that were waiting when the round
		// observed the donor — if any of them could move at all.
		movable := false
		for c, n := range st.waiting {
			if n > 0 && r.receiver(donor, model.Class(c)) >= 0 {
				movable = true
			}
		}
		if movable {
			r.snapshot(donor)
			r.heapVictims(func(q *sim.QueuedJob) bool {
				return r.verdict[q.Class] != verdictNone && !r.fresh[memberRef{donor, q.Ref}]
			})
			if err := evacuate(donor); err != nil {
				return moved, err
			}
		}
		// Phase 2: a draining member whose running allocation will not fit
		// after the drop checkpoint-preempts the deficit (core.Preempt
		// lifted to the fleet) and migrates the evicted jobs too — along
		// with anything it was handed earlier in this round.
		if r.rb.MigrateRunning && draining && st.used > st.effNext {
			r.snapshot(donor)
			clear(r.seen)
			for _, q := range r.victims {
				if !r.fresh[memberRef{donor, q.Ref}] {
					r.seen[q.Ref] = true
				}
			}
			if r.sims[donor].Preempt(st.used-st.effNext) > 0 {
				r.snapshot(donor)
				r.heapVictims(func(q *sim.QueuedJob) bool {
					return r.verdict[q.Class] != verdictNone && !r.seen[q.Ref]
				})
				if err := evacuate(donor); err != nil {
					return moved, err
				}
			}
		}
	}
	if anyDonor {
		r.stats.DonorRounds++
	}
	if moved > 0 {
		// Donors freed queue entries (and possibly slots); receivers got
		// new submissions. One scheduling pass per member, in index order,
		// lets everyone act on the new state at exactly t.
		for _, s := range r.sims {
			s.Kick()
		}
	}
	return moved, nil
}

// snapshot materialises donor's wait queue into r.victims.
func (r *rebalancer) snapshot(donor int) {
	r.victims = r.sims[donor].AppendQueuedJobs(r.victims[:0])
	r.stats.Snapshots++
	r.stats.EntriesCopied += len(r.victims)
}

// heapVictims drops the entries of r.victims that keep rejects and arranges
// the rest as a min-heap in victim order: a donor's queue is never sorted,
// only popped for as long as victims keep moving.
func (r *rebalancer) heapVictims(keep func(q *sim.QueuedJob) bool) {
	h := r.victims[:0]
	for i := range r.victims {
		if keep(&r.victims[i]) {
			h = append(h, r.victims[i])
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftVictim(h, i)
	}
	r.victims = h
}

// popVictim removes the first victim in victim order from the heap.
func (r *rebalancer) popVictim() sim.QueuedJob {
	h := r.victims
	v := h[0]
	last := len(h) - 1
	h[0] = h[last]
	r.victims = h[:last]
	siftVictim(r.victims, 0)
	return v
}

// receiver is the member that would finish a class-c job off donor soonest
// and, even after absorbing it, still drain sooner than the donor does now —
// or verdictNone. Verdicts are cached per class (see rebalancer.verdict).
func (r *rebalancer) receiver(donor int, c model.Class) int {
	if v := r.verdict[c]; v != verdictUnknown {
		return v
	}
	r.stats.ReceiverEvals++
	recv := verdictNone
	best := r.states[donor].drainT
	for i := range r.states {
		if i == donor {
			continue
		}
		// Hardware fit: the receiver's base capacity must host the job at
		// all, and its planning capacity (which sees the next drain window)
		// must host the job's minimum now.
		if r.minPE[c] > r.capacity[i] || float64(r.minPE[c]) > r.states[i].plan {
			continue
		}
		if after := r.states[i].drainT + r.work[i][c]/r.states[i].plan; after < best {
			best, recv = after, i
		}
	}
	r.verdict[c] = recv
	return recv
}

// tryMove migrates one victim off donor to its class's receiver, if it has
// one, updating the round's bookkeeping. Returns whether a move happened.
func (r *rebalancer) tryMove(donor int, v sim.QueuedJob, t float64, round int) (bool, error) {
	r.stats.MovesTried++
	recv := r.receiver(donor, v.Class)
	if recv < 0 {
		return false, nil
	}
	mj, err := r.sims[donor].Withdraw(v.Ref)
	if err != nil {
		// The snapshot said the job was waiting; a failure here means the
		// coordinator and member disagree — a bug, not a routine miss.
		return false, fmt.Errorf("federation: round %d at t=%.1f: migrate %s off member %d: %w", round, t, v.ID, donor, err)
	}
	ref, err := r.sims[recv].Inject(mj)
	if err != nil {
		return false, fmt.Errorf("federation: round %d at t=%.1f: migrate %s to member %d: %w", round, t, v.ID, recv, err)
	}
	r.fresh[memberRef{recv, ref}] = true
	from, to := &r.states[donor], &r.states[recv]
	from.drainT -= r.work[donor][v.Class] / from.plan
	if from.drainT < 0 {
		from.drainT = 0
	}
	to.drainT += r.work[recv][v.Class] / to.plan
	for c, rc := range r.verdict {
		if rc >= 0 {
			r.verdict[c] = verdictUnknown
		}
	}
	r.counts[donor]--
	r.counts[recv]++
	r.migs = append(r.migs, Migration{
		Round: round, At: t, JobID: v.ID, From: donor, To: recv,
		Checkpointed: mj.Checkpointed,
	})
	r.stats.MovesMade++
	return true, nil
}
