package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refusingActuator accepts every call, or — with refuse set — refuses
// StartJob, ShrinkJob, ExpandJob and PreemptJob by a pure function of the
// job's ID and how many calls the job has seen before: the emulation's refusal
// path (a rescale protocol still in flight, pods that could not be placed)
// made reproducible, so two schedulers that issue the same calls meet the same
// refusals. It logs every call, refused or not, and marks the calls made
// inside a capacity reclaim.
type refusingActuator struct {
	refuse     bool
	calls      map[string]int
	log        []string
	reclaiming func() bool
}

func (a *refusingActuator) call(op string, j *Job, replicas int) error {
	line := fmt.Sprintf("%s %s %d", op, j.ID, replicas)
	if a.reclaiming() {
		line += " (reclaim)"
	}
	n := a.calls[j.ID]
	a.calls[j.ID] = n + 1
	if a.refuse && refuses(j.ID, n) {
		a.log = append(a.log, "refuse "+line)
		return errors.New(op + " refused")
	}
	a.log = append(a.log, line)
	return nil
}

// refuses picks a quarter of the (job, call number) pairs.
func refuses(id string, n int) bool { return mix(id, n)%4 == 0 }

// mix hashes a job's ID and a number. FNV's low bits follow the input's low
// bits (a modulus of the raw hash never refuses two calls in a row), so the
// key goes through splitmix64's finalizer first.
func mix(id string, n int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	x := h.Sum64() + uint64(n)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (a *refusingActuator) StartJob(j *Job, replicas int) error { return a.call("start", j, replicas) }
func (a *refusingActuator) ShrinkJob(j *Job, to int) error      { return a.call("shrink", j, to) }
func (a *refusingActuator) ExpandJob(j *Job, to int) error      { return a.call("expand", j, to) }
func (a *refusingActuator) PreemptJob(j *Job) error             { return a.call("preempt", j, j.Replicas) }

// policyCore is what Scheduler and the reference both implement.
type policyCore interface {
	Submit(*Job) error
	OnJobComplete(*Job)
	Reschedule()
	SetCapacity(int) error
	Preempt(int) int
	Withdraw(*Job) error
}

// The operations of a scheduling script.
const (
	opSubmit = iota
	opComplete
	opReschedule
	opGapKick // move the clock to NextGapExpiry, if there is one, and Reschedule
	opCapacity
	opPreempt
	opWithdraw
)

// refusalOp is one step of a scheduling script: submit a copy of job;
// complete or withdraw the target-th submitted job; kick a Reschedule, now or
// at the next rescale-gap expiry; set the capacity to n or preempt n slots —
// then advance the clock by wait.
type refusalOp struct {
	kind   int
	job    Job
	target int
	n      int
	wait   time.Duration
}

func (op refusalOp) String() string {
	return [...]string{"submit", "complete", "reschedule", "gap kick", "capacity", "preempt", "withdraw"}[op.kind] +
		fmt.Sprintf(" job=%s target=%d n=%d", op.job.ID, op.target, op.n)
}

// refusalScript draws 150 operations against a cluster of the given capacity.
// Dense scripts leave the clock where it is after four operations in five, so
// submissions, completions and kicks pile up on one instant; the others wait
// up to 90 s between operations. Job IDs are unpadded (j10 sorts before j9),
// so ID order is not submission order, and each job's IDRank is its position
// in ID order — consistent with ID, as the simulator's ranks are. Each job's
// Tag is a hash of its ID (scriptTag), so the draws are the same as without
// tags.
func refusalScript(rng *rand.Rand, trial, capacity int, dense bool) []refusalOp {
	var ops []refusalOp
	submitted := 0
	for step := 0; step < 150; step++ {
		op := refusalOp{kind: opSubmit}
		switch r := rng.Float64(); {
		case r < 0.40 || submitted == 0:
			minR := 1 + rng.Intn(8)
			op.job = Job{ID: fmt.Sprintf("t%d-j%d", trial, submitted), Priority: 1 + rng.Intn(5),
				MinReplicas: minR, MaxReplicas: minR + rng.Intn(24)}
			submitted++
		case r < 0.62:
			op.kind, op.target = opComplete, rng.Intn(submitted)
		case r < 0.72:
			op.kind = opReschedule
		case r < 0.82:
			op.kind = opGapKick
		case r < 0.88:
			op.kind, op.n = opCapacity, capacity/2+rng.Intn(capacity+1)
		case r < 0.93:
			op.kind, op.n = opPreempt, 1+rng.Intn(capacity/2)
		default:
			op.kind, op.target = opWithdraw, rng.Intn(submitted)
		}
		if !dense || rng.Intn(5) == 0 {
			op.wait = time.Duration(rng.Intn(90)) * time.Second
		}
		ops = append(ops, op)
	}
	var ids []string
	for _, op := range ops {
		if op.kind == opSubmit {
			ids = append(ids, op.job.ID)
		}
	}
	slices.Sort(ids)
	for i := range ops {
		if ops[i].kind == opSubmit {
			rank, _ := slices.BinarySearch(ids, ops[i].job.ID)
			ops[i].job.IDRank = int32(rank)
			ops[i].job.Tag = scriptTag(ops[i].job.ID)
		}
	}
	return ops
}

// scriptTag labels a script's job with one of five tags, the largest Tag
// among them, by a hash of its ID.
func scriptTag(id string) uint8 {
	return [...]uint8{0, 1, 2, 3, math.MaxUint8}[mix(id, -1)%5]
}

// tagCountsDiffer returns how the wait queue's per-tag counts
// (NumQueuedTagged) differ from a count of the tags VisitQueued visits, or ""
// when they agree for every tag.
func tagCountsDiffer(s *Scheduler) string {
	var want [math.MaxUint8 + 1]int
	s.VisitQueued(func(j *Job) bool {
		want[j.Tag]++
		return true
	})
	for tag, n := range want {
		if got := s.NumQueuedTagged(uint8(tag)); got != n {
			return fmt.Sprintf("%d waiting jobs tagged %d, the queue holds %d", got, tag, n)
		}
	}
	return ""
}

// The oracle's rescale gaps and capacities.
var (
	oracleGaps       = []time.Duration{0, time.Minute, 3 * time.Minute}
	oracleCapacities = []int{16, 32, 64}
)

// oracleCell is the configuration of the trial-th script: the three rescale
// gaps, then the three capacities, then dense or not, then refusing or not.
func oracleCell(policy Policy, trial int) (cfg Config, dense, refuse bool) {
	cfg = Config{Policy: policy, EnableLog: true, RescaleGap: oracleGaps[trial%3], Capacity: oracleCapacities[trial/3%3]}
	return cfg, trial/9%2 == 1, trial/18%2 == 1
}

// runRefusalScript drives the scheduler and the reference through the script
// in lockstep, each with its own copy of every job and its own actuator, and
// after every operation compares what the operation returned, the actuator
// calls, the decision log, the free pool, the reclaim counters, the next gap
// expiry and every job's state, allocation, rescale count and timestamps, and
// holds the scheduler's per-tag queue counts to a count over its queue. It
// returns the first divergence, or "" when the two agree throughout.
func runRefusalScript(t testing.TB, cfg Config, script []refusalOp, refuse bool) string {
	t.Helper()
	clk := newTestClock()
	act := &refusingActuator{refuse: refuse, calls: map[string]int{}}
	refAct := &refusingActuator{refuse: refuse, calls: map[string]int{}}
	s, err := NewScheduler(cfg, act, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefScheduler(cfg, refAct, clk.now)
	act.reclaiming, refAct.reclaiming = s.Reclaiming, func() bool { return ref.reclaiming }
	sides := [2]policyCore{s, ref}
	var jobs [2][]*Job
	var calls, decisions int
	for i, op := range script {
		var res [2]string
		if op.kind == opSubmit {
			for k := range sides {
				j := op.job
				jobs[k] = append(jobs[k], &j)
			}
		}
		if op.kind == opGapKick {
			if atNs, ok := s.NextGapExpiry(); ok {
				clk.t = time.Unix(0, atNs).UTC()
			}
		}
		for k, side := range sides {
			res[k] = applyOp(side, op, jobs[k])
		}
		fail := func(format string, args ...any) string {
			return fmt.Sprintf("op %d (%s) at %s: ", i, op, clk.t.Format("15:04:05")) + fmt.Sprintf(format, args...)
		}
		if res[0] != res[1] {
			return fail("returned %q, reference %q", res[0], res[1])
		}
		if d := firstDiff(act.log[calls:], refAct.log[calls:]); d >= 0 {
			return fail("actuator call %d is %v, reference %v", calls+d, at(act.log, calls+d), at(refAct.log, calls+d))
		}
		calls = len(act.log)
		// The ring has not wrapped at this size, so its array is the log.
		if d := firstDiff(s.log.buf[decisions:], ref.log[decisions:]); d >= 0 {
			return fail("decision %d is %v, reference %v", decisions+d, at(s.log.buf, decisions+d), at(ref.log, decisions+d))
		}
		decisions = len(ref.log)
		if s.FreeSlots() != ref.free || s.CapacityStats() != ref.stats {
			return fail("free %d, stats %+v; reference free %d, stats %+v", s.FreeSlots(), s.CapacityStats(), ref.free, ref.stats)
		}
		gotNs, gotOK := s.NextGapExpiry()
		wantAt, wantOK := ref.NextGapExpiry()
		if gotOK != wantOK || gotOK && gotNs != wantAt.UnixNano() {
			return fail("next gap expiry %v %v, reference %v %v", time.Unix(0, gotNs).UTC(), gotOK, wantAt, wantOK)
		}
		if d := tagCountsDiffer(s); d != "" {
			return fail("%s", d)
		}
		for k, g := range jobs[0] {
			w := jobs[1][k]
			if g.State != w.State || g.Replicas != w.Replicas || g.Rescales != w.Rescales ||
				!g.LastAction.Equal(w.LastAction) || !g.StartTime.Equal(w.StartTime) || !g.EndTime.Equal(w.EndTime) {
				return fail("job %s is %v with %d replicas after %d rescales (last action %v, start %v, end %v); reference %v, %d, %d (%v, %v, %v)",
					g.ID, g.State, g.Replicas, g.Rescales, g.LastAction, g.StartTime, g.EndTime,
					w.State, w.Replicas, w.Rescales, w.LastAction, w.StartTime, w.EndTime)
			}
		}
		clk.advance(op.wait)
	}
	return ""
}

// applyOp applies one operation to a scheduler whose submitted jobs are jobs
// and renders what the call returned.
func applyOp(s policyCore, op refusalOp, jobs []*Job) string {
	var err error
	switch op.kind {
	case opSubmit:
		err = s.Submit(jobs[len(jobs)-1])
	case opComplete:
		s.OnJobComplete(jobs[op.target])
	case opReschedule, opGapKick:
		s.Reschedule()
	case opCapacity:
		err = s.SetCapacity(op.n)
	case opPreempt:
		return fmt.Sprint(s.Preempt(op.n))
	case opWithdraw:
		err = s.Withdraw(jobs[op.target])
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// TestRefusingActuatorEquivalenceProperty is the oracle: the scheduler
// production runs — need buckets, the placeable-only pass and its drain-loop
// fallbacks, the clean-pass cache — must do exactly what the literal
// Figures 2–3 reference does, operation by operation, over random scripts of
// submissions, completions, withdrawals, rescale-gap kicks, capacity changes
// and preemptions, under all four policies, three rescale gaps and three
// capacities, sparse and dense, with a compliant actuator and with one that
// refuses a quarter of its calls. A refusal is the only way a job the
// placeable-only pass pops can fail to start — the pass must then hand the
// rest of the queue to the drain loop — and the only way a reclaim can leave
// the pool over-committed.
func TestRefusingActuatorEquivalenceProperty(t *testing.T) {
	scripts := 500 // per policy
	if testing.Short() {
		scripts = 72
	}
	for _, policy := range AllPolicies() {
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(policy)*2 + 11))
			for trial := 0; trial < scripts; trial++ {
				cfg, dense, refuse := oracleCell(policy, trial)
				if d := runRefusalScript(t, cfg, refusalScript(rng, trial, cfg.Capacity, dense), refuse); d != "" {
					t.Fatalf("trial %d (capacity %d, gap %v, dense %v, refuse %v): %s",
						trial, cfg.Capacity, cfg.RescaleGap, dense, refuse, d)
				}
			}
		})
	}
}

// FuzzReferenceEquivalence is the oracle over fuzzer-chosen scripts.
func FuzzReferenceEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), false, false)
	f.Add(int64(7), uint8(1), uint8(1), true, false)
	f.Add(int64(42), uint8(2), uint8(2), false, true)
	f.Add(int64(1234), uint8(3), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, policy, gap uint8, dense, refuse bool) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Policy: AllPolicies()[policy%4], EnableLog: true,
			RescaleGap: oracleGaps[int(gap)%len(oracleGaps)], Capacity: oracleCapacities[rng.Intn(len(oracleCapacities))]}
		if d := runRefusalScript(t, cfg, refusalScript(rng, 0, cfg.Capacity, dense), refuse); d != "" {
			t.Fatalf("seed %d (%s, capacity %d, gap %v, dense %v, refuse %v): %s",
				seed, cfg.Policy, cfg.Capacity, cfg.RescaleGap, dense, refuse, d)
		}
	})
}

// firstDiff returns the first index at which got and want differ, or -1.
func firstDiff[T comparable](got, want []T) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// at returns s[i], or a marker past the end.
func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "<end of sequence>"
}
