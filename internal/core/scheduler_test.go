package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// fakeActuator records actuation calls and can be told to fail.
type fakeActuator struct {
	starts, shrinks, expands, preempts int
	failStart, failShrink, failExpand  bool
	log                                []string
}

func (a *fakeActuator) StartJob(j *Job, replicas int) error {
	if a.failStart {
		return errors.New("start failed")
	}
	a.starts++
	a.log = append(a.log, fmt.Sprintf("start %s %d", j.ID, replicas))
	return nil
}

func (a *fakeActuator) ShrinkJob(j *Job, to int) error {
	if a.failShrink {
		return errors.New("shrink failed")
	}
	a.shrinks++
	a.log = append(a.log, fmt.Sprintf("shrink %s %d", j.ID, to))
	return nil
}

func (a *fakeActuator) ExpandJob(j *Job, to int) error {
	if a.failExpand {
		return errors.New("expand failed")
	}
	a.expands++
	a.log = append(a.log, fmt.Sprintf("expand %s %d", j.ID, to))
	return nil
}

func (a *fakeActuator) PreemptJob(j *Job) error {
	a.preempts++
	a.log = append(a.log, fmt.Sprintf("preempt %s", j.ID))
	return nil
}

// testClock is a manually advanced time source.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newSched(t testing.TB, cfg Config) (*Scheduler, *fakeActuator, *testClock) {
	t.Helper()
	act := &fakeActuator{}
	clk := newTestClock()
	s, err := NewScheduler(cfg, act, clk.now)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	return s, act, clk
}

// runningJobs returns a copy of the running jobs in decreasing priority order.
func runningJobs(s *Scheduler) []*Job {
	return append([]*Job(nil), s.running...)
}

// queuedJobs returns a copy of the waiting jobs in decreasing priority order.
func queuedJobs(s *Scheduler) []*Job {
	s.refresh()
	return s.queue.sorted()
}

func job(id string, prio, min, max int) *Job {
	return &Job{ID: id, Priority: prio, MinReplicas: min, MaxReplicas: max}
}

func TestNewSchedulerValidation(t *testing.T) {
	act := &fakeActuator{}
	clk := newTestClock()
	if _, err := NewScheduler(Config{Capacity: 0}, act, clk.now); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := NewScheduler(Config{Capacity: 4}, nil, clk.now); err == nil {
		t.Error("accepted nil actuator")
	}
	if _, err := NewScheduler(Config{Capacity: 4}, act, nil); err == nil {
		t.Error("accepted nil clock")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	if err := s.Submit(job("", 1, 1, 2)); err == nil {
		t.Error("accepted empty ID")
	}
	if err := s.Submit(job("a", 1, 0, 2)); err == nil {
		t.Error("accepted min=0")
	}
	if err := s.Submit(job("a", 1, 4, 2)); err == nil {
		t.Error("accepted max < min")
	}
}

func TestElasticStartsAtMaxWhenRoom(t *testing.T) {
	s, act, _ := newSched(t, Config{Policy: Elastic, Capacity: 64})
	j := job("a", 3, 4, 16)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning || j.Replicas != 16 {
		t.Fatalf("job = %v replicas %d, want Running 16", j.State, j.Replicas)
	}
	if s.FreeSlots() != 48 {
		t.Errorf("free = %d, want 48", s.FreeSlots())
	}
	if act.starts != 1 {
		t.Errorf("starts = %d", act.starts)
	}
}

func TestElasticStartsWithAvailableWhenAboveMin(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 20})
	a := job("a", 1, 4, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	// 4 free; new job needs min 4, max 16: starts at 4 without shrinking
	// the running job (paper §3.2.1: avoid the shrink call when min fits).
	b := job("b", 5, 4, 16)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateRunning || b.Replicas != 4 {
		t.Fatalf("b = %v replicas %d, want Running 4", b.State, b.Replicas)
	}
	if a.Replicas != 16 {
		t.Errorf("a was rescaled to %d; shrink should have been avoided", a.Replicas)
	}
}

func TestElasticShrinksLowerPriorityWhenMinDoesNotFit(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute})
	a := job("low", 1, 2, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	if a.Replicas != 16 {
		t.Fatalf("setup: a has %d replicas", a.Replicas)
	}
	clk.advance(2 * time.Minute) // outside a's rescale gap
	b := job("high", 5, 4, 8)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateRunning {
		t.Fatalf("high-priority job not started: %v", b.State)
	}
	if act.shrinks != 1 {
		t.Errorf("shrinks = %d, want 1", act.shrinks)
	}
	// Figure 2 frees up to maxToFree: b wants max 8, so a shrinks to 16-8=8.
	if a.Replicas != 8 {
		t.Errorf("a replicas = %d, want 8", a.Replicas)
	}
	if b.Replicas != 8 {
		t.Errorf("b replicas = %d, want 8", b.Replicas)
	}
}

func TestElasticRespectsRescaleGap(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: 10 * time.Minute})
	a := job("low", 1, 2, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute) // still inside the gap
	b := job("high", 5, 4, 8)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Fatalf("b should be queued while a is inside its gap, got %v", b.State)
	}
	if act.shrinks != 0 {
		t.Errorf("shrinks = %d, want 0", act.shrinks)
	}
}

func TestElasticNeverShrinksHigherPriority(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 16})
	a := job("high", 5, 2, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	b := job("low", 1, 4, 8)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Fatalf("low-priority job should queue, got %v", b.State)
	}
	if act.shrinks != 0 {
		t.Error("shrank a higher-priority job")
	}
}

func TestElasticEqualPriorityCanBeShrunk(t *testing.T) {
	// The pseudocode breaks only on strictly higher priority, so equal
	// priority jobs may be shrunk for a newer arrival.
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 16})
	a := job("first", 3, 2, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute)
	b := job("second", 3, 4, 8)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateRunning {
		t.Fatalf("b = %v", b.State)
	}
	if act.shrinks != 1 {
		t.Errorf("shrinks = %d", act.shrinks)
	}
}

func TestElasticQueuesWhenShrinkingCannotHelp(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 8})
	a := job("a", 1, 6, 8) // min 6: can only free 2
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	b := job("b", 5, 4, 8) // needs 4; shrinking a frees at most 2
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Fatalf("b = %v, want Queued", b.State)
	}
	if a.Replicas != 8 {
		t.Errorf("a was shrunk to %d despite infeasibility", a.Replicas)
	}
}

func TestCompletionExpandsRunningByPriority(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 32})
	a := job("a", 5, 4, 16)
	b := job("b", 3, 4, 16)
	c := job("c", 1, 4, 16)
	for _, j := range []*Job{a, b, c} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// a:16, b:16 won't fit... capacity 32: a=16, b=16, c queued.
	if c.State != StateQueued {
		t.Fatalf("c = %v, want Queued", c.State)
	}
	clk.advance(time.Hour)
	s.OnJobComplete(a)
	if a.State != StateCompleted {
		t.Fatalf("a = %v", a.State)
	}
	// 16 slots free: b is already at max (16), so c starts at 16.
	if c.State != StateRunning || c.Replicas != 16 {
		t.Errorf("c = %v replicas %d, want Running 16", c.State, c.Replicas)
	}
	_ = act
}

func TestCompletionExpandsBelowMaxJobFirst(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 20})
	a := job("a", 5, 4, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	b := job("b", 3, 4, 16) // 4 free -> starts at 4
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.Replicas != 4 {
		t.Fatalf("b replicas = %d", b.Replicas)
	}
	clk.advance(time.Hour)
	s.OnJobComplete(a) // frees 16
	// b expands to its max (16).
	if b.Replicas != 16 {
		t.Errorf("b replicas after completion = %d, want 16", b.Replicas)
	}
	if act.expands != 1 {
		t.Errorf("expands = %d, want 1", act.expands)
	}
}

func TestCompletionRespectsGapOnExpand(t *testing.T) {
	s, act, _ := newSched(t, Config{Policy: Elastic, Capacity: 20, RescaleGap: time.Hour})
	a := job("a", 5, 4, 16)
	b := job("b", 3, 4, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	s.OnJobComplete(a) // b started 0s ago: inside gap, cannot expand
	if b.Replicas != 4 {
		t.Errorf("b expanded to %d inside its gap", b.Replicas)
	}
	if act.expands != 0 {
		t.Errorf("expands = %d", act.expands)
	}
}

func TestMoldableNeverRescales(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Moldable, Capacity: 20, RescaleGap: time.Second})
	a := job("a", 1, 4, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	if a.Replicas != 16 {
		t.Fatalf("moldable a = %d, want 16", a.Replicas)
	}
	clk.advance(24 * time.Hour)
	// Higher priority arrives; moldable may start it in the 4 free slots
	// but must not shrink a.
	b := job("b", 5, 4, 16)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateRunning || b.Replicas != 4 {
		t.Fatalf("b = %v %d", b.State, b.Replicas)
	}
	clk.advance(24 * time.Hour)
	s.OnJobComplete(a)
	// 16 free, b below max — but moldable never expands.
	if b.Replicas != 4 {
		t.Errorf("moldable expanded b to %d", b.Replicas)
	}
	if act.shrinks != 0 || act.expands != 0 {
		t.Errorf("moldable rescaled: %d shrinks, %d expands", act.shrinks, act.expands)
	}
	// But queued jobs still start.
	c := job("c", 1, 8, 16)
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	if c.State != StateRunning {
		t.Errorf("c = %v", c.State)
	}
}

func TestRigidMinUsesMinReplicas(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: RigidMin, Capacity: 64})
	j := job("a", 1, 4, 32)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.Replicas != 4 {
		t.Errorf("rigid-min replicas = %d, want 4", j.Replicas)
	}
}

func TestRigidMaxUsesMaxReplicas(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: RigidMax, Capacity: 64})
	j := job("a", 1, 4, 32)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.Replicas != 32 {
		t.Errorf("rigid-max replicas = %d, want 32", j.Replicas)
	}
	// Second job of max 32 fits exactly.
	k := job("b", 1, 4, 32)
	if err := s.Submit(k); err != nil {
		t.Fatal(err)
	}
	if k.Replicas != 32 {
		t.Errorf("k = %d", k.Replicas)
	}
	// Third queues: rigid jobs never shrink.
	clk.advance(time.Hour)
	l := job("c", 9, 4, 32)
	if err := s.Submit(l); err != nil {
		t.Fatal(err)
	}
	if l.State != StateQueued {
		t.Errorf("l = %v", l.State)
	}
}

func TestPriorityOrderingTieBreak(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 8})
	// Stamp the cached comparison keys the way Submit does: sortJobs
	// orders on prio/submitNs, not on the raw exported fields.
	mk := func(id string, prio int, at time.Time) *Job {
		return &Job{ID: id, Priority: prio, SubmitTime: at,
			prio: float64(prio), submitNs: at.UnixNano()}
	}
	early := mk("early", 3, clk.t)
	late := mk("late", 3, clk.t.Add(time.Minute))
	big := mk("z-big", 5, clk.t.Add(time.Hour))
	jobs := []*Job{late, big, early}
	s.sortJobs(jobs)
	if jobs[0] != big || jobs[1] != early || jobs[2] != late {
		t.Errorf("order = %s %s %s", jobs[0].ID, jobs[1].ID, jobs[2].ID)
	}
}

// TestPreemptionDisabledByDefault pins that a submission never preempts: a
// higher-priority job that shrinking cannot make room for waits, and the
// running job it outranks keeps its slots. Only a capacity reclaim preempts.
func TestPreemptionDisabledByDefault(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 8})
	low := job("low", 1, 8, 8)
	if err := s.Submit(low); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	high := job("high", 5, 8, 8)
	if err := s.Submit(high); err != nil {
		t.Fatal(err)
	}
	if high.State != StateQueued || act.preempts != 0 {
		t.Errorf("high = %v, preempts = %d", high.State, act.preempts)
	}
}

func TestActuatorFailureFallsBackToQueue(t *testing.T) {
	s, act, _ := newSched(t, Config{Policy: Elastic, Capacity: 16})
	act.failStart = true
	j := job("a", 1, 4, 8)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued {
		t.Errorf("j = %v, want Queued after failed start", j.State)
	}
	if s.FreeSlots() != 16 {
		t.Errorf("free = %d after failed start", s.FreeSlots())
	}
	act.failStart = false
	s.Reschedule()
	if j.State != StateRunning {
		t.Errorf("j = %v after Reschedule, want Running", j.State)
	}
}

func TestShrinkFailureLeavesAccountingConsistent(t *testing.T) {
	s, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 16})
	a := job("a", 1, 2, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	act.failShrink = true
	b := job("b", 5, 4, 8)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Errorf("b = %v", b.State)
	}
	if a.Replicas != 16 || s.FreeSlots() != 0 {
		t.Errorf("accounting broken: a=%d free=%d", a.Replicas, s.FreeSlots())
	}
}

func TestOnJobCompleteIgnoresNonRunning(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	j := job("a", 1, 2, 4)
	s.OnJobComplete(j) // never submitted: must be a no-op
	if s.FreeSlots() != 8 {
		t.Errorf("free = %d", s.FreeSlots())
	}
	if j.State == StateCompleted {
		t.Error("queued job marked completed")
	}
}

func TestMetricsTimestamps(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 8})
	j := job("a", 2, 2, 4)
	submitAt := clk.t
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	clk.advance(90 * time.Second)
	s.OnJobComplete(j)
	if j.SubmitTime != submitAt {
		t.Errorf("SubmitTime = %v", j.SubmitTime)
	}
	if j.ResponseTime() != 0 {
		t.Errorf("ResponseTime = %v, want 0 (started immediately)", j.ResponseTime())
	}
	if j.CompletionTime() != 90*time.Second {
		t.Errorf("CompletionTime = %v", j.CompletionTime())
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		Elastic: "elastic", Moldable: "moldable",
		RigidMin: "min_replicas", RigidMax: "max_replicas",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), w)
		}
	}
	if Policy(42).String() == "" {
		t.Error("unknown policy empty string")
	}
	if len(AllPolicies()) != 4 {
		t.Error("AllPolicies wrong length")
	}
	for _, st := range []State{StateQueued, StateRunning, StateCompleted, StatePreempted, State(9)} {
		if st.String() == "" {
			t.Errorf("State(%d) empty string", st)
		}
	}
}

// Invariant: free slots + allocated slots == capacity, and 0 <= free <=
// capacity, under an arbitrary stream of submissions, completions, and clock
// advances, for every policy.
func TestRandomizedSlotAccountingInvariant(t *testing.T) {
	for _, policy := range AllPolicies() {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				s, _, clk := newSched(t, Config{
					Policy: policy, Capacity: 64,
					RescaleGap: time.Duration(rng.Intn(300)) * time.Second,
				})
				var live []*Job
				for step := 0; step < 100; step++ {
					switch {
					case rng.Float64() < 0.5 || len(live) == 0:
						minR := 1 + rng.Intn(8)
						maxR := minR + rng.Intn(24)
						j := job(fmt.Sprintf("t%d-j%d", trial, step), rng.Intn(5)+1, minR, maxR)
						if err := s.Submit(j); err != nil {
							t.Fatal(err)
						}
						live = append(live, j)
					default:
						i := rng.Intn(len(live))
						j := live[i]
						if j.State == StateRunning {
							s.OnJobComplete(j)
							live = append(live[:i], live[i+1:]...)
						}
					}
					clk.advance(time.Duration(rng.Intn(120)) * time.Second)

					// Check invariants.
					used := 0
					for _, j := range runningJobs(s) {
						used += j.Replicas
						if j.Replicas < 1 {
							t.Fatalf("running job %s with %d replicas", j.ID, j.Replicas)
						}
						minR, maxR := s.bounds(j)
						if j.Replicas < minR || j.Replicas > maxR {
							t.Fatalf("job %s at %d outside [%d,%d]", j.ID, j.Replicas, minR, maxR)
						}
					}
					if used+s.FreeSlots() != 64 {
						t.Fatalf("slot leak: used %d + free %d != 64", used, s.FreeSlots())
					}
					if s.FreeSlots() < 0 {
						t.Fatalf("negative free slots: %d", s.FreeSlots())
					}
					for _, j := range queuedJobs(s) {
						if j.Replicas != 0 {
							t.Fatalf("queued job %s holds %d replicas", j.ID, j.Replicas)
						}
					}
				}
			}
		})
	}
}
