package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestSetCapacityValidation: a capacity is 1 to math.MaxInt32 slots, the
// most a decision record's int32 counts carry, at construction and at every
// change; a refused change leaves the capacity as it was.
func TestSetCapacityValidation(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8, EnableLog: true})
	if err := s.SetCapacity(0); err == nil {
		t.Error("accepted capacity 0")
	}
	if err := s.SetCapacity(math.MaxInt32 + 1); err == nil || !strings.Contains(err.Error(), "2147483648") {
		t.Errorf("capacity 2^31: %v, want an error naming it", err)
	}
	if err := s.SetCapacity(8); err != nil {
		t.Errorf("no-op SetCapacity: %v", err)
	}
	if got := s.Capacity(); got != 8 || len(s.Log()) != 0 {
		t.Errorf("Capacity() = %d with %d decisions logged, want 8 and none", got, len(s.Log()))
	}
	if err := s.SetCapacity(math.MaxInt32); err != nil {
		t.Fatalf("capacity 2^31-1: %v", err)
	}
	if log := s.Log(); len(log) != 1 || log[0].Replicas != math.MaxInt32 || log[0].FreeSlots != 8 {
		t.Errorf("growth to 2^31-1 logged %v", log)
	}
	for _, c := range []int{0, math.MaxInt32 + 1} {
		if _, err := NewScheduler(Config{Policy: Elastic, Capacity: c}, &fakeActuator{}, newTestClock().now); err == nil {
			t.Errorf("NewScheduler accepted capacity %d", c)
		}
	}
}

func TestSetCapacityGrowthRedistributes(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 16})
	j := job("a", 3, 4, 32)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.Replicas != 16 {
		t.Fatalf("replicas = %d, want 16", j.Replicas)
	}
	if err := s.SetCapacity(32); err != nil {
		t.Fatal(err)
	}
	if j.Replicas != 32 {
		t.Errorf("after growth replicas = %d, want 32 (redistributed)", j.Replicas)
	}
	if s.FreeSlots() != 0 || s.Capacity() != 32 {
		t.Errorf("free=%d capacity=%d, want 0/32", s.FreeSlots(), s.Capacity())
	}
}

func TestSetCapacityGrowthStartsQueuedJob(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	a := job("a", 3, 8, 8)
	b := job("b", 1, 8, 8)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Fatalf("b state = %v, want Queued", b.State)
	}
	if err := s.SetCapacity(16); err != nil {
		t.Fatal(err)
	}
	if b.State != StateRunning || b.Replicas != 8 {
		t.Errorf("b = %v replicas %d, want Running 8", b.State, b.Replicas)
	}
}

func TestSetCapacityShrinkConsumesFreeSlotsFirst(t *testing.T) {
	s, act, _ := newSched(t, Config{Policy: Elastic, Capacity: 32})
	j := job("a", 3, 4, 16)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	// 16 free slots cover the loss; no job is touched.
	if err := s.SetCapacity(20); err != nil {
		t.Fatal(err)
	}
	if act.shrinks != 0 || act.preempts != 0 {
		t.Errorf("shrinks=%d preempts=%d, want 0/0 (free slots covered the drop)", act.shrinks, act.preempts)
	}
	if s.FreeSlots() != 4 || j.Replicas != 16 {
		t.Errorf("free=%d replicas=%d, want 4/16", s.FreeSlots(), j.Replicas)
	}
	st := s.CapacityStats()
	if st.ForcedShrinks != 0 || st.Requeues != 0 {
		t.Errorf("stats = %+v, want zero", st)
	}
}

func TestSetCapacityForcedShrinkTakesLowestPriorityFirst(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 32})
	hi := job("hi", 5, 4, 16)
	lo := job("lo", 1, 4, 16)
	if err := s.Submit(hi); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(lo); err != nil {
		t.Fatal(err)
	}
	if hi.Replicas != 16 || lo.Replicas != 16 {
		t.Fatalf("replicas hi=%d lo=%d, want 16/16", hi.Replicas, lo.Replicas)
	}
	// Drop 8 slots: only the low-priority job should give them up.
	if err := s.SetCapacity(24); err != nil {
		t.Fatal(err)
	}
	if lo.Replicas != 8 || hi.Replicas != 16 {
		t.Errorf("replicas lo=%d hi=%d, want 8/16 (lowest priority shrinks first)", lo.Replicas, hi.Replicas)
	}
	st := s.CapacityStats()
	if st.ForcedShrinks != 1 || st.Requeues != 0 || st.SlotsReclaimed != 8 {
		t.Errorf("stats = %+v, want 1 forced shrink of 8 slots", st)
	}
}

func TestSetCapacityBypassesRescaleGap(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Hour})
	j := job("a", 3, 4, 16)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	// The job just started, deep inside its rescale gap — a capacity loss
	// shrinks it anyway (the hardware is gone).
	if err := s.SetCapacity(8); err != nil {
		t.Fatal(err)
	}
	if j.Replicas != 8 {
		t.Errorf("replicas = %d, want 8 despite the rescale gap", j.Replicas)
	}
}

func TestSetCapacityRequeuesWhenShrinkCannotAbsorb(t *testing.T) {
	s, act, _ := newSched(t, Config{Policy: Elastic, Capacity: 16})
	hi := job("hi", 5, 8, 8)
	lo := job("lo", 1, 8, 8)
	if err := s.Submit(hi); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(lo); err != nil {
		t.Fatal(err)
	}
	// Neither job can shrink (min == max). Dropping to 8 must checkpoint-
	// requeue the low-priority job, though a submission never preempts —
	// infrastructure loss is not a policy choice.
	if err := s.SetCapacity(8); err != nil {
		t.Fatal(err)
	}
	if lo.State != StatePreempted || lo.Replicas != 0 {
		t.Errorf("lo = %v replicas %d, want Preempted 0", lo.State, lo.Replicas)
	}
	if hi.State != StateRunning || hi.Replicas != 8 {
		t.Errorf("hi = %v replicas %d, want Running 8", hi.State, hi.Replicas)
	}
	if act.preempts != 1 {
		t.Errorf("preempts = %d, want 1", act.preempts)
	}
	if s.NumQueued() != 1 {
		t.Errorf("queued = %d, want 1", s.NumQueued())
	}
	st := s.CapacityStats()
	if st.Requeues != 1 {
		t.Errorf("stats = %+v, want 1 requeue", st)
	}

	// Restoring the capacity restarts the requeued job.
	if err := s.SetCapacity(16); err != nil {
		t.Fatal(err)
	}
	if lo.State != StateRunning || lo.Replicas != 8 {
		t.Errorf("after restore lo = %v replicas %d, want Running 8", lo.State, lo.Replicas)
	}
}

// TestSetCapacityRefusedEverywhereOverCommits pins SetCapacity's documented
// contract for a loss no victim lets it reclaim: the error names the
// over-commit, the capacity is the new value, the free pool goes negative,
// and the next completion absorbs the debt. The capacity entry logs the pool
// before the loss applies.
func TestSetCapacityRefusedEverywhereOverCommits(t *testing.T) {
	s, act, _ := newSched(t, Config{Policy: Elastic, Capacity: 16, EnableLog: true})
	a, b := job("a", 5, 4, 8), job("b", 1, 4, 8)
	for _, j := range []*Job{a, b} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	act.failShrink, act.failPreempt = true, true
	err := s.SetCapacity(8)
	if err == nil || !strings.Contains(err.Error(), "8 slots over-committed") {
		t.Fatalf("SetCapacity(8) = %v, want an error naming 8 over-committed slots", err)
	}
	if s.Capacity() != 8 || s.FreeSlots() != -8 {
		t.Errorf("capacity %d, free %d; want 8 and -8", s.Capacity(), s.FreeSlots())
	}
	if st := s.CapacityStats(); st != (CapacityStats{}) {
		t.Errorf("stats %+v after every victim refused, want none", st)
	}
	log := s.Log()
	if d := log[len(log)-1]; d.Kind != DecisionCapacity || d.Replicas != 8 || d.FreeSlots != 0 {
		t.Errorf("capacity entry %v, want capacity 8 logged with the pool before the loss (free=0)", d)
	}
	s.OnJobComplete(a)
	if s.FreeSlots() != 0 || b.Replicas != 8 {
		t.Errorf("after a completes: free %d, b at %d; want the debt absorbed (free 0) and b untouched at 8",
			s.FreeSlots(), b.Replicas)
	}
}

func TestPreemptFreesRequestedSlots(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 32})
	hi := job("hi", 5, 4, 16)
	lo := job("lo", 1, 4, 16)
	if err := s.Submit(hi); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(lo); err != nil {
		t.Fatal(err)
	}
	freed := s.Preempt(8)
	if freed != 8 {
		t.Fatalf("Preempt(8) = %d, want 8", freed)
	}
	if s.FreeSlots() < 8 {
		t.Errorf("free = %d, want >= 8", s.FreeSlots())
	}
	if lo.Replicas != 8 || hi.Replicas != 16 {
		t.Errorf("replicas lo=%d hi=%d, want 8/16", lo.Replicas, hi.Replicas)
	}
	if got := s.Preempt(0); got != 0 {
		t.Errorf("Preempt(0) = %d, want 0", got)
	}
}

// checkInvariant asserts the slot-accounting invariant the availability
// subsystem guarantees: allocated worker slots and free slots exactly cover
// the current capacity, and nothing is negative.
func checkInvariant(t *testing.T, s *Scheduler, context string) {
	t.Helper()
	used := 0
	for _, j := range runningJobs(s) {
		used += j.Replicas
		if j.Replicas < 1 {
			t.Fatalf("%s: running job %s with %d replicas", context, j.ID, j.Replicas)
		}
	}
	if used+s.FreeSlots() != s.Capacity() {
		t.Fatalf("%s: used %d + free %d != capacity %d", context, used, s.FreeSlots(), s.Capacity())
	}
	if s.FreeSlots() < 0 {
		t.Fatalf("%s: negative free slots %d", context, s.FreeSlots())
	}
}

// TestRandomizedCapacityInvariant drives the scheduler through random
// submissions, completions, and capacity events and checks after every
// operation that running replicas + free slots never exceed the current
// capacity — the property test of the availability subsystem.
func TestRandomizedCapacityInvariant(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 64})
		next := 0
		for op := 0; op < 400; op++ {
			clk.advance(time.Duration(rng.Intn(120)) * time.Second)
			switch r := rng.Float64(); {
			case r < 0.45:
				minR := 1 + rng.Intn(8)
				j := job("j", 1+rng.Intn(5), minR, minR+rng.Intn(16))
				j.ID = j.ID + "-" + string(rune('a'+seed)) + "-" + itoa(next)
				next++
				if err := s.Submit(j); err != nil {
					t.Fatal(err)
				}
			case r < 0.65:
				if run := runningJobs(s); len(run) > 0 {
					s.OnJobComplete(run[rng.Intn(len(run))])
				}
			case r < 0.85:
				if err := s.SetCapacity(1 + rng.Intn(96)); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			default:
				s.Preempt(1 + rng.Intn(16))
			}
			checkInvariant(t, s, "op")
		}
	}
}

// TestPreemptNeverTakesHigherPriorityVictimFirst pins the victim-selection
// property: a reclaim never checkpoint-requeues a job while some strictly
// lower-priority running job could still shrink — and any requeued job has
// a priority no higher than every job left running above its minimum.
func TestPreemptNeverTakesHigherPriorityVictimFirst(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 128})
		jobs := make([]*Job, 0, 8)
		for i := 0; i < 4+rng.Intn(5); i++ {
			minR := 2 + rng.Intn(6)
			j := job("p"+itoa(i), 1+rng.Intn(5), minR, minR+rng.Intn(12))
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		s.Preempt(8 + rng.Intn(96))

		for _, p := range jobs {
			if p.State != StatePreempted {
				continue
			}
			for _, r := range jobs {
				if r.State != StateRunning {
					continue
				}
				minR := r.MinReplicas
				if r.Replicas > minR && r.Priority < p.Priority {
					t.Fatalf("seed %d: requeued prio-%d job %s while prio-%d job %s still holds %d > min %d",
						seed, p.Priority, p.ID, r.Priority, r.ID, r.Replicas, minR)
				}
			}
		}
	}
}

// itoa is a minimal int formatter for test IDs (keeps fmt out of hot loops).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
