package core

import (
	"reflect"
	"testing"
)

func TestWithdrawQueuedJob(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	running := job("run", 3, 8, 8)
	waiting := job("wait", 3, 4, 8)
	if err := s.Submit(running); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(waiting); err != nil {
		t.Fatal(err)
	}
	if waiting.State != StateQueued || s.NumQueued() != 1 {
		t.Fatalf("setup: %v, %d queued", waiting.State, s.NumQueued())
	}
	if err := s.Withdraw(waiting); err != nil {
		t.Fatal(err)
	}
	if waiting.State != StateWithdrawn {
		t.Errorf("state %v, want Withdrawn", waiting.State)
	}
	if s.NumQueued() != 0 {
		t.Errorf("%d still queued", s.NumQueued())
	}
	// A withdrawn job is gone: a second withdraw must fail.
	if err := s.Withdraw(waiting); err == nil {
		t.Error("withdrew the same job twice")
	}
}

func TestWithdrawRejectsRunningJob(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	j := job("run", 3, 4, 8)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateRunning {
		t.Fatalf("setup: %v", j.State)
	}
	if err := s.Withdraw(j); err == nil {
		t.Error("withdrew a running job")
	}
}

func TestWithdrawPreemptedJob(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	j := job("victim", 1, 4, 8)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if got := s.Preempt(8); got == 0 {
		t.Fatal("preempt freed nothing")
	}
	if j.State != StatePreempted {
		t.Fatalf("state %v after preempt", j.State)
	}
	if err := s.Withdraw(j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateWithdrawn || s.NumQueued() != 0 {
		t.Errorf("state %v, %d queued", j.State, s.NumQueued())
	}
}

func TestWithdrawKeepsSchedulerConsistent(t *testing.T) {
	// After a withdraw frees queue pressure, the next scheduling pass must
	// still start the remaining queued work.
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	blocker := job("blocker", 5, 8, 8)
	a := job("a", 4, 8, 8)
	b := job("b", 3, 8, 8)
	for _, j := range []*Job{blocker, a, b} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// blocker runs; a and b wait. Withdrawing a must leave b first in line.
	if err := s.Withdraw(a); err != nil {
		t.Fatal(err)
	}
	s.OnJobComplete(blocker)
	if b.State != StateRunning {
		t.Errorf("b is %v after the blocker completed, want Running", b.State)
	}
	if a.State != StateWithdrawn {
		t.Errorf("a is %v, want Withdrawn", a.State)
	}
}

// TestWithdrawFromInsideABucket withdraws a job that is neither the queue's
// head nor its bucket's: the bucket must close the hole and keep handing out
// the rest in priority order, and the other buckets must not notice.
func TestWithdrawFromInsideABucket(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	blocker := job("blocker", 9, 8, 8)
	if err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	// Six waiting jobs needing 4 slots, two needing 2.
	var fours []*Job
	for i, prio := range []int{8, 7, 6, 5, 4, 3} {
		j := job("four"+itoa(i), prio, 4, 4)
		fours = append(fours, j)
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	twos := []*Job{job("two0", 2, 2, 2), job("two1", 1, 2, 2)}
	for _, j := range twos {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	bi, ok := s.queue.find(4)
	if !ok || s.queue.buckets[bi].jobs[0] == fours[3] {
		t.Fatalf("setup: need-4 bucket missing or four3 at its head")
	}
	if err := s.Withdraw(fours[3]); err != nil {
		t.Fatal(err)
	}
	if fours[3].State != StateWithdrawn || s.NumQueued() != 7 || s.queue.minNeed() != 2 {
		t.Fatalf("four3 %v, %d queued, minNeed %d", fours[3].State, s.NumQueued(), s.queue.minNeed())
	}
	var got []string
	for _, j := range queuedJobs(s) {
		got = append(got, j.ID)
	}
	want := []string{"four0", "four1", "four2", "four4", "four5", "two0", "two1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("waiting order %v, want %v", got, want)
	}
	s.OnJobComplete(blocker)
	if fours[0].State != StateRunning || fours[1].State != StateRunning || fours[2].State != StateQueued {
		t.Errorf("after the blocker left: four0 %v, four1 %v, four2 %v; want the first two running",
			fours[0].State, fours[1].State, fours[2].State)
	}
}
