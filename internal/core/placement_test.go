package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestPriceTableMatchesPlaceable holds placeWaiting's price table to the walk
// it stands for: over random running sets — priorities, replicas at and above
// the policy minimum, jobs inside and outside their rescale gap, under every
// policy and a zero, short and long gap — and every waiting priority and
// need, free + F(prio) covers the need exactly when placeable says it does.
func TestPriceTableMatchesPlaceable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3000; trial++ {
		cfg := Config{
			Policy:     AllPolicies()[rng.Intn(4)],
			Capacity:   64,
			RescaleGap: []time.Duration{0, time.Minute, 3 * time.Minute}[rng.Intn(3)],
		}
		now := time.Unix(10_000, 0)
		s, err := NewScheduler(cfg, benchActuator{}, func() time.Time { return now })
		if err != nil {
			t.Fatal(err)
		}
		s.refresh()
		for k := rng.Intn(12); k > 0; k-- {
			j := &Job{ID: fmt.Sprint("r", k), Priority: 1 + rng.Intn(5), MinReplicas: 1 + rng.Intn(4)}
			j.MaxReplicas = j.MinReplicas + rng.Intn(8)
			j.Replicas = j.MinReplicas + rng.Intn(j.MaxReplicas-j.MinReplicas+1)
			j.prio = float64(j.Priority)
			j.LastAction = now.Add(-time.Duration(rng.Intn(240)) * time.Second)
			j.lastActionNs = j.LastAction.UnixNano()
			s.insertRunning(j)
		}
		s.free = rng.Intn(8)
		s.priceHeads()
		for p := 0; p <= 6; p++ {
			head := &Job{ID: "head", Priority: p, prio: float64(p)}
			for need := 1; need <= 48; need++ {
				if got, want := s.free+s.freeableAt(head.prio) >= need, s.placeable(head, need); got != want {
					t.Fatalf("trial %d (%s, gap %v, free %d, table %v): priority %d need %d priced %v, placeable %v",
						trial, cfg.Policy, cfg.RescaleGap, s.free, s.prices, p, need, got, want)
				}
			}
		}
	}
}

// countingActuator accepts every call and counts the starts.
type countingActuator struct{ starts int }

func (a *countingActuator) StartJob(*Job, int) error  { a.starts++; return nil }
func (a *countingActuator) ShrinkJob(*Job, int) error { return nil }
func (a *countingActuator) ExpandJob(*Job, int) error { return nil }
func (a *countingActuator) PreemptJob(*Job) error     { return nil }

// TestPlacementPassAllocatesNothing: once its scratch has grown, a
// Reschedule against a deep backlog — the price walk, the bucket sweep, and
// the shrinks and starts it makes — allocates nothing.
func TestPlacementPassAllocatesNothing(t *testing.T) {
	const backlog, kicks = 2_000, 400
	now := time.Unix(0, 0)
	act := &countingActuator{}
	s, err := NewScheduler(Config{Policy: Elastic, Capacity: 64, RescaleGap: time.Minute},
		act, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*Job, backlog+2*kicks)
	for i := range jobs {
		jobs[i] = &Job{
			ID:          fmt.Sprintf("j%05d", i),
			Priority:    1 + i%5,
			MinReplicas: 2 + i%4,
			MaxReplicas: 8 + i%16,
		}
	}
	next, passStarts := 0, 0
	kick := func() {
		now = now.Add(90 * time.Second)
		s.OnJobComplete(s.running[len(s.running)-1])
		if err := s.Submit(jobs[next]); err != nil {
			t.Fatal(err)
		}
		next++
		started := act.starts
		s.Reschedule()
		passStarts += act.starts - started
	}
	for ; next < backlog; next++ {
		if err := s.Submit(jobs[next]); err != nil {
			t.Fatal(err)
		}
	}
	for range kicks - 1 { // grow the scratch
		kick()
	}
	passStarts = 0
	if allocs := testing.AllocsPerRun(kicks, kick); allocs != 0 {
		t.Errorf("a kick against a %d-deep backlog allocates %.2f objects, want 0", s.NumQueued(), allocs)
	}
	if passStarts == 0 || s.NumQueued() < backlog/2 {
		t.Fatalf("the measured passes started %d jobs with %d waiting: want starts against a deep backlog",
			passStarts, s.NumQueued())
	}
}
