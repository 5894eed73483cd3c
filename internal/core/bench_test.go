package core

import (
	"fmt"
	"testing"
	"time"
)

type benchActuator struct{}

func (benchActuator) StartJob(*Job, int) error  { return nil }
func (benchActuator) ShrinkJob(*Job, int) error { return nil }
func (benchActuator) ExpandJob(*Job, int) error { return nil }
func (benchActuator) PreemptJob(*Job) error     { return nil }

// BenchmarkSchedulerBacklog measures scheduling-event throughput against a
// deep waiting queue: 10k jobs pour into a 64-slot cluster, then completions
// drain it, so every event runs the enqueue/redistribute paths against a
// thousands-deep backlog — the regime the indexed job queue exists for.
func BenchmarkSchedulerBacklog(b *testing.B) {
	const jobs = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := time.Unix(0, 0)
		s, err := NewScheduler(Config{Policy: Elastic, Capacity: 64, RescaleGap: time.Minute},
			benchActuator{}, func() time.Time { return now })
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < jobs; j++ {
			job := &Job{
				ID:          fmt.Sprintf("j%05d", j),
				Priority:    1 + j%5,
				MinReplicas: 2 + j%4,
				MaxReplicas: 8 + j%16,
			}
			if err := s.Submit(job); err != nil {
				b.Fatal(err)
			}
			now = now.Add(time.Second)
		}
		completed := 0
		scratch := make([]*Job, 0, 64)
		for s.NumRunning() > 0 {
			// Snapshot via the non-copying iterator into a reused buffer
			// (OnJobComplete mutates the running list mid-iteration).
			scratch = scratch[:0]
			s.VisitRunning(func(j *Job) bool {
				scratch = append(scratch, j)
				return true
			})
			for _, j := range scratch {
				s.OnJobComplete(j)
				completed++
			}
			now = now.Add(90 * time.Second)
			s.Reschedule()
		}
		if completed != jobs {
			b.Fatalf("completed %d of %d", completed, jobs)
		}
	}
}

// BenchmarkSchedulerRedistributeIncremental measures the incremental
// scheduler's fixed-point path: a saturated 64-slot cluster with a 10k-deep
// backlog of rigid (min==max) jobs receives repeated gap-expiry kicks that
// cannot change anything. Each Reschedule must cost O(1) — the budget gate
// skips the backlog drain and the free==0 early-out skips the Figure 3
// scan — instead of the full drain-sort-resubmit the pre-incremental
// scheduler paid per kick.
func BenchmarkSchedulerRedistributeIncremental(b *testing.B) {
	const backlog = 10_000
	now := time.Unix(0, 0)
	s, err := NewScheduler(Config{Policy: Elastic, Capacity: 64, RescaleGap: time.Minute},
		benchActuator{}, func() time.Time { return now })
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < backlog; j++ {
		job := &Job{
			ID:          fmt.Sprintf("j%05d", j),
			Priority:    1 + j%5,
			MinReplicas: 4,
			MaxReplicas: 4,
		}
		if err := s.Submit(job); err != nil {
			b.Fatal(err)
		}
	}
	if s.FreeSlots() != 0 || s.NumQueued() == 0 {
		b.Fatalf("setup: free=%d queued=%d, want saturated cluster with backlog",
			s.FreeSlots(), s.NumQueued())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(90 * time.Second)
		s.Reschedule()
	}
}

// BenchmarkSchedulerRescheduleDeep measures one gap-expiry kick against a
// 100k-deep backlog the O(1) budget gate cannot dismiss: the cluster is
// saturated by jobs running above their minimum (so shrinking could free
// slots) that outrank the whole backlog (so no waiting job may take them).
// Every kick therefore places nothing, and what it costs is what it costs
// to find that out: one placeable test per need bucket, against the
// drain-sort-resubmit of all 100k jobs the drain loop pays.
func BenchmarkSchedulerRescheduleDeep(b *testing.B) {
	const backlog = 100_000
	now := time.Unix(0, 0)
	s, err := NewScheduler(Config{Policy: Elastic, Capacity: 64, RescaleGap: time.Minute},
		benchActuator{}, func() time.Time { return now })
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if err := s.Submit(&Job{ID: fmt.Sprintf("run%d", j), Priority: 9, MinReplicas: 4, MaxReplicas: 16}); err != nil {
			b.Fatal(err)
		}
	}
	for j := 0; j < backlog; j++ {
		job := &Job{
			ID:          fmt.Sprintf("j%06d", j),
			Priority:    1 + j%5,
			MinReplicas: 2 << (j % 4), // 2, 4, 8, 16: four need buckets
			MaxReplicas: 32,
		}
		if err := s.Submit(job); err != nil {
			b.Fatal(err)
		}
	}
	if s.FreeSlots() != 0 || s.NumQueued() != backlog || s.maxFreeable() == 0 {
		b.Fatalf("setup: free=%d queued=%d freeable=%d, want a saturated, shrinkable cluster with the whole backlog waiting",
			s.FreeSlots(), s.NumQueued(), s.maxFreeable())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(90 * time.Second)
		s.Reschedule()
	}
	if s.NumQueued() != backlog {
		b.Fatalf("%d queued after the kicks, want %d", s.NumQueued(), backlog)
	}
}

// TestRedistributeIncrementalNoAllocs pins the allocation-free property the
// benchmark above measures, deterministically: a gap-expiry kick against a
// saturated cluster with a deep backlog must not allocate. (The benchmark
// itself is too short to gate in CI — at b.N=1 a ~900ns op is all jitter —
// so this assertion is the regression guard.)
func TestRedistributeIncrementalNoAllocs(t *testing.T) {
	const backlog = 1_000
	now := time.Unix(0, 0)
	s, err := NewScheduler(Config{Policy: Elastic, Capacity: 64, RescaleGap: time.Minute},
		benchActuator{}, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < backlog; j++ {
		job := &Job{
			ID:          fmt.Sprintf("j%05d", j),
			Priority:    1 + j%5,
			MinReplicas: 4,
			MaxReplicas: 4,
		}
		if err := s.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	if s.FreeSlots() != 0 || s.NumQueued() == 0 {
		t.Fatalf("setup: free=%d queued=%d, want saturated cluster with backlog",
			s.FreeSlots(), s.NumQueued())
	}
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(90 * time.Second)
		s.Reschedule()
	})
	if allocs != 0 {
		t.Errorf("saturated-cluster Reschedule allocates %.1f objects/op, want 0", allocs)
	}
}
