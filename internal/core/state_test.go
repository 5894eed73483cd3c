package core

import (
	"reflect"
	"testing"
	"time"
)

// populatedSched builds a scheduler holding a mix of running and queued
// jobs, with some wall-clock history behind the gap checks.
func populatedSched(t testing.TB) (*Scheduler, *testClock) {
	t.Helper()
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute})
	for _, j := range []*Job{
		job("a", 5, 2, 8), job("b", 3, 2, 8), job("c", 4, 4, 8),
		job("d", 1, 4, 16), job("e", 2, 8, 16),
	} {
		j.SubmitTime = clk.t
		if err := s.Submit(j); err != nil {
			t.Fatalf("submit %s: %v", j.ID, err)
		}
		clk.advance(3 * time.Second)
	}
	return s, clk
}

// TestSchedulerStateRoundTrip pins the snapshot/restore contract: restoring
// an exported state into a fresh scheduler reproduces the exported fields,
// the derived accounting, and the observable queue/running sets exactly.
func TestSchedulerStateRoundTrip(t *testing.T) {
	src, _ := populatedSched(t)
	st := src.ExportState()
	if len(st.Running) == 0 || len(st.Queued) == 0 {
		t.Fatalf("scenario lost its point: %d running, %d queued", len(st.Running), len(st.Queued))
	}

	dst, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 4, RescaleGap: time.Minute})
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := dst.Capacity(), src.Capacity(); got != want {
		t.Errorf("capacity %d, want %d", got, want)
	}
	if got, want := dst.FreeSlots(), src.FreeSlots(); got != want {
		t.Errorf("free slots %d, want %d", got, want)
	}
	if got, want := dst.NumRunning(), src.NumRunning(); got != want {
		t.Errorf("running %d, want %d", got, want)
	}
	if got, want := dst.NumQueued(), src.NumQueued(); got != want {
		t.Errorf("queued %d, want %d", got, want)
	}
	back := dst.ExportState()
	if !reflect.DeepEqual(st, back) {
		t.Errorf("round trip diverged:\nexported: %+v\nrestored: %+v", st, back)
	}
}

// TestSchedulerStateMidEpochRoundTrip pins the snapshot/restore contract at
// the hardest instant: mid-epoch, with running jobs, queued jobs, a
// checkpoint-preempted job in the waiting set, and a rescale-gap kick still
// pending. The restored scheduler must reproduce the snapshot bit for bit,
// report the same pending kick deadline, and then stay behaviorally
// identical to the original through a further submit / gap-expiry /
// completion sequence.
func TestSchedulerStateMidEpochRoundTrip(t *testing.T) {
	src, sclk := populatedSched(t)
	// A deep capacity drop shrinks what it can and checkpoint-preempts the
	// rest; the raise that follows leaves free slots in front of gap-blocked
	// below-max jobs, so a rescale-gap kick goes (and stays) pending.
	if err := src.SetCapacity(3); err != nil {
		t.Fatalf("capacity drop: %v", err)
	}
	if err := src.SetCapacity(10); err != nil {
		t.Fatalf("capacity raise: %v", err)
	}
	st := src.ExportState()
	if len(st.Running) == 0 || len(st.Queued) == 0 {
		t.Fatalf("scenario lost its point: %d running, %d queued", len(st.Running), len(st.Queued))
	}
	preempted := false
	for _, j := range st.Queued {
		if j.State == StatePreempted {
			preempted = true
		}
	}
	if !preempted {
		t.Fatal("scenario lost its point: no checkpoint-preempted job in the waiting set")
	}
	srcKick, srcOK := src.NextGapExpiry()
	if !srcOK {
		t.Fatal("scenario lost its point: no pending rescale-gap kick")
	}

	dst, _, dclk := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute})
	dclk.t = sclk.t // the kick deadline is wall-clock-relative
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	back := dst.ExportState()
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("mid-epoch round trip diverged:\nexported: %+v\nrestored: %+v", st, back)
	}
	dstKick, dstOK := dst.NextGapExpiry()
	if !dstOK {
		t.Fatal("restored scheduler lost the pending kick")
	}
	if !dstKick.Equal(srcKick) {
		t.Errorf("restored kick deadline %v, want %v", dstKick, srcKick)
	}

	// Drive both schedulers through the identical rest of the epoch: a new
	// arrival, the gap expiring, and a completion. Every exported state must
	// stay equal — the restore carried all scheduling-relevant state.
	completeID := st.Running[0].ID
	step := func(s *Scheduler, clk *testClock) SchedulerState {
		f := job("f", 4, 2, 8)
		f.SubmitTime = clk.t
		if err := s.Submit(f); err != nil {
			t.Fatalf("submit f: %v", err)
		}
		clk.advance(2 * time.Minute) // clear every rescale gap
		s.Reschedule()
		s.OnJobComplete(findRestoredJob(t, s, completeID))
		return s.ExportState()
	}
	after, afterBack := step(src, sclk), step(dst, dclk)
	if !reflect.DeepEqual(after, afterBack) {
		t.Errorf("post-restore behavior diverged:\noriginal: %+v\nrestored: %+v", after, afterBack)
	}
}

// TestRestoreStateAllocatesFreshJobs checks the restore's isolation: the
// restored scheduler must not share Job records with the snapshot (or with
// the exporting scheduler), while preserving Ref for driver re-attachment.
func TestRestoreStateAllocatesFreshJobs(t *testing.T) {
	src, _ := populatedSched(t)
	st := src.ExportState()
	st.Running[0].Ref = 42

	dst, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute})
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Mutating the snapshot after restore must not leak into the scheduler.
	st.Running[0].Replicas = 999
	back := dst.ExportState()
	if back.Running[0].Replicas == 999 {
		t.Error("restored scheduler aliases the snapshot's job records")
	}
	if back.Running[0].Ref != 42 {
		t.Errorf("Ref not preserved: got %d, want 42", back.Running[0].Ref)
	}
}

// TestRestoreStateValidation checks that inconsistent snapshots are
// rejected with the scheduler unchanged.
func TestRestoreStateValidation(t *testing.T) {
	mk := func() SchedulerState {
		src, _ := populatedSched(t)
		return src.ExportState()
	}
	cases := map[string]func() SchedulerState{
		"zero capacity": func() SchedulerState {
			st := mk()
			st.Capacity = 0
			return st
		},
		"running without replicas": func() SchedulerState {
			st := mk()
			st.Running[0].Replicas = 0
			return st
		},
		"running in queued state": func() SchedulerState {
			st := mk()
			st.Running[0].State = StateQueued
			return st
		},
		"waiting with replicas": func() SchedulerState {
			st := mk()
			st.Queued[0].Replicas = 2
			return st
		},
		"waiting in running state": func() SchedulerState {
			st := mk()
			st.Queued[0].State = StateRunning
			return st
		},
		"over capacity": func() SchedulerState {
			st := mk()
			st.Capacity = 3
			return st
		},
		"invalid job": func() SchedulerState {
			st := mk()
			st.Running[0].MinReplicas = 0
			return st
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			dst, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 16})
			before := dst.ExportState()
			if err := dst.RestoreState(build()); err == nil {
				t.Fatal("invalid snapshot accepted")
			}
			if after := dst.ExportState(); !reflect.DeepEqual(before, after) {
				t.Errorf("failed restore mutated the scheduler:\nbefore: %+v\nafter:  %+v", before, after)
			}
		})
	}
}

// TestRestoreStateResumesScheduling checks that a restored scheduler is
// live, not a display copy: completing a running job redistributes its
// slots to the restored queue.
func TestRestoreStateResumesScheduling(t *testing.T) {
	src, _ := populatedSched(t)
	st := src.ExportState()

	dst, act, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute})
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	clk.advance(time.Hour) // clear every rescale gap
	queuedBefore := dst.NumQueued()
	back := dst.ExportState()
	// Complete via the restored scheduler's own record: look it up by ID.
	dst.OnJobComplete(findRestoredJob(t, dst, back.Running[0].ID))
	if dst.NumQueued() >= queuedBefore && act.starts == 0 && act.expands == 0 {
		t.Error("completion on a restored scheduler triggered no scheduling")
	}
}

// findRestoredJob digs the scheduler's own *Job out through the actuator
// path: Reschedule touches running jobs via the actuator, but the simplest
// stable handle is the running list itself.
func findRestoredJob(t *testing.T, s *Scheduler, id string) *Job {
	t.Helper()
	for _, j := range s.Running() {
		if j.ID == id {
			return j
		}
	}
	t.Fatalf("job %s not in restored running set", id)
	return nil
}

// TestExportStateIntoReusesBuffers pins the allocation-free snapshot
// variant: ExportStateInto must produce the same snapshot as ExportState
// and, when the destination already has capacity, reuse its backing arrays
// instead of allocating fresh ones.
func TestExportStateIntoReusesBuffers(t *testing.T) {
	src, _ := populatedSched(t)
	want := src.ExportState()

	var st SchedulerState
	src.ExportStateInto(&st)
	if st.Capacity != want.Capacity || !reflect.DeepEqual(st.CapStats, want.CapStats) ||
		!reflect.DeepEqual(st.Running, want.Running) || !reflect.DeepEqual(st.Queued, want.Queued) {
		t.Fatalf("ExportStateInto diverged from ExportState:\ninto: %+v\nwant: %+v", st, want)
	}

	// Second snapshot into the same record: contents identical, backing
	// arrays untouched (capacity suffices, so append must not reallocate).
	prevRun, prevQ := &st.Running[0], &st.Queued[0]
	src.ExportStateInto(&st)
	if !reflect.DeepEqual(st.Running, want.Running) || !reflect.DeepEqual(st.Queued, want.Queued) {
		t.Fatalf("second ExportStateInto diverged: %+v", st)
	}
	if &st.Running[0] != prevRun || &st.Queued[0] != prevQ {
		t.Error("ExportStateInto reallocated backing arrays it could have reused")
	}

	allocs := testing.AllocsPerRun(20, func() { src.ExportStateInto(&st) })
	if allocs > 1 { // queue.sorted() may allocate its scratch; the snapshot itself must not
		t.Errorf("ExportStateInto allocates %.0f times per snapshot", allocs)
	}
}

// TestSchedulerStateRoundTripManyBuckets round-trips a scheduler whose
// waiting jobs span four distinct slot needs, one of them a checkpointed
// requeue: the snapshot lists them in priority order whatever bucket they
// sit in, restoring rebuilds every bucket, and the restored scheduler starts
// the same jobs the source does when slots free up.
func TestSchedulerStateRoundTripManyBuckets(t *testing.T) {
	build := func() (*Scheduler, *testClock, *Job) {
		s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute})
		blocker := job("blocker", 9, 12, 12)
		victim := job("victim", 1, 4, 4)
		for _, j := range []*Job{blocker, victim} {
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SetCapacity(12); err != nil { // requeues victim, checkpointed
			t.Fatal(err)
		}
		for i, minR := range []int{2, 3, 8, 2, 8, 3} {
			clk.advance(time.Second)
			if err := s.Submit(job("w"+itoa(i), 2+i%3, minR, minR+4)); err != nil {
				t.Fatal(err)
			}
		}
		return s, clk, blocker
	}
	src, sclk, blocker := build()
	nonEmpty := 0
	for _, b := range src.queue.buckets {
		if len(b.jobs) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 || src.queue.preempted != 1 {
		t.Fatalf("scenario lost its point: %d non-empty buckets, %d preempted waiting", nonEmpty, src.queue.preempted)
	}
	st := src.ExportState()
	for i := 1; i < len(st.Queued); i++ {
		if !src.before(&st.Queued[i-1], &st.Queued[i]) {
			t.Fatalf("snapshot not in priority order at %d: %s then %s", i, st.Queued[i-1].ID, st.Queued[i].ID)
		}
	}

	dst, _, dclk := newSched(t, Config{Policy: Elastic, Capacity: 4, RescaleGap: time.Minute})
	dclk.t = sclk.t
	if err := dst.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if back := dst.ExportState(); !reflect.DeepEqual(st, back) {
		t.Errorf("round trip diverged:\nexported: %+v\nrestored: %+v", st, back)
	}
	if dst.queue.minNeed() != src.queue.minNeed() || dst.queue.preempted != src.queue.preempted {
		t.Errorf("restored queue: minNeed %d preempted %d, source %d / %d",
			dst.queue.minNeed(), dst.queue.preempted, src.queue.minNeed(), src.queue.preempted)
	}
	// Free the cluster on both and compare what they do with it.
	sclk.advance(2 * time.Minute)
	dclk.advance(2 * time.Minute)
	src.OnJobComplete(blocker)
	dst.OnJobComplete(findRestoredJob(t, dst, "blocker"))
	if a, b := src.ExportState(), dst.ExportState(); !reflect.DeepEqual(a, b) {
		t.Errorf("schedulers diverged after the restore:\nsource:   %+v\nrestored: %+v", a, b)
	}
}

// The fuzzed snapshot is two header bytes (capacity, per-job overhead slots)
// and nine bytes a job: which list, ID ("" or one letter, so duplicates are
// common), state, priority, min, max and replicas as signed bytes (zero and
// negative included), and the submit and last-action instants in seconds
// after the test clock's origin (last action 0 = never).
const (
	fuzzStateHeader = 2
	fuzzStateJob    = 9
	fuzzStateJobs   = 32
)

func decodeFuzzState(data []byte, origin time.Time) (st SchedulerState, overhead int) {
	if len(data) < fuzzStateHeader {
		return st, 0
	}
	st.Capacity, overhead = int(int8(data[0])), int(data[1]%3)
	data = data[fuzzStateHeader:]
	for n := 0; len(data) >= fuzzStateJob && n < fuzzStateJobs; n, data = n+1, data[fuzzStateJob:] {
		j := Job{
			State: State(data[2] % 6), Priority: int(int8(data[3])),
			MinReplicas: int(int8(data[4])), MaxReplicas: int(int8(data[5])), Replicas: int(int8(data[6])),
			SubmitTime: origin.Add(time.Duration(data[7]) * time.Second),
		}
		if data[1] != 0 {
			j.ID = string(rune('a' + (data[1]-1)%26))
		}
		if data[8] != 0 {
			j.LastAction = origin.Add(time.Duration(data[8]-1) * time.Second)
		}
		if data[0]%2 == 0 {
			st.Running = append(st.Running, j)
		} else {
			st.Queued = append(st.Queued, j)
		}
	}
	return st, overhead
}

// encodeFuzzState is decodeFuzzState's inverse on the fixtures above (one-
// letter IDs, instants within 255 s of origin): it seeds the corpus.
func encodeFuzzState(st SchedulerState, origin time.Time) []byte {
	data := []byte{byte(st.Capacity), 0}
	for list, jobs := range [][]Job{st.Running, st.Queued} {
		for _, j := range jobs {
			last := byte(0)
			if !j.LastAction.IsZero() {
				last = byte(j.LastAction.Sub(origin)/time.Second) + 1
			}
			data = append(data, byte(list), j.ID[0]-'a'+1, byte(j.State), byte(j.Priority),
				byte(j.MinReplicas), byte(j.MaxReplicas), byte(j.Replicas),
				byte(j.SubmitTime.Sub(origin)/time.Second), last)
		}
	}
	return data
}

// FuzzRestoreState holds RestoreState to its contract on snapshots nobody
// exported: a snapshot a service front-end hands in is rejected with an error
// or restored, never a panic; a restored one exports to a snapshot that
// restores into a fresh scheduler and exports the same again; the free-slot
// count is what the running set leaves of the capacity; and the restored
// scheduler is live — a scheduling pass over it does not panic either.
func FuzzRestoreState(f *testing.F) {
	origin := newTestClock().t
	src, _ := populatedSched(f)
	f.Add(encodeFuzzState(src.ExportState(), origin))
	for _, c := range []int{3, 10} { // TestSchedulerStateMidEpochRoundTrip's drop and raise
		if err := src.SetCapacity(c); err != nil {
			f.Fatal(err)
		}
		f.Add(encodeFuzzState(src.ExportState(), origin))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, overhead := decodeFuzzState(data, origin)
		cfg := Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute, JobOverheadSlots: overhead}
		s, _, clk := newSched(t, cfg)
		clk.advance(30 * time.Second) // inside some jobs' rescale gap, past others'
		if err := s.RestoreState(st); err != nil {
			return
		}
		first := s.ExportState()
		used := 0
		for _, j := range first.Running {
			used += j.Replicas + overhead
		}
		if s.FreeSlots() != first.Capacity-used {
			t.Fatalf("FreeSlots = %d with %d of %d slots in use", s.FreeSlots(), used, first.Capacity)
		}
		again, _, _ := newSched(t, cfg)
		if err := again.RestoreState(first); err != nil {
			t.Fatalf("an exported snapshot does not restore: %v\n%+v", err, first)
		}
		if second := again.ExportState(); !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the snapshot:\nfirst:  %+v\nsecond: %+v", first, second)
		}
		s.Reschedule()
	})
}
