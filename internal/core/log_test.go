package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestDecisionLogRecordsLifecycle(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, EnableLog: true})
	a := job("a", 1, 2, 16)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	b := job("b", 5, 4, 8)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	s.OnJobComplete(b)
	s.OnJobComplete(a)

	log := s.Log()
	joined := logKinds(log)
	for _, want := range []string{"start:a", "shrink:a", "start:b", "complete:b", "expand:a", "complete:a"} {
		if !strings.Contains(joined, want) {
			t.Errorf("decision log missing %q: %s", want, joined)
		}
	}
	// Every entry has consistent accounting.
	for _, d := range log {
		if d.FreeSlots < 0 || d.FreeSlots > 16 {
			t.Errorf("decision %v has free=%d", d, d.FreeSlots)
		}
		if d.String() == "" {
			t.Error("empty decision string")
		}
	}
}

func TestDecisionLogDisabledByDefault(t *testing.T) {
	s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 8})
	if err := s.Submit(job("a", 1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Log()); n != 0 {
		t.Errorf("log has %d entries without EnableLog", n)
	}
}

// churn logs iterations start/complete pairs of a one-slot job on a
// cluster too large to queue anything, one second apart, starting at the
// from'th iteration's instant: every pair leaves the scheduler as it found
// it, so split runs log, end to end, what one run logs.
func churn(s *Scheduler, clk *testClock, from, iterations int) error {
	clk.advance(time.Duration(from) * time.Second)
	for i := from; i < from+iterations; i++ {
		j := job(fmt.Sprintf("j%06d", i), 1, 1, 1)
		if err := s.Submit(j); err != nil {
			return err
		}
		s.OnJobComplete(j)
		clk.advance(time.Second)
	}
	return nil
}

// TestDecisionLogBounded: past maxLogEntries the ring keeps the newest
// entries, and Log returns them oldest first as a copy — equal to the tail of
// an unbounded log, which two schedulers that each stay below the cap log
// between them, and unchanged by the entries that overwrite the ring after.
func TestDecisionLogBounded(t *testing.T) {
	const first, second = maxLogEntries * 2 / 5, maxLogEntries * 3 / 10 // 2 entries an iteration
	cfg := Config{Policy: Elastic, Capacity: 1 << 20, EnableLog: true}
	var unbounded []Decision
	for _, part := range [][2]int{{0, first}, {first, second}} {
		u, _, clk := newSched(t, cfg)
		if err := churn(u, clk, part[0], part[1]); err != nil {
			t.Fatal(err)
		}
		unbounded = append(unbounded, u.Log()...)
	}
	s, _, clk := newSched(t, cfg)
	if err := churn(s, clk, 0, first+second); err != nil {
		t.Fatal(err)
	}
	log := s.Log()
	if want := unbounded[len(unbounded)-maxLogEntries:]; !reflect.DeepEqual(log, want) {
		t.Fatalf("wrapped log (%d entries, oldest %v) is not the newest %d of the unbounded log (oldest %v)",
			len(log), log[0], maxLogEntries, want[0])
	}
	kept := slices.Clone(log)
	if err := churn(s, clk, first+second, 10); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log, kept) {
		t.Error("a wrapped log's slice changed as later decisions overwrote the ring: Log returned the ring, not a copy")
	}
}

// TestDecisionLogIsTheRing: below the cap Log hands out the ring itself —
// no allocation — and a slice taken mid-run keeps its entries while later
// decisions append past its end, even into the same reserved backing array.
func TestDecisionLogIsTheRing(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 1 << 20, EnableLog: true})
	s.ReserveLog(maxLogEntries)
	if err := churn(s, clk, 0, 500); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Log() }); allocs != 0 {
		t.Errorf("Log below the cap allocates %.0f times, want 0", allocs)
	}
	mid := s.Log()
	kept := slices.Clone(mid)
	if cap(mid) != len(mid) {
		t.Errorf("Log returned len %d cap %d: an append would write into the ring", len(mid), cap(mid))
	}
	if err := churn(s, clk, 500, 500); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mid, kept) {
		t.Error("a Log slice taken mid-run changed as later decisions were logged")
	}
	if got := s.Log(); len(got) != 2*len(mid) || !reflect.DeepEqual(got[:len(mid)], kept) {
		t.Errorf("log holds %d entries after twice the decisions, want %d beginning with the mid-run slice", len(got), 2*len(mid))
	}
}

// TestDecisionRecordSize pins the record the ring, the streams and their
// files share: 40 bytes, one pointer (the job ID).
func TestDecisionRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Decision{}); size != 40 {
		t.Errorf("core.Decision is %d bytes, want 40", size)
	}
}

func TestDecisionKindStrings(t *testing.T) {
	labels := map[string]bool{}
	for k := DecisionStart; k <= DecisionWithdraw; k++ {
		text, err := k.MarshalText()
		if err != nil || string(text) != k.String() || strings.HasPrefix(k.String(), "DecisionKind(") {
			t.Errorf("DecisionKind(%d): MarshalText %q, %v; String %q", int(k), text, err, k)
		}
		labels[string(text)] = true
		var back DecisionKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("label %q decodes to %v, %v; want %v", text, back, err, k)
		}
	}
	if len(labels) != 8 {
		t.Errorf("%d distinct labels for the eight kinds", len(labels))
	}
	for _, k := range []DecisionKind{0, -1, DecisionWithdraw + 1, 42} {
		if _, err := k.MarshalText(); err == nil {
			t.Errorf("DecisionKind(%d) marshals", int(k))
		}
		if k.String() == "" {
			t.Errorf("DecisionKind(%d) empty", int(k))
		}
	}
	for _, text := range []string{"", "bogus", "Start", "start ", "0", "DecisionKind(1)"} {
		k := DecisionShrink
		if err := k.UnmarshalText([]byte(text)); err == nil || k != DecisionShrink {
			t.Errorf("label %q decodes (to %v, %v)", text, k, err)
		}
	}
}

// logKinds renders a log as "kind:job" words.
func logKinds(log []Decision) string {
	var kinds []string
	for _, d := range log {
		kinds = append(kinds, d.Kind.String()+":"+d.JobID)
	}
	return strings.Join(kinds, " ")
}

// TestSubmitThatWaitsLogsOneEnqueue: the log holds effects only. A job's
// first entry into the wait queue is one; being looked at by a later pass and
// put back is not.
func TestSubmitThatWaitsLogsOneEnqueue(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 4, RescaleGap: time.Minute, EnableLog: true})
	a, b := job("a", 5, 4, 4), job("b", 1, 4, 4)
	for _, j := range []*Job{a, b} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := logKinds(s.Log()), "start:a enqueue:b"; got != want {
		t.Fatalf("log after the submits is %q, want %q", got, want)
	}
	for i := 0; i < 3; i++ {
		clk.advance(2 * time.Minute)
		s.Reschedule()
	}
	if got, want := logKinds(s.Log()), "start:a enqueue:b"; got != want {
		t.Fatalf("three kicks that start nothing changed the log to %q", got)
	}
	s.OnJobComplete(a)
	if got, want := logKinds(s.Log()), "start:a enqueue:b complete:a start:b"; got != want {
		t.Errorf("log after the completion is %q, want %q", got, want)
	}
}

// TestRescheduleThatStartsNothingLogsNothing: 100k jobs wait behind a
// saturated cluster whose running jobs could shrink but outrank them all, so
// a kick has to look and then places nothing — and appends nothing.
func TestRescheduleThatStartsNothingLogsNothing(t *testing.T) {
	const backlog = 100_000
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 64, RescaleGap: time.Minute, EnableLog: true})
	for j := 0; j < 4; j++ {
		if err := s.Submit(job(fmt.Sprintf("run%d", j), 9, 4, 16)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < backlog; j++ {
		if err := s.Submit(job(fmt.Sprintf("j%06d", j), 1+j%5, 2<<(j%4), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if s.FreeSlots() != 0 || s.NumQueued() != backlog || s.maxFreeable() == 0 {
		t.Fatalf("setup: free=%d queued=%d freeable=%d, want a saturated, shrinkable cluster with the whole backlog waiting",
			s.FreeSlots(), s.NumQueued(), s.maxFreeable())
	}
	// The ring is at its cap, so any append would overwrite the oldest
	// entry and show up as a changed snapshot.
	before := s.Log()
	if len(before) != maxLogEntries {
		t.Fatalf("setup: %d log entries, want the ring full at %d", len(before), maxLogEntries)
	}
	clk.advance(2 * time.Minute)
	s.Reschedule()
	if after := s.Log(); !reflect.DeepEqual(before, after) {
		t.Errorf("a Reschedule that started nothing changed the log (oldest %v -> %v, newest %v -> %v)",
			before[0], after[0], before[len(before)-1], after[len(after)-1])
	}
	if s.NumQueued() != backlog {
		t.Errorf("%d queued after the kick, want %d", s.NumQueued(), backlog)
	}
}
