package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
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

func TestDecisionLogBounded(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 1 << 20, EnableLog: true})
	// Churn far past the cap.
	for i := 0; i < maxLogEntries/2+100; i++ {
		j := job("j", 1, 1, 1)
		j.ID = "j" + string(rune('a'+i%26))
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
		s.OnJobComplete(j)
		clk.advance(time.Second)
	}
	if n := len(s.Log()); n > maxLogEntries {
		t.Errorf("log grew to %d entries (cap %d)", n, maxLogEntries)
	}
}

func TestDecisionKindStrings(t *testing.T) {
	kinds := []DecisionKind{DecisionStart, DecisionShrink, DecisionExpand,
		DecisionEnqueue, DecisionComplete, DecisionPreempt, DecisionKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("DecisionKind(%d) empty", k)
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
