package core

import (
	"fmt"
	"time"
)

// DecisionKind classifies a scheduling decision. Kinds are numbered from 1,
// so the zero value is no kind: a decoded record whose kind is missing or
// null is invalid instead of reading as a start.
type DecisionKind int

// Decision kinds recorded by the scheduler.
const (
	DecisionStart DecisionKind = iota + 1
	DecisionShrink
	DecisionExpand
	DecisionEnqueue
	DecisionComplete
	DecisionPreempt
	DecisionCapacity
	DecisionWithdraw
)

// decisionLabels are the kinds' log labels, indexed by kind.
var decisionLabels = [...]string{
	DecisionStart:    "start",
	DecisionShrink:   "shrink",
	DecisionExpand:   "expand",
	DecisionEnqueue:  "enqueue",
	DecisionComplete: "complete",
	DecisionPreempt:  "preempt",
	DecisionCapacity: "capacity",
	DecisionWithdraw: "withdraw",
}

// valid reports whether k is one of the kinds the scheduler emits.
func (k DecisionKind) valid() bool {
	return k >= DecisionStart && k <= DecisionWithdraw
}

// String returns the decision kind's log label.
func (k DecisionKind) String() string {
	if k.valid() {
		return decisionLabels[k]
	}
	return fmt.Sprintf("DecisionKind(%d)", int(k))
}

// MarshalText encodes the kind as its log label; a kind the scheduler cannot
// emit is an error.
func (k DecisionKind) MarshalText() ([]byte, error) {
	if !k.valid() {
		return nil, fmt.Errorf("core: invalid decision kind %d", int(k))
	}
	return []byte(decisionLabels[k]), nil
}

// UnmarshalText decodes one of the eight log labels; any other text is an
// error.
func (k *DecisionKind) UnmarshalText(text []byte) error {
	for kind := DecisionStart; kind <= DecisionWithdraw; kind++ {
		if decisionLabels[kind] == string(text) {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("core: unknown decision kind %q", text)
}

// Decision is one entry in the scheduler's decision log — the audit trail
// of every effect the policy had, with the slot accounting at the time it
// was made. DecisionEnqueue marks a job's first entry into the wait queue
// (Submit could not start it); a waiting job put back by a later pass is not
// logged again.
//
// The record is also the decision stream's serialized form: its JSON tags
// are the stream fields, in order, and the timestamp is the decision's
// exact Unix-nanosecond instant, so a round trip cannot lose a bit.
//
// It is 40 bytes. The two slot counts are int32: a scheduler's capacity is
// at most math.MaxInt32 (NewScheduler and SetCapacity refuse more), so an
// allocation and the free pool — which lies between 1 − capacity and
// capacity — always fit.
type Decision struct {
	AtNs     int64        `json:"at_ns"`
	Kind     DecisionKind `json:"kind"`
	JobID    string       `json:"job,omitempty"`
	Replicas int32        `json:"replicas"` // allocation after the decision (0 for enqueue/complete; the new total for capacity)
	// FreeSlots is the free pool after the decision — except for a capacity
	// entry, which is logged before the new capacity applies and so carries
	// the pool as it was (16 → 8 slots with none free logs free=0, and the
	// pool then stands at −8 until a reclaim or a completion pays it back).
	FreeSlots int32 `json:"free"`
}

// String formats a decision as one log line.
func (d Decision) String() string {
	return fmt.Sprintf("%s %-8s %-12s replicas=%-3d free=%d",
		time.Unix(0, d.AtNs).UTC().Format("15:04:05"), d.Kind, d.JobID, d.Replicas, d.FreeSlots)
}

// maxLogEntries bounds the in-memory decision log; older entries are
// discarded (the operator runs for days).
const maxLogEntries = 100_000

// logRing is a bounded ring buffer of decisions, mirroring the charm msgq
// ring: the backing array grows until maxLogEntries and is then reused
// in place, so steady-state logging overwrites the oldest slot instead of
// copying or allocating per entry.
type logRing struct {
	buf  []Decision
	head int // index of the oldest entry once the ring is full
	n    int // live entries
}

// add appends one entry, overwriting the oldest at the cap.
func (r *logRing) add(d Decision) {
	if len(r.buf) < maxLogEntries {
		r.buf = append(r.buf, d)
		r.n = len(r.buf)
		return
	}
	r.buf[r.head] = d
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

// reserve sizes the backing array for n entries (at most the bound) in one
// allocation, so a run that knows roughly how much it will log does not grow
// the ring by doubling — every regrowth clears and copies the whole buffer.
func (r *logRing) reserve(n int) {
	if n = min(n, maxLogEntries); n > cap(r.buf) {
		r.buf = append(make([]Decision, 0, n), r.buf...)
	}
}

// snapshot returns the entries oldest-first. Below the cap that is the
// backing array itself, capped so an append cannot reach the ring's spare
// capacity; at the cap, where the next entry overwrites the oldest in place,
// it is a fresh copy.
func (r *logRing) snapshot() []Decision {
	if r.n == 0 {
		return nil
	}
	if r.n < maxLogEntries {
		return r.buf[:r.n:r.n]
	}
	out := make([]Decision, 0, r.n)
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// record appends a per-job decision to the log.
func (s *Scheduler) record(kind DecisionKind, j *Job) {
	if !s.cfg.EnableLog {
		return
	}
	s.log.add(Decision{
		AtNs: s.tnowNs, Kind: kind, JobID: j.ID, Replicas: int32(j.Replicas), FreeSlots: int32(s.free),
	})
}

// recordCapacity logs a capacity change (EnableLog only).
func (s *Scheduler) recordCapacity(n int) {
	if !s.cfg.EnableLog {
		return
	}
	s.log.add(Decision{
		AtNs: s.tnowNs, Kind: DecisionCapacity, JobID: "", Replicas: int32(n), FreeSlots: int32(s.free),
	})
}

// ReserveLog sizes the decision ring for a run expected to record about
// entries decisions (no-op without Config.EnableLog, or when the ring is
// already that large). It bounds nothing: the ring still grows to its cap of
// 100k entries and then overwrites the oldest.
func (s *Scheduler) ReserveLog(entries int) {
	if s.cfg.EnableLog {
		s.log.reserve(entries)
	}
}

// Log returns the decision log, oldest entry first (empty unless
// Config.EnableLog). Below the ring's cap of 100k entries the slice is the
// scheduler's own ring, not a copy, and it is read-only. Later decisions
// append past its end and leave it unchanged until the ring reaches its cap;
// from then on they overwrite the oldest entries in place, and Log returns a
// fresh copy.
func (s *Scheduler) Log() []Decision {
	return s.log.snapshot()
}

// MergeLogs concatenates per-segment decision logs (each oldest-first) in
// segment order and applies the ring-buffer bound, keeping the newest
// maxLogEntries entries — exactly the log one scheduler would hold had it
// recorded every segment's decisions in sequence. (A segment whose own ring
// already dropped entries dropped only entries with at least maxLogEntries
// successors globally, which the single-scheduler ring drops too.)
func MergeLogs(segments ...[]Decision) []Decision {
	total := 0
	for _, seg := range segments {
		total += len(seg)
	}
	if total == 0 {
		return nil
	}
	skip := 0
	if total > maxLogEntries {
		skip = total - maxLogEntries
	}
	out := make([]Decision, 0, total-skip)
	for _, seg := range segments {
		if skip >= len(seg) {
			skip -= len(seg)
			continue
		}
		out = append(out, seg[skip:]...)
		skip = 0
	}
	return out
}
