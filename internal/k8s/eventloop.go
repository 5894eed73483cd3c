package k8s

import (
	"container/heap"
	"time"
)

// EventLoop is the control plane's single execution thread over a virtual
// clock: deferred work runs before time advances, timers fire in timestamp
// order. Running a full 40-minute scheduling experiment is a sequence of
// Settle-and-advance steps that completes in milliseconds of real time while
// preserving every causal ordering a real cluster would exhibit.
type EventLoop struct {
	now time.Time
	// defers[head:] is the deferred work; Settle reuses the array once it
	// is empty.
	defers []func()
	head   int
	timers loopTimerHeap
	seq    int64
}

type loopTimer struct {
	at  time.Time
	fn  func()
	seq int64
}

type loopTimerHeap []*loopTimer

func (h loopTimerHeap) Len() int { return len(h) }
func (h loopTimerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h loopTimerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *loopTimerHeap) Push(x any)   { *h = append(*h, x.(*loopTimer)) }
func (h *loopTimerHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// NewEventLoop creates a loop starting at the given virtual time.
func NewEventLoop(start time.Time) *EventLoop {
	return &EventLoop{now: start}
}

// Now implements Loop.
func (l *EventLoop) Now() time.Time { return l.now }

// Defer implements Loop: fn runs during the next Settle, in FIFO order.
func (l *EventLoop) Defer(fn func()) { l.defers = append(l.defers, fn) }

// At implements Loop: fn runs once d has elapsed on the virtual clock.
// Non-positive delays run at the current instant (on the next Settle).
func (l *EventLoop) At(d time.Duration, fn func()) {
	if d <= 0 {
		l.Defer(fn)
		return
	}
	l.seq++
	heap.Push(&l.timers, &loopTimer{at: l.now.Add(d), fn: fn, seq: l.seq})
}

// Settle drains deferred work (including work deferred by that work) and
// reports how many functions ran. Time does not advance.
func (l *EventLoop) Settle() int {
	ran := 0
	for l.head < len(l.defers) {
		fn := l.defers[l.head]
		l.defers[l.head] = nil
		l.head++
		fn()
		ran++
		if ran > 10_000_000 {
			panic("k8s: event loop livelock: deferred work never settles")
		}
	}
	l.defers, l.head = l.defers[:0], 0
	return ran
}

// Step settles, then advances the clock to the next timer and runs every
// timer at that instant plus the work they defer. It reports false when
// nothing remains.
func (l *EventLoop) Step() bool {
	l.Settle()
	if len(l.timers) == 0 {
		return false
	}
	at := l.timers[0].at
	l.now = at
	for len(l.timers) > 0 && l.timers[0].at.Equal(at) {
		t := heap.Pop(&l.timers).(*loopTimer)
		t.fn()
	}
	l.Settle()
	return true
}

// RunUntil steps the loop until the predicate holds or no work remains. It
// reports whether the predicate held.
func (l *EventLoop) RunUntil(pred func() bool) bool {
	l.Settle()
	for !pred() {
		if !l.Step() {
			return pred()
		}
	}
	return true
}

// RunUntilIdle drains all deferred work and timers.
func (l *EventLoop) RunUntilIdle() {
	for l.Step() {
	}
}

// PendingTimers reports how many timers are armed.
func (l *EventLoop) PendingTimers() int { return len(l.timers) }
