package k8s

import "time"

// EventLoop is the control plane's single execution thread over a virtual
// clock: deferred work runs before time advances, timers fire in timestamp
// order. Running a full 40-minute scheduling experiment is a sequence of
// Settle-and-advance steps that completes in milliseconds of real time while
// preserving every causal ordering a real cluster would exhibit.
type EventLoop struct {
	now    time.Time
	defers fifo[func()]
	// timers is a binary min-heap on (at, seq), held by value: arming a
	// timer allocates nothing once the array has grown.
	timers []loopTimer
	seq    int64
}

// fifo is a queue that reuses its array once it has drained.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

type loopTimer struct {
	at  time.Time
	fn  func()
	seq int64
}

// before orders timers by time, then by arming order.
func (t *loopTimer) before(u *loopTimer) bool {
	if !t.at.Equal(u.at) {
		return t.at.Before(u.at)
	}
	return t.seq < u.seq
}

func (l *EventLoop) pushTimer(t loopTimer) {
	h := append(l.timers, t)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	l.timers = h
}

func (l *EventLoop) popTimer() loopTimer {
	h := l.timers
	n := len(h) - 1
	top := h[0]
	h[0], h[n] = h[n], loopTimer{}
	h = h[:n]
	for i := 0; ; {
		least := i
		for child := 2*i + 1; child <= 2*i+2 && child < n; child++ {
			if h[child].before(&h[least]) {
				least = child
			}
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	l.timers = h
	return top
}

// NewEventLoop creates a loop starting at the given virtual time.
func NewEventLoop(start time.Time) *EventLoop {
	return &EventLoop{now: start}
}

// Now implements Loop.
func (l *EventLoop) Now() time.Time { return l.now }

// Defer implements Loop: fn runs during the next Settle, in FIFO order.
func (l *EventLoop) Defer(fn func()) { l.defers.push(fn) }

// At implements Loop: fn runs once d has elapsed on the virtual clock.
// Non-positive delays run at the current instant (on the next Settle).
func (l *EventLoop) At(d time.Duration, fn func()) {
	if d <= 0 {
		l.Defer(fn)
		return
	}
	l.seq++
	l.pushTimer(loopTimer{at: l.now.Add(d), fn: fn, seq: l.seq})
}

// Settle drains deferred work (including work deferred by that work) and
// reports how many functions ran. Time does not advance.
func (l *EventLoop) Settle() int {
	ran := 0
	for l.defers.len() > 0 {
		l.defers.pop()()
		ran++
		if ran > 10_000_000 {
			panic("k8s: event loop livelock: deferred work never settles")
		}
	}
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
		l.popTimer().fn()
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
