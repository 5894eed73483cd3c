package k8s

import (
	"math"
	"time"
)

// EventLoop is the control plane's single execution thread over a virtual
// clock: deferred work runs before time advances, timers fire in timestamp
// order. Running a full 40-minute scheduling experiment is a sequence of
// Settle-and-advance steps that completes in milliseconds of real time while
// preserving every causal ordering a real cluster would exhibit.
type EventLoop struct {
	start time.Time
	// elapsed is the clock: nanoseconds since start. The timers are armed on
	// it, so ordering them compares integers.
	elapsed int64
	defers  fifo[func()]
	// timers is a binary min-heap on (at, seq), held by value: it holds no
	// pointer, and arming a timer allocates nothing once the array has grown.
	// A timer of kind k runs handlers[k].
	timers   []loopTimer
	seq      int64
	handlers []func(arg int32, seq int64)
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

// TimerKind is a kind of timer: it names the handler Handler registered.
type TimerKind uint8

// loopTimer runs its kind's handler with arg and seq at, in nanoseconds since
// the loop's start.
type loopTimer struct {
	at, seq int64
	arg     int32
	kind    TimerKind
}

// before orders timers by time, then by arming order.
func (t *loopTimer) before(u *loopTimer) bool {
	if t.at != u.at {
		return t.at < u.at
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
	h[0] = h[n]
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
func NewEventLoop(start time.Time) *EventLoop { return &EventLoop{start: start} }

// Now returns the loop's current time.
func (l *EventLoop) Now() time.Time { return l.start.Add(time.Duration(l.elapsed)) }

// Elapsed returns the loop's current time as the span since its start.
func (l *EventLoop) Elapsed() time.Duration { return time.Duration(l.elapsed) }

// Defer runs fn after the current event finishes, before time advances:
// during the next Settle, in FIFO order.
func (l *EventLoop) Defer(fn func()) { l.defers.push(fn) }

// Handler registers fn as the handler of a new kind of timer and returns the
// kind. A component registers each of its kinds once; a loop has 256 at most.
func (l *EventLoop) Handler(fn func(arg int32, seq int64)) TimerKind {
	if len(l.handlers) > math.MaxUint8 {
		panic("k8s: event loop has 256 timer kinds already")
	}
	l.handlers = append(l.handlers, fn)
	return TimerKind(len(l.handlers) - 1)
}

// Arm runs the kind's handler with arg once d has elapsed on the virtual
// clock, handing it the seq Arm returns: no other timer of the loop has it,
// so a component that keeps it tells its latest timer from one it
// superseded. Timers due at the same instant run in the order they were
// armed; a non-positive delay defers the handler, in FIFO order with Defer,
// which allocates.
func (l *EventLoop) Arm(d time.Duration, kind TimerKind, arg int32) int64 {
	l.seq++
	seq := l.seq
	if d <= 0 {
		l.Defer(func() { l.handlers[kind](arg, seq) })
		return seq
	}
	at := l.elapsed + int64(d)
	if at < l.elapsed {
		at = math.MaxInt64 // past the clock's range: after every timer
	}
	l.pushTimer(loopTimer{at: at, seq: seq, arg: arg, kind: kind})
	return seq
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
	l.elapsed = at
	for len(l.timers) > 0 && l.timers[0].at == at {
		t := l.popTimer()
		l.handlers[t.kind](t.arg, t.seq)
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
