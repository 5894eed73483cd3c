package k8s

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// closures registers on the loop a kind of timer that runs a closure, the
// one whose index its timer carries, and returns the func that arms one:
// at(d, fn) runs fn once d has elapsed.
func closures(loop *EventLoop) (at func(d time.Duration, fn func())) {
	var fns []func()
	kind := loop.Handler(func(i int32, _ int64) {
		fn := fns[i]
		fns[i] = nil
		fn()
	})
	return func(d time.Duration, fn func()) {
		fns = append(fns, fn)
		loop.Arm(d, kind, int32(len(fns)-1))
	}
}

func TestEventLoopOrdering(t *testing.T) {
	loop := NewEventLoop(t0)
	at := closures(loop)
	var order []int
	at(2*time.Second, func() { order = append(order, 2) })
	at(1*time.Second, func() { order = append(order, 1) })
	loop.Defer(func() { order = append(order, 0) })
	at(1*time.Second, func() { order = append(order, 11) }) // same instant, FIFO
	loop.RunUntilIdle()
	want := []int{0, 1, 11, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !loop.Now().Equal(t0.Add(2 * time.Second)) {
		t.Errorf("Now = %v", loop.Now())
	}
}

// TestEventLoopTimersFireInTimeThenArmingOrder holds the timer heap to a
// stable sort of what was armed, timers armed by a firing timer included.
// Timers of three kinds are armed at random, so the kinds interleave at
// equal instants, up front and from inside each kind's handler.
func TestEventLoopTimersFireInTimeThenArmingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	loop := NewEventLoop(t0)
	type armed struct {
		at   time.Duration
		kind int
		seq  int64
	}
	var want, got []armed
	var kinds [3]TimerKind
	arm := func(from time.Duration) {
		a := armed{at: from + time.Duration(1+rng.Intn(20))*time.Second, kind: rng.Intn(len(kinds))}
		a.seq = loop.Arm(a.at-from, kinds[a.kind], int32(len(want)))
		want = append(want, a)
	}
	for k := range kinds {
		kinds[k] = loop.Handler(func(i int32, seq int64) {
			a := want[i]
			if a.kind != k || a.seq != seq || a.at != loop.Elapsed() {
				t.Fatalf("kind %d ran timer %d (kind %d, seq %d, due %v) with seq %d at %v", k, i, a.kind, a.seq, a.at, seq, loop.Elapsed())
			}
			got = append(got, a)
		})
	}
	for i := 0; i < 200; i++ {
		arm(0)
	}
	nest := loop.Handler(func(from int32, _ int64) {
		for i := 0; i < 100; i++ {
			arm(time.Duration(from) * time.Second)
		}
	})
	loop.Arm(7*time.Second, nest, 7)
	loop.Arm(13*time.Second, nest, 13)
	loop.RunUntilIdle()
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timers fired\n %v\nwant\n %v", got, want)
	}
}

// TestEventLoopTimersAllocateNothing holds arming and firing timers of two
// kinds to no allocation once the heap's array has grown.
func TestEventLoopTimersAllocateNothing(t *testing.T) {
	loop := NewEventLoop(t0)
	var ran [2]int
	tick := loop.Handler(func(int32, int64) { ran[0]++ })
	carry := loop.Handler(func(n int32, _ int64) { ran[1] += int(n) })
	arm := func() {
		loop.Arm(time.Second, carry, 2)
		loop.Arm(time.Second, tick, 0)
		loop.RunUntilIdle()
	}
	if n := testing.AllocsPerRun(100, arm); n != 0 {
		t.Errorf("arming and firing two timers allocates %v times, want 0", n)
	}
	if ran != [2]int{101, 202} {
		t.Errorf("timers ran %v, want [101 202]", ran)
	}
}

// TestLoopTimerHoldsNoPointer fails when a timer gains a field that holds a
// pointer: the heap moves timers on every arming and firing, and a pointer
// in them makes each move a write barrier's work.
func TestLoopTimerHoldsNoPointer(t *testing.T) {
	var holdsPointer func(reflect.Type) bool
	holdsPointer = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return t.Len() > 0 && holdsPointer(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				if holdsPointer(t.Field(i).Type) {
					return true
				}
			}
			return false
		default: // pointers, strings, slices, maps, chans, funcs, interfaces
			return true
		}
	}
	typ := reflect.TypeOf(loopTimer{})
	for i := range typ.NumField() {
		if f := typ.Field(i); holdsPointer(f.Type) {
			t.Errorf("loopTimer.%s is a %v, which holds a pointer", f.Name, f.Type)
		}
	}
	if !holdsPointer(reflect.TypeOf(struct{ p *int }{})) || !holdsPointer(reflect.TypeOf([1]func(){})) ||
		holdsPointer(reflect.TypeOf(struct{ a [2]int64 }{})) {
		t.Error("holdsPointer misjudges a pointer")
	}
}

// loopOp is one step of a FuzzEventLoopOrder script: op i arms a timer of
// one of three kinds, deferred work (Defer) or a completion, up front when
// parent is negative, else from inside op parent's handler. A completion is
// a timer whose handler acts only if it is the latest completion armed on
// its slot, as a job's completion timer is superseded by a rescale.
type loopOp struct {
	kind   byte // opKinds kinds of timer, then opDefer and opComplete
	delay  time.Duration
	slot   int
	parent int
}

const (
	opKinds    = 3
	opDefer    = opKinds
	opComplete = opKinds + 1
)

// fuzzDelays are the delays a script's timers are armed with: negative, zero,
// short, and far enough that the instant saturates at the clock's end.
var fuzzDelays = [...]time.Duration{
	-time.Second, -1, 0, 1, time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second,
	math.MaxInt64 / 2, math.MaxInt64,
}

// opRun is an op's handler running, at elapsed on the loop's clock, handed
// seq (0 for deferred work).
type opRun struct {
	op      int
	elapsed time.Duration
	seq     int64
}

// children lists, for each op of the script, the ops it arms when it runs,
// in script order.
func children(script []loopOp) [][]int {
	kids := make([][]int, len(script))
	for i, op := range script {
		if op.parent >= 0 {
			kids[op.parent] = append(kids[op.parent], i)
		}
	}
	return kids
}

// runLoopScript runs the script on an EventLoop and returns its ops' runs in
// the order they ran.
func runLoopScript(t *testing.T, script []loopOp) []opRun {
	kids := children(script)
	loop := NewEventLoop(t0)
	armed := make([]int64, len(script)) // the seq Arm returned for each op
	latest := map[int]int64{}           // by slot, the latest completion's seq
	var got []opRun
	var arm func(i int)
	run := func(i int, seq int64) {
		if now, want := loop.Now(), t0.Add(loop.Elapsed()); !now.Equal(want) {
			t.Fatalf("op %d ran at Now %v, want the start plus Elapsed, %v", i, now, want)
		}
		if seq != armed[i] {
			t.Fatalf("op %d was handed seq %d, Arm returned %d", i, seq, armed[i])
		}
		got = append(got, opRun{i, loop.Elapsed(), seq})
		for _, j := range kids[i] {
			arm(j)
		}
	}
	var kinds [opKinds]TimerKind
	for k := range kinds {
		kinds[k] = loop.Handler(func(i int32, seq int64) { run(int(i), seq) })
	}
	complete := loop.Handler(func(i int32, seq int64) {
		if latest[script[i].slot] == seq {
			run(int(i), seq)
		}
	})
	arm = func(i int) {
		switch op := script[i]; op.kind {
		case opDefer:
			loop.Defer(func() { run(i, 0) })
		case opComplete:
			armed[i] = loop.Arm(op.delay, complete, int32(i))
			latest[op.slot] = armed[i]
		default:
			armed[i] = loop.Arm(op.delay, kinds[op.kind], int32(i))
		}
	}
	for i, op := range script {
		if op.parent < 0 {
			arm(i)
		}
	}
	loop.RunUntilIdle()
	return got
}

// referenceLoopScript runs the script on a naive loop: a list of timers
// sorted by (instant, arming order) before each instant is taken, and a FIFO
// of deferred work, drained before time advances. Every timer armed takes
// the next seq; one armed with a non-positive delay is deferred work; an
// instant past the clock's range is its last.
func referenceLoopScript(script []loopOp) []opRun {
	kids := children(script)
	type timer struct {
		at, seq int64
		op      int
	}
	var (
		now, seq int64
		timers   []timer
		deferred []timer
		latest   = map[int]int64{}
		got      []opRun
	)
	arm := func(i int) {
		op := script[i]
		if op.kind == opDefer {
			deferred = append(deferred, timer{op: i})
			return
		}
		seq++
		if op.kind == opComplete {
			latest[op.slot] = seq
		}
		if op.delay <= 0 {
			deferred = append(deferred, timer{seq: seq, op: i})
			return
		}
		at := now + int64(op.delay)
		if at < now {
			at = math.MaxInt64
		}
		timers = append(timers, timer{at, seq, i})
	}
	run := func(tm timer) {
		if op := script[tm.op]; op.kind == opComplete && latest[op.slot] != tm.seq {
			return // superseded
		}
		got = append(got, opRun{tm.op, time.Duration(now), tm.seq})
		for _, j := range kids[tm.op] {
			arm(j)
		}
	}
	for i, op := range script {
		if op.parent < 0 {
			arm(i)
		}
	}
	for {
		for len(deferred) > 0 {
			tm := deferred[0]
			deferred = deferred[1:]
			run(tm)
		}
		if len(timers) == 0 {
			return got
		}
		sort.Slice(timers, func(a, b int) bool {
			if timers[a].at != timers[b].at {
				return timers[a].at < timers[b].at
			}
			return timers[a].seq < timers[b].seq
		})
		now = timers[0].at
		for len(timers) > 0 && timers[0].at == now {
			tm := timers[0]
			timers = timers[1:]
			run(tm)
		}
	}
}

// FuzzEventLoopOrder holds the EventLoop to referenceLoopScript on fuzzed
// scripts: every two bytes are an op, the first picking its kind, delay and
// slot, the second its parent, so ties across kinds, nesting, superseded
// completions and saturated instants are common.
func FuzzEventLoopOrder(f *testing.F) {
	f.Add([]byte{0, 0, 12, 0, 13, 1, 2, 2, 29, 1, 27, 3, 5, 0, 6, 0})
	f.Add([]byte{27, 0, 28, 1, 27, 2, 3, 3, 4, 3, 24, 0, 25, 0, 14, 7, 15, 7})
	// Completions on slot 0 at 1 s, 2 s, now and −1 s, each superseding the
	// one before, beside timers of each kind at 1 s and completions on slot
	// 1 armed from inside handlers.
	f.Add([]byte{24, 0, 29, 0, 20, 0, 21, 0, 22, 0, 14, 1, 4, 0, 74, 4, 79, 5, 23, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 64
		var script []loopOp
		for i := 0; i+2 <= len(data) && len(script) < maxOps; i += 2 {
			n := len(script)
			script = append(script, loopOp{
				kind:   data[i] % (opComplete + 1),
				delay:  fuzzDelays[int(data[i]/(opComplete+1))%len(fuzzDelays)],
				slot:   int(data[i]) / ((opComplete + 1) * len(fuzzDelays)) % 2,
				parent: int(data[i+1])%(n+1) - 1,
			})
		}
		got, want := runLoopScript(t, script), referenceLoopScript(script)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("script %+v:\nloop ran %v\nreference runs %v", script, got, want)
		}
	})
}

// TestEventLoopFarTimerFiresLast arms a timer whose instant lies past the
// nanosecond clock's range: it must fire after every other timer, not wrap
// round to before them.
func TestEventLoopFarTimerFiresLast(t *testing.T) {
	loop := NewEventLoop(t0)
	at := closures(loop)
	var order []string
	at(time.Second, func() {
		at(math.MaxInt64, func() { order = append(order, "far") })
		at(time.Second, func() { order = append(order, "near") })
	})
	loop.RunUntilIdle()
	if want := []string{"near", "far"}; !reflect.DeepEqual(order, want) {
		t.Errorf("timers fired %v, want %v", order, want)
	}
}

func TestEventLoopRunUntil(t *testing.T) {
	loop := NewEventLoop(t0)
	at := closures(loop)
	fired := false
	at(5*time.Second, func() { fired = true })
	at(10*time.Second, func() {})
	if !loop.RunUntil(func() bool { return fired }) {
		t.Fatal("RunUntil never satisfied")
	}
	if len(loop.timers) != 1 {
		t.Errorf("%d timers armed, want 1 (later timer untouched)", len(loop.timers))
	}
	if loop.RunUntil(func() bool { return false }) {
		t.Error("RunUntil(false) reported success")
	}
}

// TestEventLoopZeroDelayRunsNow arms a timer with no delay: it runs on the
// next Settle, after the work deferred before it, with a seq of its own.
func TestEventLoopZeroDelayRunsNow(t *testing.T) {
	loop := NewEventLoop(t0)
	var ran []int64
	kind := loop.Handler(func(_ int32, seq int64) { ran = append(ran, seq) })
	loop.Defer(func() { ran = append(ran, 0) })
	first := loop.Arm(0, kind, 0)
	second := loop.Arm(-time.Second, kind, 0)
	loop.Settle()
	if want := []int64{0, first, second}; first == second || !reflect.DeepEqual(ran, want) {
		t.Errorf("ran %v, want %v with two seqs apart", ran, want)
	}
	if !loop.Now().Equal(t0) {
		t.Error("time advanced for zero-delay work")
	}
}
