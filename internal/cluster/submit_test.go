package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
)

// submitStep is one Submit of a script: job i of the script is submitted at
// offset at, up front or, when nested, from inside a loop callback armed up
// front at offset from.
type submitStep struct {
	at, from time.Duration
	nested   bool
}

// submitted is a job the manager took in and when, as an offset from the
// start.
type submitted struct {
	name string
	at   time.Duration
}

func scriptJob(i int) string { return fmt.Sprintf("s%d", i) }

// closures registers on the loop a kind of timer that runs a closure, the
// one whose index its timer carries, and returns the func that arms one:
// at(d, fn) runs fn once d has elapsed.
func closures(loop *k8s.EventLoop) (at func(d time.Duration, fn func())) {
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

// referenceSubmissions runs the script on a bare loop that arms one closure
// per submission and returns the submissions in the order the closures
// fired. Cluster.Submit arms instead one timer per submission that carries
// the submission's index; the two must fire alike.
func referenceSubmissions(start time.Time, script []submitStep) []submitted {
	loop := k8s.NewEventLoop(start)
	at := closures(loop)
	var got []submitted
	submit := func(name string, offset time.Duration) {
		at(offset, func() { got = append(got, submitted{name, loop.Now().Sub(start)}) })
	}
	for i, s := range script {
		name := scriptJob(i)
		if s.nested {
			at(s.from, func() { submit(name, s.at) })
		} else {
			submit(name, s.at)
		}
	}
	loop.RunUntilIdle()
	return got
}

// clusterSubmissions has arm submit jobs script's 0 to n−1 to a new cluster,
// runs it to completion and returns the manager's submissions: in the order
// of the scheduler records' Ref, which is the order the manager took them in,
// each at its SubmitTime.
func clusterSubmissions(t *testing.T, n int, arm func(*Cluster)) (start time.Time, got []submitted) {
	t.Helper()
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	start = c.Loop.Now()
	arm(c)
	if err := c.Run(n, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for ref := range int32(n) { // the manager numbers jobs in submission order
		cj, ok := c.Mgr.CoreJob(ref)
		if !ok {
			t.Fatalf("only %d of %d jobs reached the manager", ref, n)
		}
		got = append(got, submitted{cj.ID, cj.SubmitTime.Sub(start)})
	}
	return start, got
}

func checkSubmitOrder(t *testing.T, script []submitStep) {
	t.Helper()
	start, got := clusterSubmissions(t, len(script), func(c *Cluster) {
		at := closures(c.Loop)
		for i, s := range script {
			job := smallJob(scriptJob(i), 1+i%3, 1, 2, 64, 20)
			if s.nested {
				at(s.from, func() { c.Submit(job, s.at) })
			} else {
				c.Submit(job, s.at)
			}
		}
	})
	want := referenceSubmissions(start, script)
	if !slices.Equal(got, want) {
		t.Errorf("script %+v:\nmanager took in %v\none closure per submission fires %v", script, got, want)
	}
}

// TestSubmitOrderMatchesOneClosurePerSubmission holds the cluster's
// submissions, timers of one kind that carry an index, to the order and
// instants one closure per submission would submit them at: offsets out of
// order, equal, zero and negative, and made from inside loop callbacks,
// themselves armed at positive, zero and negative offsets.
func TestSubmitOrderMatchesOneClosurePerSubmission(t *testing.T) {
	s := time.Second
	checkSubmitOrder(t, []submitStep{
		{at: 30 * s},
		{at: 10 * s}, // out of order
		{at: 10 * s}, // equal
		{at: 0},
		{at: -5 * s},
		{at: 20 * s},
		{at: 0, from: 10 * s, nested: true},      // due with the two at 10 s, after them
		{at: 10 * s, from: 10 * s, nested: true}, // due with the one at 20 s, after it
		{at: 0, from: 0, nested: true},
		{at: 30 * s, from: -3 * s, nested: true},
		{at: 30 * s},
		{at: -1 * s, from: 20 * s, nested: true},
		{at: 5 * s, from: 5 * s, nested: true},
		{at: 0},
	})
}

// FuzzSubmitOrder is TestSubmitOrderMatchesOneClosurePerSubmission over
// fuzzed scripts: every three bytes are a step, whose offsets are multiples
// of 10 s from −70 s to 70 s, so ties are common.
func FuzzSubmitOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 1, 1, 1, 1, 0})
	f.Add([]byte{0, 1, 0xfe, 2, 1, 2, 2, 0, 0, 0xf9, 1, 7, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSteps = 16
		offset := func(b byte) time.Duration { return time.Duration(int8(b)%8) * 10 * time.Second }
		var script []submitStep
		for i := 0; i+3 <= len(data) && len(script) < maxSteps; i += 3 {
			script = append(script, submitStep{
				at: offset(data[i]), nested: data[i+1]&1 == 1, from: offset(data[i+2]),
			})
		}
		if len(script) == 0 {
			return
		}
		checkSubmitOrder(t, script)
	})
}
