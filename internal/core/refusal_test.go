package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refusingActuator refuses StartJob, ShrinkJob and ExpandJob by a pure
// function of the job's ID and how many of those calls the job has seen
// before — the emulation's refusal path (a rescale protocol still in flight,
// pods that could not be placed) made reproducible, so two schedulers that
// issue the same calls meet the same refusals. It logs every call, refused
// or not. PreemptJob always succeeds.
type refusingActuator struct {
	calls map[string]int
	log   []string
}

func (a *refusingActuator) call(op string, j *Job, replicas int) error {
	n := a.calls[j.ID]
	a.calls[j.ID] = n + 1
	// FNV's low bits follow the input's low bits (a modulus of the raw hash
	// never refuses two calls in a row), so the key goes through splitmix64's
	// finalizer before a quarter of the calls are picked.
	h := fnv.New64a()
	h.Write([]byte(j.ID))
	x := h.Sum64() + uint64(n)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	if (x^x>>31)%4 == 0 {
		a.log = append(a.log, fmt.Sprintf("refuse %s %s %d", op, j.ID, replicas))
		return errors.New(op + " refused")
	}
	a.log = append(a.log, fmt.Sprintf("%s %s %d", op, j.ID, replicas))
	return nil
}

func (a *refusingActuator) StartJob(j *Job, replicas int) error { return a.call("start", j, replicas) }
func (a *refusingActuator) ShrinkJob(j *Job, to int) error      { return a.call("shrink", j, to) }
func (a *refusingActuator) ExpandJob(j *Job, to int) error      { return a.call("expand", j, to) }
func (a *refusingActuator) PreemptJob(j *Job) error {
	a.log = append(a.log, "preempt "+j.ID)
	return nil
}

// refusalOp is one step of a scheduling script: submit a copy of job, complete
// the done-th submitted job if it is running, kick a Reschedule, or set the
// capacity — then advance the clock by wait.
type refusalOp struct {
	kind     int // 0 submit, 1 complete, 2 reschedule, 3 capacity
	job      Job
	done     int
	capacity int
	wait     time.Duration
}

func refusalScript(rng *rand.Rand, trial int) []refusalOp {
	var ops []refusalOp
	submitted := 0
	for step := 0; step < 150; step++ {
		op := refusalOp{wait: time.Duration(rng.Intn(90)) * time.Second}
		switch r := rng.Float64(); {
		case r < 0.45 || submitted == 0:
			minR := 1 + rng.Intn(8)
			op.job = Job{ID: fmt.Sprintf("t%d-j%d", trial, submitted), Priority: 1 + rng.Intn(5),
				MinReplicas: minR, MaxReplicas: minR + rng.Intn(24)}
			submitted++
		case r < 0.75:
			op.kind, op.done = 1, rng.Intn(submitted)
		case r < 0.95:
			op.kind = 2
		default:
			op.kind, op.capacity = 3, 16+rng.Intn(33)
		}
		ops = append(ops, op)
	}
	return ops
}

// runRefusalScript drives one scheduler through the script against a fresh
// refusing actuator and returns its actuator calls, decision log and final
// state.
func runRefusalScript(t *testing.T, cfg Config, script []refusalOp) ([]string, []Decision, SchedulerState) {
	t.Helper()
	act := &refusingActuator{calls: map[string]int{}}
	clk := newTestClock()
	s, err := NewScheduler(cfg, act, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for _, op := range script {
		switch op.kind {
		case 0:
			j := op.job
			jobs = append(jobs, &j)
			if err := s.Submit(&j); err != nil {
				t.Fatal(err)
			}
		case 1:
			if j := jobs[op.done]; j.State == StateRunning {
				s.OnJobComplete(j)
			}
		case 2:
			s.Reschedule()
		case 3:
			if err := s.SetCapacity(op.capacity); err != nil {
				act.log = append(act.log, err.Error())
			}
		}
		clk.advance(op.wait)
	}
	return act.log, s.Log(), exportState(s)
}

// TestRefusingActuatorEquivalenceProperty holds the incremental scheduler to
// the FullRedistribute reference when the actuator refuses starts, shrinks
// and expands. A refusal is the only way a job the placeable-only pass pops
// can fail to start — and then the pass must hand the rest of the queue to
// the drain loop — so this is the property that covers the hand-over: random
// scripts of submissions, completions, rescale-gap kicks and capacity events,
// under all four policies with and without preemption, must leave the same
// actuator calls (refusals included), the same decision log and the same
// final state in both modes.
func TestRefusingActuatorEquivalenceProperty(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for _, policy := range AllPolicies() {
		for _, preempt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/preempt=%v", policy, preempt), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(policy)*2 + 11))
				for trial := 0; trial < trials; trial++ {
					cfg := Config{Policy: policy, Capacity: 32, EnablePreemption: preempt, EnableLog: true,
						RescaleGap: []time.Duration{0, time.Minute, 3 * time.Minute}[rng.Intn(3)]}
					script := refusalScript(rng, trial)
					full := cfg
					full.FullRedistribute = true
					wantCalls, wantLog, wantState := runRefusalScript(t, full, script)
					gotCalls, gotLog, gotState := runRefusalScript(t, cfg, script)
					if i := firstDiff(gotCalls, wantCalls); i >= 0 {
						t.Fatalf("trial %d (gap %v): actuator call %d differs from the reference:\n got %v\nwant %v",
							trial, cfg.RescaleGap, i, at(gotCalls, i), at(wantCalls, i))
					}
					if i := firstDiff(gotLog, wantLog); i >= 0 {
						t.Fatalf("trial %d (gap %v): decision %d differs from the reference:\n got %v\nwant %v",
							trial, cfg.RescaleGap, i, at(gotLog, i), at(wantLog, i))
					}
					if !reflect.DeepEqual(gotState, wantState) {
						t.Fatalf("trial %d (gap %v): final state differs from the reference:\n got %+v\nwant %+v",
							trial, cfg.RescaleGap, gotState, wantState)
					}
				}
			})
		}
	}
}

// firstDiff returns the first index at which got and want differ, or -1.
func firstDiff[T comparable](got, want []T) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// at returns s[i], or a marker past the end.
func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "<end of sequence>"
}
