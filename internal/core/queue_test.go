package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestJobQueueMatchesSortedReference drives the bucketed queue through long
// pseudo-random interleavings of push, pop, remove, bulkAdd, init and
// drainSorted beside a plain slice kept sorted in Scheduler.before order,
// and checks after every step everything the scheduler asks of the queue:
// the length, the smallest waiting need, the StatePreempted count, and — for
// a random limit — that best names the first job in priority order among
// those needing at most limit slots.
func TestJobQueueMatchesSortedReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		s, _, _ := newSched(t, Config{Policy: Elastic, Capacity: 64})
		q := &s.queue
		var ref []*Job // sorted: ref[0] schedules first
		next := 0
		newJob := func() *Job {
			next++
			minR := []int{2, 4, 8, 16, 3}[rng.Intn(5)]
			j := job(fmt.Sprintf("q%05d", next), 1+rng.Intn(5), minR, minR+rng.Intn(8))
			j.prio = float64(j.Priority)
			j.submitNs = int64(rng.Intn(50)) // heavy submit-time collisions
			if rng.Intn(6) == 0 {
				j.State = StatePreempted
			}
			return j
		}
		refAdd := func(j *Job) {
			i := sort.Search(len(ref), func(k int) bool { return s.before(j, ref[k]) })
			ref = append(ref, nil)
			copy(ref[i+1:], ref[i:])
			ref[i] = j
		}
		refDel := func(j *Job) {
			for i, r := range ref {
				if r == j {
					ref = append(ref[:i], ref[i+1:]...)
					return
				}
			}
			t.Fatalf("seed %d: %s not in the reference", seed, j.ID)
		}
		refBest := func(limit int) *Job {
			for _, r := range ref {
				if s.jobNeed(r) <= limit {
					return r
				}
			}
			return nil
		}
		check := func(op string) {
			t.Helper()
			if q.Len() != len(ref) {
				t.Fatalf("seed %d after %s: Len %d, reference %d", seed, op, q.Len(), len(ref))
			}
			minNeed, preempted := maxSlotNeed, 0
			for _, r := range ref {
				if n := s.jobNeed(r); n < minNeed {
					minNeed = n
				}
				if r.State == StatePreempted {
					preempted++
				}
			}
			if q.minNeed() != minNeed {
				t.Fatalf("seed %d after %s: minNeed %d, reference %d", seed, op, q.minNeed(), minNeed)
			}
			if q.preempted != preempted {
				t.Fatalf("seed %d after %s: preempted %d, reference %d", seed, op, q.preempted, preempted)
			}
			limit := maxSlotNeed
			if rng.Intn(3) > 0 {
				limit = rng.Intn(20)
			}
			var got *Job
			if bi := q.best(limit); bi >= 0 {
				got = q.head(bi)
			}
			if want := refBest(limit); got != want {
				t.Fatalf("seed %d after %s: best(%d) = %v, reference %v", seed, op, limit, got, want)
			}
		}

		for step := 0; step < 20_000; step++ {
			switch op := rng.Intn(20); {
			case op < 9 || len(ref) == 0:
				j := newJob()
				q.push(j)
				refAdd(j)
				check("push")
			case op < 15:
				limit := maxSlotNeed
				if rng.Intn(2) == 0 {
					limit = 4 + rng.Intn(16)
				}
				want := refBest(limit)
				bi := q.best(limit)
				if want == nil {
					if bi >= 0 {
						t.Fatalf("seed %d: best(%d) found %s, reference nothing", seed, limit, q.head(bi).ID)
					}
					continue
				}
				if got := q.pop(bi); got != want {
					t.Fatalf("seed %d: pop under limit %d = %s, reference %s", seed, limit, got.ID, want.ID)
				}
				refDel(want)
				check("pop")
			case op < 17:
				j := ref[rng.Intn(len(ref))]
				if !q.remove(j) {
					t.Fatalf("seed %d: remove(%s) missed a waiting job", seed, j.ID)
				}
				refDel(j)
				if q.remove(j) {
					t.Fatalf("seed %d: remove(%s) found a removed job", seed, j.ID)
				}
				check("remove")
			case op < 18:
				batch := make([]*Job, 1+rng.Intn(30))
				for i := range batch {
					batch[i] = newJob()
					refAdd(batch[i])
				}
				q.bulkAdd(batch)
				check("bulkAdd")
			case op < 19:
				q.init()
				check("init")
			default:
				drained := q.drainSorted()
				if !reflect.DeepEqual(drained, ref) {
					t.Fatalf("seed %d: drainSorted order differs from the reference", seed)
				}
				if q.Len() != 0 || q.minNeed() != maxSlotNeed || q.preempted != 0 {
					t.Fatalf("seed %d: drained queue reports Len %d minNeed %d preempted %d",
						seed, q.Len(), q.minNeed(), q.preempted)
				}
				// Half goes back in bulk, as the drain loop's tail does.
				keep := append([]*Job(nil), drained[len(drained)/2:]...)
				clear(drained)
				q.bulkAdd(keep)
				ref = keep
				check("drainSorted")
			}
		}
		if got := q.sorted(); !reflect.DeepEqual(got, ref) && len(ref) > 0 {
			t.Fatalf("seed %d: sorted() differs from the reference", seed)
		}
	}
}

// refuseStartOnce refuses the first StartJob of one job and logs everything.
type refuseStartOnce struct {
	fakeActuator
	id      string
	refused bool
}

func (a *refuseStartOnce) StartJob(j *Job, replicas int) error {
	if j.ID == a.id && !a.refused {
		a.refused = true
		a.log = append(a.log, "refuse "+j.ID)
		return errors.New("start refused")
	}
	return a.fakeActuator.StartJob(j, replicas)
}

// TestRescheduleRefusedStartFinishesOnDrainLoop: when a job the
// placeable-only pass popped does not end up running, the shrinks it left
// behind raised the budget, so the pass must hand over to the drain loop for
// the jobs ordered after it — here y, which only fits because a's refused
// start left four slots free — and must not retry a. The actuator's call
// sequence has to equal the reference scheduler's.
func TestRescheduleRefusedStartFinishesOnDrainLoop(t *testing.T) {
	run := func(reference bool) ([]string, map[string]State) {
		act := &refuseStartOnce{id: "a"}
		clk := newTestClock()
		cfg := Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute}
		var s policyCore = newRefScheduler(cfg, act, clk.now)
		if !reference {
			var err error
			if s, err = NewScheduler(cfg, act, clk.now); err != nil {
				t.Fatal(err)
			}
		}
		jobs := []*Job{
			job("l1", 1, 2, 8), job("l2", 2, 2, 8), // fill the cluster
			job("x", 5, 14, 14), // never placeable: its bucket dies first
			job("a", 4, 4, 4),   // placeable; its start is refused once
			job("y", 3, 8, 8),   // ordered after a
		}
		for i, j := range jobs {
			if i == 2 {
				clk.advance(10 * time.Second) // inside l1/l2's rescale gap
			}
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if jobs[2].State != StateQueued || jobs[3].State != StateQueued || jobs[4].State != StateQueued {
			t.Fatalf("setup: x, a and y are %v, %v, %v; want all three waiting", jobs[2].State, jobs[3].State, jobs[4].State)
		}
		clk.advance(time.Minute)
		s.Reschedule()
		states := map[string]State{}
		for _, j := range jobs {
			states[j.ID] = j.State
		}
		return act.log, states
	}
	wantLog, wantStates := run(true)
	gotLog, gotStates := run(false)
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("actuator calls differ from the reference scheduler's:\n got %v\nwant %v", gotLog, wantLog)
	}
	if !reflect.DeepEqual(gotStates, wantStates) {
		t.Errorf("job states differ from the reference:\n got %v\nwant %v", gotStates, wantStates)
	}
	if gotStates["y"] != StateRunning || gotStates["a"] != StateQueued {
		t.Errorf("y is %v and a is %v; the scenario wants y placed after the cursor and a left waiting",
			gotStates["y"], gotStates["a"])
	}
}

// TestRescheduleKeepsPreemptedMarkerSemantics pins what a gap-expiry kick
// does to a reclaim-requeued job still waiting in StatePreempted — the marker
// a driver's StartJob reads to charge restart+restore. A kick that cannot
// place anything leaves it alone; a kick whose drain loop re-submits the job
// re-enqueues it, which erases the marker even though the job does not start.
// The placeable-only pass would never touch the job, so the scheduler must
// take the drain loop while such a job waits.
func TestRescheduleKeepsPreemptedMarkerSemantics(t *testing.T) {
	s, _, clk := newSched(t, Config{Policy: Elastic, Capacity: 16, RescaleGap: time.Minute})
	h := job("h", 5, 4, 8)
	v := job("v", 1, 8, 8)
	for _, j := range []*Job{h, v} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetCapacity(8); err != nil { // h shrinks to 4, v is requeued
		t.Fatal(err)
	}
	if v.State != StatePreempted || s.queue.preempted != 1 {
		t.Fatalf("setup: v is %v, %d preempted waiting", v.State, s.queue.preempted)
	}
	clk.advance(2 * time.Minute)
	s.Reschedule() // 4 free + nothing shrinkable < 8: nothing to do
	if v.State != StatePreempted {
		t.Errorf("a kick that could place nothing turned v into %v", v.State)
	}
	if err := s.SetCapacity(12); err != nil { // h expands back to 8, 4 free
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)
	if h.Replicas != 8 || s.FreeSlots() != 4 || v.State != StatePreempted {
		t.Fatalf("setup: h at %d, %d free, v %v", h.Replicas, s.FreeSlots(), v.State)
	}
	// 4 free + 4 shrinkable covers v's need, so the kick is not skipped; h
	// outranks v, so v is not placeable and the drain loop re-enqueues it.
	s.Reschedule()
	if v.State != StateQueued || s.queue.preempted != 0 {
		t.Errorf("after the drain loop re-enqueued it v is %v (%d preempted waiting), want Queued",
			v.State, s.queue.preempted)
	}
}
