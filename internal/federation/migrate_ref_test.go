package federation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// This file is the rebalancer as it stood before it learned to decide from
// counts — every member's queue snapshotted every round, the donor's sorted
// whole, every victim scored against every receiver — kept verbatim (names
// prefixed, Inject's new return value dropped, the donor threshold read from
// DefaultRebalanceThreshold and the per-round move cap gone with the knobs)
// as the oracle TestRebalancerMatchesReference holds (*rebalancer).round to.

// refMemberState is one member's snapshot at a round barrier.
type refMemberState struct {
	eff     int     // capacity right now (after applied availability events)
	effNext int     // capacity the trace delivers one round from now
	plan    float64 // planning capacity: min(eff, effNext), ≥ 1 slot
	drainT  float64 // queued work over plan — the backlog drain-time estimate
	used    int     // running jobs' allocated slots
	queued  []sim.QueuedJob
}

// refSortVictims orders a donor's migration candidates: lowest priority first
// (they would wait longest locally and cost the least to move), ties broken
// by later submission, then ID — a total deterministic order.
func refSortVictims(victims []sim.QueuedJob) {
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if va.Priority != vb.Priority {
			return va.Priority < vb.Priority
		}
		if va.SubmitAt != vb.SubmitAt {
			return va.SubmitAt > vb.SubmitAt
		}
		return va.ID < vb.ID
	})
}

// refRebalanceRound snapshots every member at the barrier instant t, picks
// donors (backlogged beyond threshold, or draining), and migrates victims to
// the receivers that can finish them soonest. Returns the number of jobs
// moved. All state reads precede all mutations except the moves themselves,
// which only ever touch a donor's own snapshot entries — so the decision
// sequence is a pure function of the barrier state.
func refRebalanceRound(rb RebalanceConfig, backends []Member, sims []*sim.Simulator,
	t float64, round int, counts []int, migs *[]Migration) (int, error) {
	n := len(sims)
	specs := model.Specs()
	machines := make([]model.Machine, n)
	states := make([]refMemberState, n)
	mean := 0.0
	for i := range sims {
		machines[i] = backends[i].Machine()
		st := refMemberState{
			eff:     sims[i].CurrentCapacity(),
			used:    sims[i].UsedSlots(),
			queued:  sims[i].QueuedJobs(),
			effNext: sims[i].CurrentCapacity(),
		}
		if tr := backends[i].Availability(); len(tr.Events) > 0 {
			st.effNext = tr.CapacityAt(backends[i].Capacity(), t+rb.Every)
		}
		plan := st.eff
		if st.effNext < plan {
			plan = st.effNext
		}
		if plan < 1 {
			plan = 1
		}
		st.plan = float64(plan)
		// A float sum depends on its order, and the snapshot's order is the
		// member queue's internal layout. Impose the coordinator's own:
		// one job at a time, classes ascending.
		var waiting [model.XLarge + 1]int
		for _, q := range st.queued {
			waiting[q.Class]++
		}
		for c, n := range waiting {
			work := queuedWork(machines[i], backends[i].Capacity(), specs[model.Class(c)])
			for ; n > 0; n-- {
				st.drainT += work
			}
		}
		st.drainT /= st.plan
		states[i] = st
		mean += st.drainT
	}
	mean /= float64(n)

	moved := 0
	for donor := range states {
		backlogged := states[donor].drainT > mean*(1+DefaultRebalanceThreshold) && len(states[donor].queued) > 0
		draining := states[donor].effNext < states[donor].eff
		if !backlogged && !draining {
			continue
		}
		// Phase 1: evacuate queued jobs.
		victims := append([]sim.QueuedJob(nil), states[donor].queued...)
		refSortVictims(victims)
		for _, v := range victims {
			ok, err := refTryMove(rb, backends, sims, states, machines, specs, donor, v, t, round, counts, migs)
			if err != nil {
				return moved, err
			}
			if ok {
				moved++
			}
		}
		// Phase 2: a draining member whose running allocation will not fit
		// after the drop checkpoint-preempts the deficit (core.Preempt
		// lifted to the fleet) and migrates the evicted jobs too.
		if rb.MigrateRunning && draining && states[donor].used > states[donor].effNext {
			seen := make(map[int32]bool, len(states[donor].queued))
			for _, q := range states[donor].queued {
				seen[q.Ref] = true
			}
			if sims[donor].Preempt(states[donor].used-states[donor].effNext) > 0 {
				evicted := make([]sim.QueuedJob, 0, 4)
				for _, q := range sims[donor].QueuedJobs() {
					if !seen[q.Ref] {
						evicted = append(evicted, q)
					}
				}
				refSortVictims(evicted)
				for _, v := range evicted {
					ok, err := refTryMove(rb, backends, sims, states, machines, specs, donor, v, t, round, counts, migs)
					if err != nil {
						return moved, err
					}
					if ok {
						moved++
					}
				}
			}
		}
	}
	if moved > 0 {
		// Donors freed queue entries (and possibly slots); receivers got
		// new submissions. One scheduling pass per member, in index order,
		// lets everyone act on the new state at exactly t.
		for i := range sims {
			sims[i].Kick()
		}
	}
	return moved, nil
}

// refTryMove migrates one victim off donor to the best receiver, updating the
// round's bookkeeping. A move happens only when some feasible receiver,
// even after absorbing the job, would still drain sooner than the donor
// does now — otherwise the job stays put. Returns whether a move happened.
func refTryMove(rb RebalanceConfig, backends []Member, sims []*sim.Simulator,
	states []refMemberState, machines []model.Machine, specs map[model.Class]model.Spec,
	donor int, v sim.QueuedJob, t float64, round int, counts []int, migs *[]Migration) (bool, error) {
	spec := specs[v.Class]
	recv, recvWork := -1, 0.0
	best := states[donor].drainT
	for i := range states {
		if i == donor {
			continue
		}
		// Hardware fit: the receiver's base capacity must host the job at
		// all, and its planning capacity (which sees the next drain window)
		// must host the job's minimum now.
		if spec.MinReplicas > backends[i].Capacity() || float64(spec.MinReplicas) > states[i].plan {
			continue
		}
		work := queuedWork(machines[i], backends[i].Capacity(), spec)
		after := states[i].drainT + work/states[i].plan
		if after < best {
			best, recv, recvWork = after, i, work
		}
	}
	if recv < 0 {
		return false, nil
	}
	mj, err := sims[donor].Withdraw(v.Ref)
	if err != nil {
		// The snapshot said the job was waiting; a failure here means the
		// coordinator and member disagree — a bug, not a routine miss.
		return false, fmt.Errorf("federation: migrate %s off member %d: %w", v.ID, donor, err)
	}
	if _, err := sims[recv].Inject(mj); err != nil {
		return false, fmt.Errorf("federation: migrate %s to member %d: %w", v.ID, recv, err)
	}
	donorWork := queuedWork(machines[donor], backends[donor].Capacity(), spec)
	states[donor].drainT -= donorWork / states[donor].plan
	if states[donor].drainT < 0 {
		states[donor].drainT = 0
	}
	states[recv].drainT += recvWork / states[recv].plan
	counts[donor]--
	counts[recv]++
	*migs = append(*migs, Migration{
		Round: round, At: t, JobID: v.ID, From: donor, To: recv,
		Checkpointed: mj.Checkpointed,
	})
	return true, nil
}

// refRound adapts the reference to runRebalanced's round seam.
func refRound(backends []Member) roundFunc {
	return func(r *rebalancer, t float64, round int) (int, error) {
		return refRebalanceRound(r.rb, backends, r.sims, t, round, r.counts, &r.migs)
	}
}

// randomFleet draws one rebalanced fleet and its workload from seed: 2–6
// members of skewed capacity, each with its own machine and (two in three)
// an availability trace, any scheduling policy and route, and both
// rebalancer knobs.
func randomFleet(t *testing.T, seed int64) (Config, workload.Workload) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func(n int) int { return rng.Intn(n) }
	n := 2 + pick(5)
	jobs := 60 + pick(240)
	var gen workload.Generator
	if pick(2) == 0 {
		gen = workload.Burst{Waves: 2 + pick(6), PerWave: jobs / 6, WaveGap: 600 + 600*float64(pick(5))}
	} else {
		gen = workload.Poisson{Jobs: jobs, MeanGap: 20 + 20*float64(pick(6))}
	}
	w, err := gen.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(core.Policy(pick(4)))
	base.LogDecisions = true
	base.Streaming = pick(2) == 0
	members := Uniform(base, n)
	for i := range members {
		m := &members[i]
		m.Capacity = []int{16, 20, 24, 32, 48, 64, 96}[pick(7)]
		speed := 0.5 + float64(pick(6))/2 // 0.5× – 3× the reference machine
		m.Machine.CellRate *= speed
		m.Machine.NetBandwidth *= speed
		horizon := 40000.0
		var profile workload.AvailabilityProfile
		switch pick(6) {
		case 0:
			profile = workload.SpotPreemption{MeanGap: 900 + 300*float64(pick(4)), Slots: 4 + 4*pick(3), MeanOutage: 600 + 600*float64(pick(3))}
		case 1:
			profile = workload.SpotPreemption{MeanGap: 2400, Slots: m.Capacity - 4, MeanOutage: 1500}
		case 2:
			profile = workload.MaintenanceDrain{Every: 2000 + 1000*float64(pick(4)), Duration: 500 + 500*float64(pick(4)), Keep: 2 + 6*pick(3)}
		case 3:
			profile = workload.FailureRepair{Nodes: 4, MTTF: 4000 + 2000*float64(pick(3)), MTTR: 400 + 400*float64(pick(3))}
		}
		if profile != nil {
			tr, err := profile.Events(seed+int64(i), m.Capacity, horizon)
			if err != nil {
				t.Fatal(err)
			}
			m.Availability = tr.WithRestore(m.Capacity, horizon)
		}
	}
	return Config{
		Members:   members,
		Route:     AllRoutes()[pick(len(AllRoutes()))],
		RouteSeed: seed,
		Workers:   1,
		Rebalance: RebalanceConfig{
			Every:          []float64{120, 300, 600}[pick(3)],
			MigrateRunning: pick(2) == 0,
		},
	}, w
}

// TestRebalancerMatchesReference is the oracle property test: over seeded
// random fleets the count-driven rebalancer and the snapshot-everything
// reference must produce the same migration log, round count, member
// decision streams and fleet result, bit for bit.
func TestRebalancerMatchesReference(t *testing.T) {
	const fleets = 240
	moves, ckpt, skipped := 0, 0, 0
	for seed := int64(1); seed <= fleets; seed++ {
		cfg, w := randomFleet(t, seed)
		want, err := runRebalanced(cfg, w, refRound(cfg.backends()))
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := runRebalanced(cfg, w, (*rebalancer).round)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stats := got.RebalanceStats
		if stats.MovesMade != len(got.Migrations) || stats.Rounds > got.RebalanceRounds ||
			stats.Snapshots > 3*stats.DonorRounds*len(cfg.Members) || stats.MovesTried < stats.MovesMade {
			t.Errorf("seed %d: inconsistent stats %+v for %d migrations in %d rounds",
				seed, stats, len(got.Migrations), got.RebalanceRounds)
		}
		got.RebalanceStats = RebalanceStats{} // the reference keeps none
		if !reflect.DeepEqual(got.Migrations, want.Migrations) {
			for i := range want.Migrations {
				if i >= len(got.Migrations) || got.Migrations[i] != want.Migrations[i] {
					t.Fatalf("seed %d (%+v): migration %d of %d/%d diverges: got %+v want %+v", seed, cfg.Rebalance,
						i, len(got.Migrations), len(want.Migrations), at(got.Migrations, i), want.Migrations[i])
				}
			}
			t.Fatalf("seed %d: %d migrations, reference made %d", seed, len(got.Migrations), len(want.Migrations))
		}
		if got.RebalanceRounds != want.RebalanceRounds {
			t.Fatalf("seed %d: %d rounds, reference %d", seed, got.RebalanceRounds, want.RebalanceRounds)
		}
		if !reflect.DeepEqual(got.MemberDecisions, want.MemberDecisions) {
			t.Fatalf("seed %d: member decision streams diverge", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: fleet results diverge:\n got %+v\nwant %+v", seed, got, want)
		}
		moves += len(want.Migrations)
		for _, m := range want.Migrations {
			if m.Checkpointed {
				ckpt++
			}
		}
		if stats.Snapshots < stats.DonorRounds {
			skipped++
		}
	}
	t.Logf("%d moves (%d checkpointed), %d skipped", moves, ckpt, skipped)
	// The property is only worth its name if the fleets exercise the paths.
	if moves < 20*fleets || ckpt < fleets || skipped < fleets/5 {
		t.Errorf("fleets too tame: %d moves (%d checkpointed), %d with a skipped snapshot over %d fleets",
			moves, ckpt, skipped, fleets)
	}
}

func at(migs []Migration, i int) any {
	if i < len(migs) {
		return migs[i]
	}
	return "none"
}
