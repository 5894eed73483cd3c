package federation

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// rebalanceFleet is the shared scenario for the rebalancer tests: a
// heterogeneous 3-member fleet whose round-robin deal backs up the small
// member 0, while member 2's availability trace drains it mid-run — both
// donor kinds (backlogged and draining) are exercised in one run.
func rebalanceFleet() Config {
	base := sim.DefaultConfig(core.Elastic)
	base.Capacity = 16
	members := Skewed(base, 3, 1.5) // capacities 16 / 40 / 64
	members[2].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 1200, Capacity: 8},
		{At: 6000, Capacity: 64},
	}}
	return Config{
		Members: members,
		Route:   RoundRobin,
		Rebalance: RebalanceConfig{
			Every:          300,
			MigrateRunning: true,
		},
	}
}

// The rebalancer's determinism contract — identical migration log, round
// count, and bit-identical fleet result whether members step sequentially
// or in parallel, and across repeated runs — is pinned by the conformance
// harness's federation matrix cells (internal/conformance, run under -race
// by the race-equivalence CI job), which record and diff every member's
// decision stream as well.

// TestRebalanceImprovesImbalance is the tentpole's acceptance scenario: a
// fleet whose round-robin deal overloads a small member must, with the
// rebalancer on, migrate at least one still-queued job off it and end with a
// lower fleet Imbalance than the same fleet with -rebalance off.
func TestRebalanceImprovesImbalance(t *testing.T) {
	w := testWorkload(t, 96)
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	members[0].Capacity = 16
	members[1].Capacity = 64
	off, err := Run(Config{Members: members, Route: RoundRobin, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(Config{
		Members: members, Route: RoundRobin, Workers: 1,
		Rebalance: RebalanceConfig{Every: 300},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	// At least one still-queued job must leave the overloaded small member.
	// (Later rounds may also move work back as the drains equalize — the
	// rebalancer balances in both directions.)
	queuedOffSmall := 0
	for _, m := range on.Migrations {
		if !m.Checkpointed && m.From == 0 {
			queuedOffSmall++
		}
	}
	if queuedOffSmall == 0 {
		t.Fatalf("no queued-job migrations off the overloaded member in %d moves", len(on.Migrations))
	}
	if on.Imbalance >= off.Imbalance {
		t.Errorf("rebalanced imbalance %g not below off %g", on.Imbalance, off.Imbalance)
	}
	// Every job still completes exactly once.
	total := 0
	for _, n := range on.JobsPerMember {
		total += n
	}
	if total != len(w.Jobs) {
		t.Errorf("%d of %d jobs completed across the fleet", total, len(w.Jobs))
	}
}

// TestRebalanceMigratesRunningOffDrainingMember pins the MigrateRunning
// path: a member about to lose most of its capacity checkpoint-preempts the
// overflow and the rebalancer moves those jobs — checkpoints and completed
// iterations intact — to the healthy member before the capacity event would
// force a local requeue.
func TestRebalanceMigratesRunningOffDrainingMember(t *testing.T) {
	w := workload.Workload{}
	for i := 0; i < 6; i++ {
		w.Jobs = append(w.Jobs, workload.JobSpec{
			ID: string(rune('a' + i)), Class: model.XLarge, Priority: 3, SubmitAt: float64(i),
		})
	}
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	members[0].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 900, Capacity: 4},
		{At: 40000, Capacity: 64},
	}}
	res, err := Run(Config{
		Members: members, Route: RoundRobin, Workers: 1,
		Rebalance: RebalanceConfig{Every: 300, MigrateRunning: true},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := 0
	for _, m := range res.Migrations {
		if m.Checkpointed && m.From == 0 && m.To == 1 {
			ckpt++
		}
	}
	if ckpt == 0 {
		t.Fatalf("no checkpointed migrations off the draining member: %+v", res.Migrations)
	}
	total := 0
	for _, n := range res.JobsPerMember {
		total += n
	}
	if total != len(w.Jobs) {
		t.Errorf("%d of %d jobs completed", total, len(w.Jobs))
	}
}

// TestRebalanceValidation: a round period no run can honour is rejected.
func TestRebalanceValidation(t *testing.T) {
	w := testWorkload(t, 96)
	for _, every := range []float64{-1, math.NaN(), math.Inf(1)} {
		c := rebalanceFleet()
		c.Rebalance.Every = every
		if _, err := Run(c, w); err == nil {
			t.Errorf("accepted rebalance period %v", every)
		}
	}
}

// TestRebalanceRejectsNonSteppableBackend: rebalancing needs steppable
// members; a cluster-emulation backend must be rejected with a clear error,
// while the same fleet runs fine on the batch path and an all-simulator
// Backends fleet rebalances like Members does.
func TestRebalanceRejectsNonSteppableBackend(t *testing.T) {
	w := testWorkload(t, 16)
	backends := []Member{
		SimMember{Config: sim.DefaultConfig(core.Elastic)},
		ClusterMember{Config: cluster.DefaultConfig(core.Elastic)},
	}
	if _, err := Run(Config{Backends: backends, Workers: 1}, w); err != nil {
		t.Fatalf("batch fleet over a cluster backend: %v", err)
	}
	if _, err := Run(Config{
		Backends: backends, Workers: 1,
		Rebalance: RebalanceConfig{Every: 300},
	}, w); err == nil {
		t.Error("rebalancer accepted a non-steppable backend")
	}
	small := sim.DefaultConfig(core.Elastic)
	small.Capacity = 16
	res, err := Run(Config{
		Backends: []Member{SimMember{Config: small}, backends[0]}, Workers: 1,
		Rebalance: RebalanceConfig{Every: 300},
	}, workload.MustUniform(48, 30, 5))
	if err != nil {
		t.Fatal(err)
	}
	if done := res.JobsPerMember[0] + res.JobsPerMember[1]; res.RebalanceRounds == 0 || done != 48 {
		t.Errorf("simulator Backends: %d rebalance rounds, %d of 48 jobs completed", res.RebalanceRounds, done)
	}
}

// TestRebalanceOffMatchesBatchPath pins that a zero RebalanceConfig leaves
// the legacy batch federation path — and its results — bit-identical.
func TestRebalanceOffMatchesBatchPath(t *testing.T) {
	w := testWorkload(t, 64)
	cfg := Config{Members: Uniform(sim.DefaultConfig(core.Elastic), 3), Route: LeastLoaded, Workers: 1}
	batch, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = RebalanceConfig{} // explicit zero value
	zero, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, zero) {
		t.Error("zero RebalanceConfig changed the batch path result")
	}
	if zero.Migrations != nil || zero.RebalanceRounds != 0 {
		t.Errorf("batch path reported rebalancer activity: %d migrations, %d rounds",
			len(zero.Migrations), zero.RebalanceRounds)
	}
}

// TestRouterUsesPerMemberMachine is the regression test for the historical
// router bug of estimating every member's demand with member 0's machine: on
// a fleet of equal capacities where only the machines differ, least-loaded
// must send the first job to the faster member (the old code saw a tie and
// picked member 0).
func TestRouterUsesPerMemberMachine(t *testing.T) {
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	fast := members[1].Machine
	fast.CellRate *= 4
	fast.NetBandwidth *= 4
	members[1].Machine = fast
	w := workload.Workload{Jobs: []workload.JobSpec{
		{ID: "first", Class: model.Medium, Priority: 3, SubmitAt: 0},
	}}
	_, assign, err := Partition(Config{Members: members, Route: LeastLoaded}, w)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 {
		t.Errorf("first job routed to member %d; the faster member 1's machine was ignored", assign[0])
	}
}

// TestRouterDodgesDrainWindow pins the availability-aware routing term: a
// job submitted while member 0's trace has its capacity drained below the
// job's minimum replicas must route to the healthy member even though member
// 0 has less booked work.
func TestRouterDodgesDrainWindow(t *testing.T) {
	members := Uniform(sim.DefaultConfig(core.Elastic), 2)
	members[0].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 50, Capacity: 2},
		{At: 5000, Capacity: 64},
	}}
	w := workload.Workload{Jobs: []workload.JobSpec{
		{ID: "in-drain", Class: model.XLarge, Priority: 3, SubmitAt: 100},
	}}
	_, assign, err := Partition(Config{Members: members, Route: LeastLoaded}, w)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 {
		t.Errorf("job routed into member %d's drain window", assign[0])
	}
}

// migrationBenchFleet is BenchmarkFederationMigration's fleet — four
// streaming 64-slot members at the reference per-cluster load, member 0 at
// half the slots, 300 s rounds — and its bursty workload at the given size.
func migrationBenchFleet(tb testing.TB, jobs int) (Config, workload.Workload) {
	tb.Helper()
	const clusters = 4
	w, err := (workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 29000 / clusters}).Generate(1)
	if err != nil {
		tb.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.Streaming = true
	members := Uniform(base, clusters)
	members[0].Capacity = 32
	return Config{
		Members:   members,
		Route:     RoundRobin,
		Rebalance: RebalanceConfig{Every: 300},
	}, w
}

// beginFleet partitions w over cfg's simulator members and steps each to t —
// a fleet at a barrier, ready for a rebalancer.
func beginFleet(tb testing.TB, cfg Config, w workload.Workload, t float64) ([]*sim.Simulator, []int) {
	tb.Helper()
	parts, _, err := Partition(cfg, w)
	if err != nil {
		tb.Fatal(err)
	}
	sims := make([]*sim.Simulator, len(parts))
	counts := make([]int, len(parts))
	for i, m := range cfg.Members {
		if sims[i], err = sim.New(m); err != nil {
			tb.Fatal(err)
		}
		if err := sims[i].Begin(parts[i]); err != nil {
			tb.Fatal(err)
		}
		if err := sims[i].StepTo(t); err != nil {
			tb.Fatal(err)
		}
		counts[i] = len(parts[i].Jobs)
	}
	return sims, counts
}

// TestRebalanceStatsPinned reads the rebalancer's counters off the migration
// benchmark's fleet at 10 k jobs. They are pure functions of the inputs, so
// they are pinned exactly and must not move with Workers.
func TestRebalanceStatsPinned(t *testing.T) {
	cfg, w := migrationBenchFleet(t, 10_000)
	want := RebalanceStats{
		Rounds: 1296, DonorRounds: 63, Snapshots: 63, EntriesCopied: 3822,
		ReceiverEvals: 1675, MovesTried: 1497, MovesMade: 1285,
	}
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		res, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.RebalanceStats != want {
			t.Errorf("workers %d: stats %+v, want %+v", workers, res.RebalanceStats, want)
		}
		if res.RebalanceRounds != want.Rounds+1 || len(res.Migrations) != want.MovesMade {
			t.Errorf("workers %d: %d rounds and %d migrations disagree with the stats",
				workers, res.RebalanceRounds, len(res.Migrations))
		}
	}
}

// TestRebalancedRunIdenticalAtAnyWorkers is Workers-equivalence at scale for
// the rebalanced path: 4.8 k jobs in waves wide enough that the barrier steps
// their rounds in parallel, an undersized member 0, a drain trace on member 2 and
// running-job migration — identical Result sequentially, on two workers, on
// every CPU and oversubscribed.
func TestRebalancedRunIdenticalAtAnyWorkers(t *testing.T) {
	const perWave = 600
	if perWave <= parallelWorthEvents {
		t.Fatalf("waves of %d never step in parallel (parallelWorthEvents = %d)", perWave, parallelWorthEvents)
	}
	w, err := (workload.Burst{Waves: 8, PerWave: perWave, WaveGap: 21000}).Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.LogDecisions = true
	members := Uniform(base, 4)
	members[0].Capacity = 24
	tr, err := (workload.MaintenanceDrain{Every: 9000, Duration: 2400, Keep: 12}).Events(1, 64, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	members[2].Availability = tr
	cfg := Config{
		Members:   members,
		Route:     RoundRobin,
		Workers:   1,
		Rebalance: RebalanceConfig{Every: 300, MigrateRunning: true},
	}
	want, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := 0
	for _, m := range want.Migrations {
		if m.Checkpointed {
			ckpt++
		}
	}
	if len(want.Migrations) < 100 || ckpt == 0 {
		t.Fatalf("scenario too tame: %d migrations, %d checkpointed", len(want.Migrations), ckpt)
	}
	for _, workers := range []int{2, 0, 16} {
		cfg.Workers = workers
		got, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Workers %d: result differs from the sequential run (%d vs %d migrations, %d vs %d rounds)",
				workers, len(got.Migrations), len(want.Migrations), got.RebalanceRounds, want.RebalanceRounds)
		}
	}
}

// settledGoroutines is runtime.NumGoroutine once exiting goroutines have had
// a moment to finish exiting.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRebalancedRunNamesFailingMember: a member whose StepTo fails mid-run is
// named in the error (as the Finish path and the batch path name theirs),
// and the failed run leaves no goroutine behind.
func TestRebalancedRunNamesFailingMember(t *testing.T) {
	w := testWorkload(t, 96)
	members := Uniform(sim.DefaultConfig(core.Elastic), 3)
	members[1].Capacity = 8 // an XLarge job (16 replicas minimum) cannot be submitted here
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 3} {
		_, err := Run(Config{
			Members: members, Route: RoundRobin, Workers: workers,
			Rebalance: RebalanceConfig{Every: 300},
		}, w)
		const want = "federation: member 1: core: job job-w00-01: maxReplicas 8 < minReplicas 16"
		if err == nil || err.Error() != want {
			t.Errorf("workers %d: got error %v, want %s", workers, err, want)
		}
		if got := settledGoroutines(before); got > before {
			t.Errorf("workers %d: %d goroutines after the failed run, %d before", workers, got, before)
		}
	}
}

// TestMoveErrorsNameTheRound pins the two coordinator/member disagreement
// errors: both carry the round and its instant.
func TestMoveErrorsNameTheRound(t *testing.T) {
	w := testWorkload(t, 32)
	cfg := Config{Members: Uniform(sim.DefaultConfig(core.Elastic), 2), Route: RoundRobin, Workers: 1}
	cfg.Members[0].Capacity = 16
	cfg.Members[1].Capacity = 8
	sims, counts := beginFleet(t, cfg, workload.Workload{Jobs: w.Jobs[:1]}, 0)
	r := newRebalancer(cfg, cfg.backends(), sims, counts)
	r.observe(300)
	for c := range r.verdict {
		r.verdict[c] = 1 // member 1 "takes" anything
	}
	_, err := r.tryMove(0, sim.QueuedJob{Ref: 99, ID: "ghost", Class: model.Small}, 300, 7)
	const off = "federation: round 7 at t=300.0: migrate ghost off member 0: sim: withdraw: ref 99 out of range"
	if err == nil || err.Error() != off {
		t.Errorf("withdraw failure: got %v, want %s", err, off)
	}
	// A real waiting job, forced onto a member too small to ever host it.
	xl := workload.Workload{Jobs: []workload.JobSpec{
		{ID: "blocker", Class: model.XLarge, Priority: 5, SubmitAt: 0},
		{ID: "big", Class: model.XLarge, Priority: 1, SubmitAt: 1},
	}}
	if err := sims[0].Begin(xl); err != nil {
		t.Fatal(err)
	}
	if err := sims[0].StepTo(300); err != nil {
		t.Fatal(err)
	}
	queued := sims[0].QueuedJobs()
	if len(queued) != 1 || queued[0].ID != "big" {
		t.Fatalf("expected big waiting behind blocker, got %+v", queued)
	}
	_, err = r.tryMove(0, queued[0], 300, 8)
	const to = "federation: round 8 at t=300.0: migrate big to member 1: sim: inject big: min replicas 16 exceed capacity 8"
	if err == nil || err.Error() != to {
		t.Errorf("inject failure: got %v, want %s", err, to)
	}
}
