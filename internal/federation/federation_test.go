package federation

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

func testWorkload(t *testing.T, jobs int) workload.Workload {
	t.Helper()
	w, err := (workload.Burst{Waves: jobs / 16, PerWave: 16, WaveGap: 1200}).Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func baseConfig() sim.Config {
	return sim.DefaultConfig(core.Elastic)
}

func TestPartitionCoversEveryJobExactlyOnce(t *testing.T) {
	w := testWorkload(t, 64)
	for _, route := range AllRoutes() {
		cfg := Config{Members: Uniform(baseConfig(), 3), Route: route, RouteSeed: 9}
		parts, assign, err := Partition(cfg, w)
		if err != nil {
			t.Fatalf("%v: %v", route, err)
		}
		if len(assign) != len(w.Jobs) {
			t.Fatalf("%v: %d assignments for %d jobs", route, len(assign), len(w.Jobs))
		}
		total := 0
		seen := map[string]int{}
		for mi, p := range parts {
			total += len(p.Jobs)
			last := math.Inf(-1)
			for _, j := range p.Jobs {
				seen[j.ID]++
				if j.SubmitAt < last {
					t.Errorf("%v: member %d out of submission order", route, mi)
				}
				last = j.SubmitAt
			}
		}
		if total != len(w.Jobs) {
			t.Errorf("%v: %d of %d jobs partitioned", route, total, len(w.Jobs))
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("%v: job %s routed %d times", route, id, n)
			}
		}
		// assign agrees with the parts.
		for wi, js := range w.Jobs {
			found := false
			for _, j := range parts[assign[wi]].Jobs {
				if j.ID == js.ID {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%v: job %s not in its assigned member %d", route, js.ID, assign[wi])
			}
		}
	}
}

func TestPartitionIsDeterministic(t *testing.T) {
	w := testWorkload(t, 64)
	for _, route := range AllRoutes() {
		cfg := Config{Members: Uniform(baseConfig(), 4), Route: route, RouteSeed: 5}
		_, a1, err := Partition(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		_, a2, err := Partition(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("%v: two partitions of the same workload differ", route)
		}
	}
}

// partitionByAppend is Partition as it was before it sized the members' lists:
// always a stable sort, every list grown by append.
func partitionByAppend(cfg Config, w workload.Workload) ([]workload.Workload, []int) {
	members := cfg.backends()
	order := make([]int32, len(w.Jobs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return w.Jobs[order[a]].SubmitAt < w.Jobs[order[b]].SubmitAt
	})
	parts := make([]workload.Workload, len(members))
	assign := make([]int, len(w.Jobs))
	r := newRouter(cfg, members)
	for _, wi := range order {
		js := &w.Jobs[wi]
		m := r.route(js)
		assign[wi] = m
		parts[m].Jobs = append(parts[m].Jobs, *js)
	}
	return parts, assign
}

// TestPartitionMatchesAppendReference holds Partition's exactly sized lists to
// the append-built reference under every route policy, on traces in
// submission order, shuffled out of it, with waves of tied instants, and
// with fewer jobs than members (a member routed nothing keeps a nil list).
// Every list is capped at its length, so appending to one cannot reach the
// next.
func TestPartitionMatchesAppendReference(t *testing.T) {
	burst := testWorkload(t, 64) // 16 jobs a wave: ties
	poisson, err := workload.Poisson{Jobs: 80, MeanGap: 100}.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := func(w workload.Workload, seed int64) workload.Workload {
		w = w.Clone()
		rand.New(rand.NewSource(seed)).Shuffle(len(w.Jobs), func(i, j int) { w.Jobs[i], w.Jobs[j] = w.Jobs[j], w.Jobs[i] })
		return w
	}
	few := workload.Workload{Jobs: burst.Jobs[:2:2]}
	traces := map[string]workload.Workload{
		"burst": burst, "burst-shuffled": shuffled(burst, 1),
		"poisson": poisson, "poisson-shuffled": shuffled(poisson, 2),
		"fewer-jobs-than-members": few, "empty": {},
	}
	for _, name := range slices.Sorted(maps.Keys(traces)) {
		w := traces[name]
		for _, route := range AllRoutes() {
			for _, members := range [][]sim.Config{Uniform(baseConfig(), 4), Skewed(baseConfig(), 3, 1.0)} {
				cfg := Config{Members: members, Route: route, RouteSeed: 7}
				parts, assign, err := Partition(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				wantParts, wantAssign := partitionByAppend(cfg, w)
				if !reflect.DeepEqual(assign, wantAssign) {
					t.Errorf("%s/%v/%d members: assign %v, reference %v", name, route, len(members), assign, wantAssign)
				}
				if !reflect.DeepEqual(parts, wantParts) {
					t.Errorf("%s/%v/%d members: parts differ from the reference's", name, route, len(members))
				}
				for m, p := range parts {
					if cap(p.Jobs) != len(p.Jobs) {
						t.Errorf("%s/%v: member %d's list holds %d jobs in %d", name, route, m, len(p.Jobs), cap(p.Jobs))
					}
				}
			}
		}
	}
}

func TestRoundRobinDealsEvenly(t *testing.T) {
	w := testWorkload(t, 64)
	parts, _, err := Partition(Config{Members: Uniform(baseConfig(), 4), Route: RoundRobin}, w)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if len(p.Jobs) != 16 {
			t.Errorf("member %d got %d of 64 jobs", i, len(p.Jobs))
		}
	}
}

func TestPriorityAwareSendsHighPriorityLeastLoaded(t *testing.T) {
	// Two members, one pre-loaded: a burst of low-priority jobs lands
	// round-robin, then a high-priority job must go to the emptier member.
	w := workload.Workload{}
	for i := 0; i < 2; i++ {
		w.Jobs = append(w.Jobs, workload.JobSpec{
			ID: string(rune('a' + i)), Class: model.XLarge, Priority: 1, SubmitAt: float64(i),
		})
	}
	w.Jobs = append(w.Jobs, workload.JobSpec{ID: "hot", Class: model.Small, Priority: 5, SubmitAt: 2})
	// Member 1 has twice the slots: after the round-robin deal both members
	// hold one XLarge (16 min-PE), so member 1's demand per slot is half.
	cfg := Config{Members: Skewed(baseConfig(), 2, 1.0), Route: PriorityAware}
	_, assign, err := Partition(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// The round-robin cursor points at member 0 next; the high-priority job
	// must ignore it and take the least-contended member 1.
	if assign[2] != 1 {
		t.Errorf("hot job routed to member %d, want least-loaded member 1", assign[2])
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	w := testWorkload(t, 96)
	for _, route := range AllRoutes() {
		seq, err := Run(Config{Members: Uniform(baseConfig(), 4), Route: route, RouteSeed: 2, Workers: 1}, w)
		if err != nil {
			t.Fatalf("%v sequential: %v", route, err)
		}
		par, err := Run(Config{Members: Uniform(baseConfig(), 4), Route: route, RouteSeed: 2, Workers: 0}, w)
		if err != nil {
			t.Fatalf("%v parallel: %v", route, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%v: parallel federation diverged from sequential", route)
		}
	}
}

func TestRunAggregatesMatchMembers(t *testing.T) {
	w := testWorkload(t, 64)
	res, err := Run(Config{Members: Uniform(baseConfig(), 4), Route: RoundRobin, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 4 {
		t.Fatalf("%d member results", len(res.Members))
	}
	jobs := 0
	for i, n := range res.JobsPerMember {
		jobs += n
		if got := len(res.Members[i].Jobs); got != n {
			t.Errorf("member %d: %d jobs in result, router sent %d", i, got, n)
		}
	}
	if jobs != len(w.Jobs) {
		t.Errorf("%d of %d jobs across members", jobs, len(w.Jobs))
	}
	// The fleet window spans every member window.
	for i, m := range res.Members {
		if m.TotalTime-1e-9 > res.TotalTime {
			t.Errorf("member %d window %g exceeds fleet window %g", i, m.TotalTime, res.TotalTime)
		}
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Errorf("fleet utilization %g", res.Utilization)
	}
	if res.Imbalance < 0 || res.Imbalance > 1 {
		t.Errorf("imbalance %g", res.Imbalance)
	}
	// Exact weighted means: recompute from the members' weight sums.
	var wSum, wResp float64
	for _, m := range res.Members {
		wSum += m.WeightSum
		wResp += m.WeightSum * m.WeightedResponse
	}
	if math.Abs(res.WeightedResponse-wResp/wSum) > 1e-9 {
		t.Errorf("fleet weighted response %g, members say %g", res.WeightedResponse, wResp/wSum)
	}
}

func TestSingleMemberFederationMatchesPlainSim(t *testing.T) {
	// A 1-cluster federation is the degenerate case: the fleet metrics must
	// equal the plain simulator's result for the same workload.
	w := testWorkload(t, 32)
	plain, err := sim.Run(sim.DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := Run(Config{Members: Uniform(baseConfig(), 1), Route: LeastLoaded, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if fed.TotalTime != plain.TotalTime || fed.Utilization != plain.Utilization ||
		fed.WeightedResponse != plain.WeightedResponse || fed.WeightedCompletion != plain.WeightedCompletion {
		t.Errorf("1-member fleet diverged from plain sim:\nfleet: %+v\nplain: %+v", fed, plain)
	}
	if fed.Imbalance != 0 {
		t.Errorf("1-member imbalance %g", fed.Imbalance)
	}
}

func TestLeastLoadedBeatsRoundRobinOnSkewedArrivals(t *testing.T) {
	// All jobs arrive nearly at once: round-robin deals them blindly while
	// least-loaded levels the queued demand, so its imbalance must not be
	// worse.
	w, err := (workload.Burst{Waves: 1, PerWave: 64, WaveGap: 600}).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(Config{Members: Skewed(baseConfig(), 4, 0.5), Route: RoundRobin, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := Run(Config{Members: Skewed(baseConfig(), 4, 0.5), Route: LeastLoaded, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if ll.Imbalance > rr.Imbalance+1e-9 {
		t.Errorf("least-loaded imbalance %g worse than round-robin %g on a skewed fleet", ll.Imbalance, rr.Imbalance)
	}
}

// TestAggregationAccountsTrailingAvailability pins the fleet-window
// extension against skipped trace events: a member whose work drains early
// never applies later capacity events in its own sim, but the fleet's
// delivered-capacity denominator must still honor them — an idle member that
// would have been drained to 1 slot cannot be charged as 64 idle slots.
func TestAggregationAccountsTrailingAvailability(t *testing.T) {
	w := workload.Workload{Jobs: []workload.JobSpec{
		{ID: "long", Class: model.XLarge, Priority: 3, SubmitAt: 0}, // → member 0
		{ID: "short", Class: model.Small, Priority: 3, SubmitAt: 1}, // → member 1
	}}
	members := Uniform(baseConfig(), 2)
	plain, err := Run(Config{Members: members, Route: RoundRobin, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	short := plain.Members[1].LastEnd
	if short+100 >= plain.Members[0].LastEnd {
		t.Fatalf("scenario broken: member 1 ends at %g, member 0 at %g", short, plain.Members[0].LastEnd)
	}
	// Drain member 1 to a single slot after its job is done; its sim skips
	// the event, so only the aggregation can account for it.
	drained := Uniform(baseConfig(), 2)
	drained[1].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: short + 100, Capacity: 1},
	}}
	fed, err := Run(Config{Members: drained, Route: RoundRobin, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Members[1].CapacityEvents != 0 {
		t.Fatalf("trailing event was applied (%d); the test needs it skipped", fed.Members[1].CapacityEvents)
	}
	if fed.Utilization <= plain.Utilization {
		t.Errorf("drained fleet utilization %g not above undrained %g — trailing trace events ignored in the denominator",
			fed.Utilization, plain.Utilization)
	}
}

func TestSkewedCapacities(t *testing.T) {
	members := Skewed(baseConfig(), 4, 0.5)
	want := []int{64, 96, 128, 160}
	for i, m := range members {
		if m.Capacity != want[i] {
			t.Errorf("member %d capacity %d, want %d", i, m.Capacity, want[i])
		}
	}
}

func TestRouteByName(t *testing.T) {
	for _, r := range AllRoutes() {
		got, err := RouteByName(r.String())
		if err != nil || got != r {
			t.Errorf("RouteByName(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := RouteByName("teleport"); err == nil {
		t.Error("accepted unknown route")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	w := testWorkload(t, 16)
	if _, err := Run(Config{}, w); err == nil {
		t.Error("accepted empty member list")
	}
	bad := Uniform(baseConfig(), 2)
	bad[1].Capacity = 0
	if _, err := Run(Config{Members: bad}, w); err == nil {
		t.Error("accepted zero-capacity member")
	}
}

func TestSweepShapesAndDeterminism(t *testing.T) {
	gen := workload.Uniform{Jobs: 12, Gap: 90}
	routes := []Route{RoundRobin, LeastLoaded}
	seq, err := Sweep(routes, gen, 2, 2, 180, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(routes, gen, 2, 2, 180, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel federation sweep diverged from sequential")
	}
	if len(seq) != len(routes) {
		t.Fatalf("%d sweep rows", len(seq))
	}
	for i, sr := range seq {
		if sr.Label != routes[i].String() {
			t.Errorf("row %d labelled %q", i, sr.Label)
		}
		if len(sr.ByPolicy) != len(core.AllPolicies()) {
			t.Errorf("row %d has %d policies", i, len(sr.ByPolicy))
		}
		for p, avg := range sr.ByPolicy {
			if avg.Runs != 2 || avg.TotalTime <= 0 {
				t.Errorf("row %d policy %v: %+v", i, p, avg)
			}
			// The routing-quality metric must survive the averaging: a
			// skewed 2-member fleet is never perfectly balanced.
			if avg.Imbalance <= 0 || avg.Imbalance > 1 {
				t.Errorf("row %d policy %v imbalance %g", i, p, avg.Imbalance)
			}
		}
	}
}

// TestShardedMembersEquivalence pins the federation's side of the sharded
// execution contract: a fleet whose members run their event loops sharded
// (sim.Config.Shards) produces a federation Result bit-identical to the same
// fleet running sequentially, under every routing policy, both with the
// member pool sequential and parallel. The burst workload is dealt so every
// member sees drained inter-wave gaps — real multi-epoch plans, not just the
// planner's sequential fallback.
func TestShardedMembersEquivalence(t *testing.T) {
	w, err := (workload.Burst{Waves: 6, PerWave: 48, WaveGap: 9000}).Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range AllRoutes() {
		t.Run(route.String(), func(t *testing.T) {
			run := func(shards, workers int) Result {
				base := baseConfig()
				base.Shards = shards
				res, err := Run(Config{
					Members:   Uniform(base, 3),
					Route:     route,
					RouteSeed: 9,
					Workers:   workers,
				}, w)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			seq := run(0, 1)
			for _, workers := range []int{1, 0} {
				if par := run(4, workers); !reflect.DeepEqual(seq, par) {
					t.Fatalf("sharded members diverge (workers=%d):\nsequential: %+v\nsharded:    %+v",
						workers, seq, par)
				}
			}
		})
	}
}
