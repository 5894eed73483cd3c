package federation

import (
	"fmt"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// BenchmarkFederation is the multi-cluster scale benchmark: one million
// bursty submissions routed round-robin across a 4-cluster fleet, each
// member a streaming-mode simulator at the paper's 64-slot capacity. The
// wave gap is a quarter of the single-cluster backlog benchmark's, so after
// the 4-way deal every member sees exactly the reference per-cluster load
// (200 jobs per 29000 s) and the fleet sustains the same backlog pressure at
// 4× the job throughput. The per-cluster job counts and utilizations are
// reported as sub-metrics beside the aggregate rate.
func BenchmarkFederation(b *testing.B) {
	const jobs = 1_000_000
	const clusters = 4
	w, err := (workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 29000 / clusters}).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.Streaming = true
	b.ReportAllocs()
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Members: Uniform(base, clusters), Route: RoundRobin}, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalTime <= 0 {
			b.Fatalf("degenerate result: %+v", res)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	for i, m := range last.Members {
		b.ReportMetric(float64(last.JobsPerMember[i]), fmt.Sprintf("c%d_jobs", i))
		b.ReportMetric(m.Utilization, fmt.Sprintf("c%d_util", i))
	}
}

// BenchmarkFederationMigration measures the rebalanced fleet path: a
// 4-cluster fleet at the reference per-cluster load whose member 0 has half
// the slots, co-simulated in 300 s barrier rounds with the
// checkpoint-migrating rebalancer draining member 0's backlog into the
// healthy members. The moves/round metric tracks rebalancer activity; the
// gated form of this fleet is bench/'s fleet_rebalance workload.
func BenchmarkFederationMigration(b *testing.B) {
	const jobs = 100_000
	cfg, w := migrationBenchFleet(b, jobs)
	b.ReportAllocs()
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalTime <= 0 || res.RebalanceRounds == 0 {
			b.Fatalf("degenerate result: rounds=%d total=%g", res.RebalanceRounds, res.TotalTime)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(len(last.Migrations)), "migrations")
	b.ReportMetric(float64(len(last.Migrations))/float64(last.RebalanceRounds), "moves/round")
}

// noDonorFleet is the round nineteen in twenty rounds are: four evenly loaded
// members with a standing backlog of 250 jobs each, stepped to the first
// barrier, so the rebalancer observes the fleet, finds no donor and touches
// no job — the rebalanced fleet's fixed decision cost per round.
func noDonorFleet(tb testing.TB) *rebalancer {
	tb.Helper()
	w, err := (workload.Burst{Waves: 1, PerWave: 1000, WaveGap: 1}).Generate(1)
	if err != nil {
		tb.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.Streaming = true
	cfg := Config{
		Members:   Uniform(base, 4),
		Route:     RoundRobin,
		Workers:   1,
		Rebalance: RebalanceConfig{Every: 300},
	}
	sims, counts := beginFleet(tb, cfg, w, 300)
	return newRebalancer(cfg, cfg.backends(), sims, counts)
}

// BenchmarkRebalanceRoundNoDonor times noDonorFleet's round. Zero
// allocations (TestRebalanceRoundNoDonorAllocatesNothing).
func BenchmarkRebalanceRoundNoDonor(b *testing.B) {
	r := noDonorFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if moved, err := r.round(300, i+1); err != nil || moved != 0 {
			b.Fatalf("round moved %d jobs (err %v)", moved, err)
		}
	}
	b.StopTimer()
	if r.stats.DonorRounds != 0 || r.stats.Snapshots != 0 {
		b.Fatalf("a no-donor round found donors: %+v", r.stats)
	}
	queued := 0
	for _, st := range r.states {
		queued += st.queued
	}
	b.ReportMetric(float64(queued), "queued")
}

// TestRebalanceRoundNoDonorAllocatesNothing holds noDonorFleet's round to
// zero allocations: observing a member reads counters, and a round with no
// donor builds no queue snapshot.
func TestRebalanceRoundNoDonorAllocatesNothing(t *testing.T) {
	r := noDonorFleet(t)
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		round++
		if moved, err := r.round(300, round); err != nil || moved != 0 {
			t.Fatalf("round moved %d jobs (err %v)", moved, err)
		}
	})
	if r.stats.DonorRounds != 0 || r.stats.Snapshots != 0 {
		t.Fatalf("a no-donor round found donors: %+v", r.stats)
	}
	queued := 0
	for _, st := range r.states {
		queued += st.queued
	}
	if queued == 0 {
		t.Fatal("the fleet lost its backlog: the round has nothing to count")
	}
	if allocs != 0 {
		t.Errorf("a no-donor round allocates %v times, want 0", allocs)
	}
}

// BenchmarkRebalancedWideRounds measures the parallel side of the barrier's
// inline-or-parallel selection, which BenchmarkFederationMigration's rounds
// (a 200-job wave at most) never reach: the same fleet under the same load
// arriving in waves of 1,000, rebalanced once per wave, so every round has
// over a thousand due events. workers=1 steps them inline, workers=2 through
// sim.RunTasks; the results are identical, the times are the comparison.
func BenchmarkRebalancedWideRounds(b *testing.B) {
	cfg, _ := migrationBenchFleet(b, 200)
	const perWave, gap = 1000, 5 * 29000 / 4
	w, err := (workload.Burst{Waves: 16_000 / perWave, PerWave: perWave, WaveGap: gap}).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Rebalance.Every = gap
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg.Workers = workers
			b.ReportAllocs()
			var last Result
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.RebalanceRounds), "rounds")
			b.ReportMetric(float64(len(last.Migrations)), "migrations")
		})
	}
}
