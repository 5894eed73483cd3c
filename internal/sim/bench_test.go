package sim

import (
	"fmt"
	"runtime"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/workload"
)

// burstBacklog builds the bursty reference workload the simulator perf work
// targets: waves of 200 simultaneous submissions spaced so the 64-slot
// cluster just keeps up, holding a persistent multi-hundred-job backlog that
// exercises the indexed queue, the kick path, and the streaming collector.
func burstBacklog(tb testing.TB, jobs int) workload.Workload {
	tb.Helper()
	w, err := (workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 29000}).Generate(1)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkSimMillionJobs is the headline scale benchmark: one million
// bursty submissions through the elastic policy in streaming mode, sharded
// across every available core (Config.Shards = NumCPU; on a single-core
// host that degrades to the sequential loop). The pre-overhaul simulator
// sustained ~3.4k jobs/s on this workload (and held a JobMetrics per job).
// An ungated developer probe, like every Benchmark here: the regression gate
// is bench/ (scripts/bench-gate.sh).
func BenchmarkSimMillionJobs(b *testing.B) {
	benchSim(b, 1_000_000, runtime.NumCPU())
}

// BenchmarkSim100kJobs is the same scenario at a tenth the scale on the
// sequential loop — quick enough for local iteration while pinning the
// single-threaded event-loop rate the sharded mode builds on.
func BenchmarkSim100kJobs(b *testing.B) {
	benchSim(b, 100_000, 1)
}

// BenchmarkSimRetained is bench/'s poisson_retained run in process: 12 k
// Poisson jobs, mean gap 170 s, retained and logged, at the default Shards —
// under all four policies (policy=all), and under rigid-min alone
// (policy=min_replicas), a policy that never rescales a running job and so
// reserves less. B/job is the bytes a workload job costs the runs: for
// policy=all the simulation's share of bench/'s alloc_kb_per_job, which adds
// loading the trace and encoding the streams and the report.
func BenchmarkSimRetained(b *testing.B) {
	const jobs = 12000
	w, err := workload.Poisson{Jobs: jobs, MeanGap: 170}.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		policies []core.Policy
	}{
		{"policy=all", core.AllPolicies()},
		{"policy=min_replicas", []core.Policy{core.RigidMin}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				for _, p := range c.policies {
					cfg := DefaultConfig(p)
					cfg.LogDecisions = true
					if res, err := Run(cfg, w); err != nil || len(res.Jobs) != jobs {
						b.Fatalf("%v: %d records, err %v", p, len(res.Jobs), err)
					}
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(jobs*b.N), "B/job")
		})
	}
}

func benchSim(b *testing.B, jobs, shards int) {
	benchSimAvail(b, jobs, burstBacklog(b, jobs), workload.AvailabilityTrace{}, shards)
}

// BenchmarkSimParallelScaling sweeps fixed shard counts over the headline
// workload shape so the sharded mode's scaling curve is visible. Its
// throughput depends on the host's core count; what does not — the shard
// path's memory relative to the sequential loop's — is held by
// TestShardedFootprintBounded.
func BenchmarkSimParallelScaling(b *testing.B) {
	const jobs = 200_000
	w := burstBacklog(b, jobs)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchSimAvail(b, jobs, w, workload.AvailabilityTrace{}, shards)
		})
	}
}

// BenchmarkSimAvailability is the dynamic-capacity scale benchmark: one
// million bursty submissions with ~10k maintenance-drain capacity events
// interleaved — every drain forces reclaims across the running set and
// every restore triggers a redistribution, exercising the SetCapacity path
// at full event-loop speed. The waves are spaced ~8% wider than the
// fixed-capacity backlog benchmark so the workload stays feasible at the
// drained average capacity; a drain the cluster cannot absorb would grow
// the backlog without bound and measure queue scanning, not event
// handling.
func BenchmarkSimAvailability(b *testing.B) {
	const jobs = 1_000_000
	w, err := (workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 31500}).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	span := w.Span()
	every := span / 5000 // 5000 windows × (drain + restore) ≈ 10k events
	tr, err := (workload.MaintenanceDrain{Every: every, Duration: every / 2, Keep: 56}).Events(1, 64, span)
	if err != nil {
		b.Fatal(err)
	}
	benchSimAvail(b, jobs, w, tr, 1)
}

func benchSimAvail(b *testing.B, jobs int, w workload.Workload, tr workload.AvailabilityTrace, shards int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(core.Elastic)
		cfg.Streaming = true
		cfg.Availability = tr
		cfg.Shards = shards
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalTime <= 0 {
			b.Fatalf("degenerate result: %+v", res)
		}
		if len(tr.Events) > 0 && res.CapacityEvents == 0 {
			b.Fatalf("no capacity events applied (trace had %d)", len(tr.Events))
		}
	}
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
