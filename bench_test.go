// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (§4), plus ablations of the design choices called out in
// DESIGN.md. Each benchmark regenerates the corresponding rows/series and
// prints them once; run with
//
//	go test -bench=. -benchmem
//
// Figures 4–6 exercise the real charm runtime (problem sizes scaled down —
// the goroutine runtime shares one machine, not 4 EKS nodes; the curve
// shapes are the reproduction target). Figures 7–9 and Table 1 run the DES
// simulator and the full k8s emulation at paper-scale parameters.
package elastichpc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"elastichpc/internal/apps"
	"elastichpc/internal/charm"
	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/lb"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
)

// printOnce guards per-benchmark series printing.
var printOnce sync.Map

func once(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
	}
}

// benchPEs picks replica counts that fit the host.
func benchPEs() []int {
	all := []int{2, 4, 8, 16, 32, 64}
	var out []int
	for _, p := range all {
		if p <= runtime.NumCPU() {
			out = append(out, p)
		}
	}
	if len(out) < 3 {
		out = []int{2, 4, 8}
	}
	return out
}

func chareGrid(n int) (int, int) {
	bx := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			bx = f
		}
	}
	return bx, n / bx
}

func jacobiIterTime(b *testing.B, grid, pes, iters int) float64 {
	b.Helper()
	rt, err := charm.New(charm.Config{PEs: pes, RestartLatency: charm.ZeroRestartLatency})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	bx, by := chareGrid(4 * pes)
	r, err := apps.NewJacobiRunner(rt, grid, bx, by)
	if err != nil {
		b.Fatal(err)
	}
	res, err := r.Run(iters)
	if err != nil {
		b.Fatal(err)
	}
	return res.TimePerIteration().Seconds()
}

// BenchmarkFig4aJacobiScaling — Figure 4a: Jacobi2D strong scaling for three
// grid sizes (scaled down 8× from the paper's 2048/8192/16384).
func BenchmarkFig4aJacobiScaling(b *testing.B) {
	grids := []int{256, 1024, 2048}
	pes := benchPEs()
	for i := 0; i < b.N; i++ {
		once("fig4a", func() {
			fmt.Println("\nFig 4a (Jacobi2D strong scaling, grids scaled 8x down): grid,replicas,s/iter")
			for _, g := range grids {
				for _, p := range pes {
					fmt.Printf("fig4a,%d,%d,%.6f\n", g, p, jacobiIterTime(b, g, p, 12))
				}
			}
		})
		// Timed body: one representative point.
		_ = jacobiIterTime(b, 1024, pes[len(pes)-1], 6)
	}
}

// BenchmarkFig4bLeanMDScaling — Figure 4b: LeanMD strong scaling for three
// cell grids.
func BenchmarkFig4bLeanMDScaling(b *testing.B) {
	cells := [][3]int{{4, 4, 4}, {4, 4, 8}, {4, 8, 8}}
	pes := benchPEs()
	runOne := func(c [3]int, p, iters int) float64 {
		rt, err := charm.New(charm.Config{PEs: p, RestartLatency: charm.ZeroRestartLatency})
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Shutdown()
		r, err := apps.NewLeanMDRunner(rt, c[0], c[1], c[2], 32, 2025)
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run(iters)
		if err != nil {
			b.Fatal(err)
		}
		return res.TimePerIteration().Seconds()
	}
	for i := 0; i < b.N; i++ {
		once("fig4b", func() {
			fmt.Println("\nFig 4b (LeanMD strong scaling): cells,replicas,s/step")
			for _, c := range cells {
				for _, p := range pes {
					fmt.Printf("fig4b,%dx%dx%d,%d,%.6f\n", c[0], c[1], c[2], p, runOne(c, p, 8))
				}
			}
		})
		_ = runOne(cells[0], pes[len(pes)-1], 4)
	}
}

// rescaleOnce measures one shrink/expand of a real Jacobi run.
func rescaleOnce(b *testing.B, from, to, grid int) charm.RescaleStats {
	b.Helper()
	rt, err := charm.New(charm.Config{PEs: from})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	side := from
	if to > side {
		side = to
	}
	bx, by := chareGrid(4 * side)
	r, err := apps.NewJacobiRunner(rt, grid, bx, by)
	if err != nil {
		b.Fatal(err)
	}
	r.LBPeriod = 5
	go func() { <-rt.RequestRescale(to) }()
	if _, err := r.Run(10); err != nil {
		b.Fatal(err)
	}
	stats := rt.Stats()
	if len(stats) == 0 {
		b.Fatalf("no rescale recorded %d->%d", from, to)
	}
	return stats[len(stats)-1]
}

func printPhases(tag string, x int, s charm.RescaleStats) {
	fmt.Printf("%s,%d,lb=%.4f,ckpt=%.4f,restart=%.4f,restore=%.4f,total=%.4f,bytes=%d\n",
		tag, x, s.LoadBalance.Seconds(), s.Checkpoint.Seconds(), s.Restart.Seconds(),
		s.Restore.Seconds(), s.Total.Seconds(), s.CheckpointBytes)
}

// BenchmarkFig5aShrinkOverhead — Figure 5a: shrink to half, varying the
// replica count before shrinking (grid scaled down 8×).
func BenchmarkFig5aShrinkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		once("fig5a", func() {
			fmt.Println("\nFig 5a (shrink to half, 1024² grid): replicas,phases")
			for _, p := range []int{4, 8, 16} {
				printPhases("fig5a", p, rescaleOnce(b, p, p/2, 1024))
			}
		})
		_ = rescaleOnce(b, 8, 4, 1024)
	}
}

// BenchmarkFig5bExpandOverhead — Figure 5b: expand to double.
func BenchmarkFig5bExpandOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		once("fig5b", func() {
			fmt.Println("\nFig 5b (expand to double, 1024² grid): replicas,phases")
			for _, p := range []int{2, 4, 8} {
				printPhases("fig5b", p, rescaleOnce(b, p, p*2, 1024))
			}
		})
		_ = rescaleOnce(b, 4, 8, 1024)
	}
}

// BenchmarkFig5cOverheadVsSize — Figure 5c: shrink 16→8 (paper: 32→16) for
// growing problem sizes.
func BenchmarkFig5cOverheadVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		once("fig5c", func() {
			fmt.Println("\nFig 5c (shrink 16->8, grid sweep): grid,phases")
			for _, g := range []int{64, 256, 1024, 4096} {
				printPhases("fig5c", g, rescaleOnce(b, 16, 8, g))
			}
		})
		_ = rescaleOnce(b, 16, 8, 1024)
	}
}

// BenchmarkFig6Timeline — Figure 6: per-iteration times and timeline around
// a shrink and a re-expand.
func BenchmarkFig6Timeline(b *testing.B) {
	run := func(print bool) {
		rt, err := charm.New(charm.Config{PEs: 8})
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Shutdown()
		bx, by := chareGrid(32)
		r, err := apps.NewJacobiRunner(rt, 2048, bx, by)
		if err != nil {
			b.Fatal(err)
		}
		r.LBPeriod = 20
		go func() { <-rt.RequestRescale(4) }()
		res1, err := r.Run(40)
		if err != nil {
			b.Fatal(err)
		}
		go func() { <-rt.RequestRescale(8) }()
		res2, err := r.Run(40)
		if err != nil {
			b.Fatal(err)
		}
		if !print {
			return
		}
		fmt.Println("\nFig 6 (Jacobi 2048², shrink 8->4 then expand 4->8): iter,pes,timestamp_s")
		base, off := 0.0, 0
		for _, res := range []apps.RunResult{res1, res2} {
			for j, it := range res.Iterations {
				if (j+1)%10 == 0 {
					fmt.Printf("fig6,%d,%d,%.3f\n", off+it.Iter, it.PEs, base+it.Timestamp.Seconds())
				}
			}
			for _, ev := range res.Rescales {
				fmt.Printf("fig6,# rescale %d->%d at %.3fs overhead=%v\n",
					ev.FromPEs, ev.ToPEs, base+ev.Timestamp.Seconds(), ev.Stats.Total)
			}
			off += len(res.Iterations)
			base += res.Total.Seconds()
		}
	}
	for i := 0; i < b.N; i++ {
		once("fig6", func() { run(true) })
		run(false)
	}
}

func printSweep(tag string, pts []sim.SweepPoint) {
	for _, pt := range pts {
		for _, p := range core.AllPolicies() {
			a := pt.ByPolicy[p]
			fmt.Printf("%s,%.0f,%s,util=%.3f,total=%.0f,resp=%.1f,comp=%.1f\n",
				tag, pt.X, p, a.Utilization, a.TotalTime, a.WeightedResponse, a.WeightedCompletion)
		}
	}
}

// BenchmarkFig7SubmissionGapSweep — Figure 7: the four metrics vs submission
// gap (0–300 s), 16 jobs, 100 seeds, T_rescale_gap = 180 s.
func BenchmarkFig7SubmissionGapSweep(b *testing.B) {
	gaps := []float64{0, 60, 120, 180, 240, 300}
	for i := 0; i < b.N; i++ {
		once("fig7", func() {
			pts, err := sim.SubmissionGapSweep(gaps, 16, 100, 180, 0)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Println("\nFig 7 (submission-gap sweep, 100 seeds): gap,policy,metrics")
			printSweep("fig7", pts)
		})
		if _, err := sim.SubmissionGapSweep([]float64{90}, 16, 5, 180, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8RescaleGapSweep — Figure 8: the four metrics vs
// T_rescale_gap (0–1200 s) at a fixed 180 s submission gap.
func BenchmarkFig8RescaleGapSweep(b *testing.B) {
	rgaps := []float64{0, 120, 300, 600, 900, 1200}
	for i := 0; i < b.N; i++ {
		once("fig8", func() {
			pts, err := sim.RescaleGapSweep(rgaps, 16, 100, 180, 0)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Println("\nFig 8 (rescale-gap sweep, 100 seeds): rescale_gap,policy,metrics")
			printSweep("fig8", pts)
		})
		if _, err := sim.RescaleGapSweep([]float64{180}, 16, 5, 180, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Simulation — Table 1, Simulation columns.
func BenchmarkTable1Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := sim.Table1Simulation()
		if err != nil {
			b.Fatal(err)
		}
		once("table1sim", func() {
			fmt.Println("\nTable 1 (Simulation): scheduler,total_s,util,resp_s,comp_s")
			for _, p := range core.AllPolicies() {
				r := results[p]
				fmt.Printf("table1sim,%s,%.0f,%.2f%%,%.2f,%.2f\n",
					p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion)
			}
		})
	}
}

// BenchmarkTable1Actual — Table 1, Actual columns via the full k8s+operator
// emulation.
func BenchmarkTable1Actual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := cluster.Table1Actual()
		if err != nil {
			b.Fatal(err)
		}
		once("table1act", func() {
			fmt.Println("\nTable 1 (Actual, emulated EKS): scheduler,total_s,util,resp_s,comp_s")
			for _, p := range core.AllPolicies() {
				r := results[p]
				fmt.Printf("table1act,%s,%.0f,%.2f%%,%.2f,%.2f\n",
					p, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion)
			}
		})
	}
}

// BenchmarkFig9aUtilizationProfiles — Figure 9a: utilization-over-time
// profiles for the four policies on the emulated cluster.
func BenchmarkFig9aUtilizationProfiles(b *testing.B) {
	w := sim.Table1Workload()
	for i := 0; i < b.N; i++ {
		for _, p := range core.AllPolicies() {
			res, err := cluster.RunExperiment(cluster.DefaultConfig(p), w)
			if err != nil {
				b.Fatal(err)
			}
			p := p
			once("fig9a-"+p.String(), func() {
				fmt.Printf("\nFig 9a (%s): %d utilization samples over %.0fs, mean %.1f%%\n",
					p, len(res.UtilTimeline), res.TotalTime, 100*res.Utilization)
				// Print a decimated profile (every 8th sample).
				for k := 0; k < len(res.UtilTimeline); k += 8 {
					s := res.UtilTimeline[k]
					fmt.Printf("fig9a,%s,%.1f,%d\n", p, s.At, s.Used)
				}
			})
		}
	}
}

// BenchmarkFig9bReplicaTimeline — Figure 9b: replica-count evolution of an
// xlarge job under the elastic policy.
func BenchmarkFig9bReplicaTimeline(b *testing.B) {
	w := sim.Table1Workload()
	specs := model.Specs()
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunExperiment(cluster.DefaultConfig(core.Elastic), w)
		if err != nil {
			b.Fatal(err)
		}
		once("fig9b", func() {
			best, bestLen := "", 0
			for _, js := range w.Jobs {
				if specs[js.Class].Class == model.XLarge {
					if tl := res.ReplicaTimelines[js.ID]; len(tl) > bestLen {
						best, bestLen = js.ID, len(tl)
					}
				}
			}
			fmt.Printf("\nFig 9b (xlarge job %s under elastic): t_s,replicas\n", best)
			for _, s := range res.ReplicaTimelines[best] {
				fmt.Printf("fig9b,%.1f,%d\n", s.At, s.Replicas)
			}
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

func runAblation(b *testing.B, name string, cfg sim.Config, w sim.Workload) sim.Result {
	b.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run(w)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationNoRescaleGap — T_rescale_gap = 0 vs the default 180 s.
func BenchmarkAblationNoRescaleGap(b *testing.B) {
	w := sim.Table1Workload()
	for i := 0; i < b.N; i++ {
		gap0 := runAblation(b, "gap0", ablCfg(0), w)
		gap180 := runAblation(b, "gap180", ablCfg(180), w)
		once("abl-gap", func() {
			fmt.Printf("\nAblation rescale-gap: gap=0s util=%.3f total=%.0f | gap=180s util=%.3f total=%.0f\n",
				gap0.Utilization, gap0.TotalTime, gap180.Utilization, gap180.TotalTime)
		})
	}
}

func ablCfg(gap float64) sim.Config {
	cfg := sim.DefaultConfig(core.Elastic)
	cfg.RescaleGap = gap
	return cfg
}

// BenchmarkAblationStrictFCFS — out-of-order allocation on vs off, averaged
// over contended (gap-0) workloads where a blocked queue head matters.
func BenchmarkAblationStrictFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var bfUtil, stUtil, bfTotal, stTotal float64
		const seeds = 10
		for seed := int64(0); seed < seeds; seed++ {
			w := sim.RandomWorkload(16, 0, seed)
			cfg := sim.DefaultConfig(core.Elastic)
			backfill := runAblation(b, "backfill", cfg, w)
			cfg2 := sim.DefaultConfig(core.Elastic)
			cfg2.StrictFCFS = true
			strict := runAblation(b, "strict", cfg2, w)
			bfUtil += backfill.Utilization
			stUtil += strict.Utilization
			bfTotal += backfill.TotalTime
			stTotal += strict.TotalTime
		}
		once("abl-fcfs", func() {
			fmt.Printf("\nAblation out-of-order allocation (10 gap-0 workloads): backfill util=%.3f total=%.0f | strict-FCFS util=%.3f total=%.0f\n",
				bfUtil/seeds, bfTotal/seeds, stUtil/seeds, stTotal/seeds)
		})
	}
}

// BenchmarkAblationPriorityAging — aging off vs on (paper §3.2.2).
func BenchmarkAblationPriorityAging(b *testing.B) {
	w := sim.RandomWorkload(16, 30, 7) // high contention: starvation risk
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(core.Elastic)
		off := runAblation(b, "aging-off", cfg, w)
		cfg2 := sim.DefaultConfig(core.Elastic)
		cfg2.AgingRate = 0.02 // +1 priority level per 50 s of waiting
		on := runAblation(b, "aging-on", cfg2, w)
		once("abl-aging", func() {
			worst := func(r sim.Result) float64 {
				var m float64
				for _, j := range r.Jobs {
					if j.ResponseTime > m {
						m = j.ResponseTime
					}
				}
				return m
			}
			fmt.Printf("\nAblation priority aging: off worst-response=%.0fs | on worst-response=%.0fs\n",
				worst(off), worst(on))
		})
	}
}

// BenchmarkAblationPreemption — checkpoint-preemption extension (§3.2.2).
func BenchmarkAblationPreemption(b *testing.B) {
	w := sim.RandomWorkload(16, 30, 7)
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(core.Elastic)
		off := runAblation(b, "preempt-off", cfg, w)
		cfg2 := sim.DefaultConfig(core.Elastic)
		cfg2.EnablePreemption = true
		on := runAblation(b, "preempt-on", cfg2, w)
		once("abl-preempt", func() {
			fmt.Printf("\nAblation preemption: off resp=%.1fs comp=%.1fs | on resp=%.1fs comp=%.1fs\n",
				off.WeightedResponse, off.WeightedCompletion, on.WeightedResponse, on.WeightedCompletion)
		})
	}
}

// BenchmarkAblationCostBenefit — the §6 cost/benefit rescale gate: decline
// rescales of nearly-done jobs and expansions that gain few replicas.
func BenchmarkAblationCostBenefit(b *testing.B) {
	w := sim.RandomWorkload(16, 0, 7)
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(core.Elastic)
		off := runAblation(b, "cb-off", cfg, w)
		cfg2 := sim.DefaultConfig(core.Elastic)
		cfg2.CostBenefit = &core.CostBenefit{MinExpandGain: 4, MinRemainingFraction: 0.1}
		on := runAblation(b, "cb-on", cfg2, w)
		rescales := func(r sim.Result) int {
			n := 0
			for _, j := range r.Jobs {
				n += j.Rescales
			}
			return n
		}
		once("abl-cb", func() {
			fmt.Printf("\nAblation cost/benefit gate: off rescales=%d total=%.0f | gated rescales=%d total=%.0f\n",
				rescales(off), off.TotalTime, rescales(on), on.TotalTime)
		})
	}
}

// BenchmarkAblationLBStrategy — Greedy vs Refine vs Rotate post-rescale
// imbalance on the real runtime.
func BenchmarkAblationLBStrategy(b *testing.B) {
	strategies := []lb.Strategy{lb.Greedy{}, lb.Refine{}, lb.Rotate{}}
	measure := func(s lb.Strategy) float64 {
		rt, err := charm.New(charm.Config{PEs: 4, RescaleLB: s, RestartLatency: charm.ZeroRestartLatency})
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Shutdown()
		bx, by := chareGrid(16)
		r, err := apps.NewJacobiRunner(rt, 512, bx, by)
		if err != nil {
			b.Fatal(err)
		}
		r.LBPeriod = 5
		go func() { <-rt.RequestRescale(8) }()
		res, err := r.Run(20)
		if err != nil {
			b.Fatal(err)
		}
		return res.TimePerIteration().Seconds()
	}
	for i := 0; i < b.N; i++ {
		once("abl-lb", func() {
			fmt.Println("\nAblation LB strategy (post-expand iteration time):")
			for _, s := range strategies {
				fmt.Printf("abl-lb,%s,%.6f s/iter\n", s.Name(), measure(s))
			}
		})
		_ = measure(strategies[0])
	}
}

// BenchmarkSchedulerThroughput measures raw policy decision throughput
// (submissions + completions per second) — the operator must "handle a much
// larger number of jobs" than the prior work (§3.2).
func BenchmarkSchedulerThroughput(b *testing.B) {
	act := nopActuator{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := time.Unix(0, 0)
		s, err := core.NewScheduler(core.Config{Policy: core.Elastic, Capacity: 4096, RescaleGap: time.Minute},
			act, func() time.Time { return now })
		if err != nil {
			b.Fatal(err)
		}
		var jobs []*core.Job
		for j := 0; j < 200; j++ {
			job := &core.Job{ID: fmt.Sprintf("j%d", j), Priority: j % 5, MinReplicas: 2, MaxReplicas: 32}
			if err := s.Submit(job); err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, job)
			now = now.Add(time.Second)
		}
		for _, j := range jobs {
			if j.State == core.StateRunning {
				s.OnJobComplete(j)
			}
			now = now.Add(time.Second)
		}
	}
}

type nopActuator struct{}

func (nopActuator) StartJob(*core.Job, int) error  { return nil }
func (nopActuator) ShrinkJob(*core.Job, int) error { return nil }
func (nopActuator) ExpandJob(*core.Job, int) error { return nil }
func (nopActuator) PreemptJob(*core.Job) error     { return nil }
