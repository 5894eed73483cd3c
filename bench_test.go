// Ablations of the scheduler's design choices (paper §3.2.2, §6): each
// benchmark runs the same workload with one choice off and on and prints the
// pair once. Nothing else prints these; the paper's tables and figures are
// the CLIs (see README, "Reproducing the paper's evaluation"), and the gate
// is bench/. Run with
//
//	go test -bench=Ablation -benchtime=1x
package elastichpc

import (
	"fmt"
	"sync"
	"testing"

	"elastichpc/internal/apps"
	"elastichpc/internal/charm"
	"elastichpc/internal/core"
	"elastichpc/internal/lb"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// printOnce guards per-benchmark series printing.
var printOnce sync.Map

func once(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
	}
}

func runAblation(b *testing.B, name string, cfg sim.Config, w workload.Workload) sim.Result {
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
			w := workload.MustUniform(16, 0, seed)
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
	w := workload.MustUniform(16, 30, 7) // high contention: starvation risk
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
	w := workload.MustUniform(16, 30, 7)
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
	w := workload.MustUniform(16, 0, 7)
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
		bx, by := apps.ChareGrid(16)
		r, err := apps.NewJacobiRunner(rt, 512, bx, by)
		if err != nil {
			b.Fatal(err)
		}
		r.LBPeriod = 5
		res, err := r.RunWithRescale(20, 8)
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
