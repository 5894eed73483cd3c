// An ablation of the scheduler's design choices (paper §3.2): the benchmark
// runs the same workload with the choice off and on and prints the pair once.
// Nothing else prints it; the paper's tables and figures are the CLIs (see
// README, "Reproducing the paper's evaluation"), and the gate is bench/. Run
// with
//
//	go test -bench=Ablation -benchtime=1x
package elastichpc

import (
	"fmt"
	"sync"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// printOnce prints the pair once however often the benchmark runs.
var printOnce sync.Once

func runAblation(b *testing.B, cfg sim.Config, w workload.Workload) sim.Result {
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
		gap0 := runAblation(b, ablCfg(0), w)
		gap180 := runAblation(b, ablCfg(180), w)
		printOnce.Do(func() {
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
