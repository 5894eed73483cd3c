package cluster

import (
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// Every workload generator must drive both execution backends: the
// discrete-event simulator and the full-stack cluster emulation consume the
// same workload.Workload.
func TestAllGeneratorsRunThroughBothBackends(t *testing.T) {
	dir := t.TempDir()
	seedWL, err := (workload.Uniform{Jobs: 3, Gap: 60}).Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := dir + "/scenario.csv"
	if err := workload.SaveFile(tracePath, seedWL, ""); err != nil {
		t.Fatal(err)
	}

	gens := []workload.Generator{
		workload.Uniform{Jobs: 4, Gap: 60},
		workload.Poisson{Jobs: 4, MeanGap: 60},
		workload.Burst{Waves: 2, PerWave: 2, WaveGap: 240},
		workload.Diurnal{Jobs: 4, Period: 600, PeakGap: 30, OffPeakGap: 180},
		workload.Trace{Path: tracePath},
	}
	for _, g := range gens {
		w, err := g.Generate(1)
		if err != nil {
			t.Fatalf("%s: generate: %v", g.Name(), err)
		}
		simRes, err := sim.Run(sim.DefaultConfig(core.Elastic), w)
		if err != nil {
			t.Fatalf("%s: sim backend: %v", g.Name(), err)
		}
		if simRes.TotalTime <= 0 || len(simRes.Jobs) != len(w.Jobs) {
			t.Errorf("%s: sim degenerate result %+v", g.Name(), simRes)
		}
		actRes, err := RunAvailability(DefaultConfig(core.Elastic), g, nil, 1)
		if err != nil {
			t.Fatalf("%s: cluster backend: %v", g.Name(), err)
		}
		if actRes.TotalTime <= 0 || len(actRes.Jobs) != len(w.Jobs) {
			t.Errorf("%s: cluster degenerate result %+v", g.Name(), actRes)
		}
		if actRes.Utilization <= 0 || actRes.Utilization > 1 {
			t.Errorf("%s: cluster utilization %g", g.Name(), actRes.Utilization)
		}
	}
}

func TestRunGeneratorPropagatesError(t *testing.T) {
	_, err := RunAvailability(DefaultConfig(core.Elastic), workload.Trace{}, nil, 1)
	if err == nil {
		t.Error("RunAvailability swallowed a generator error")
	}
}
