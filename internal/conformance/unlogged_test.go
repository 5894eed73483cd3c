package conformance

import (
	"math/rand"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// The other equivalence tests set LogDecisions, which sends every Reschedule
// through the scheduler's drain loop. Production runs unlogged, on the
// placeable-only pass; the tests here pin that path against the
// full-redistribute reference, on everything an unlogged run leaves behind:
// the bit-exact summary and the per-job digest.

// unloggedVariants are the configuration cells swept beside the default one:
// each moves a quantity the placeable-only pass's argument leans on — the
// per-job overhead in every need, the in-order rule, a gate that vetoes the
// shrinks a placeable job counted on (the mid-pass fallback), and a zero
// rescale gap (a freshly started job is shrinkable at once).
var unloggedVariants = []struct {
	name string
	set  func(*sim.Config)
}{
	{"default", func(*sim.Config) {}},
	{"overhead1", func(c *sim.Config) { c.JobOverheadSlots = 1 }},
	{"strict_fcfs", func(c *sim.Config) { c.StrictFCFS = true }},
	{"cost_benefit_veto", func(c *sim.Config) {
		c.CostBenefit = &core.CostBenefit{MinRemainingFraction: 0.5}
	}},
	{"gap0", func(c *sim.Config) { c.RescaleGap = 0 }},
}

// denseTwin compresses a scenario's arrivals fortyfold, so a backlog builds
// behind the 64 slots and rescale-gap kicks find a deep queue — the regime
// the placeable-only pass exists for, which RandomScenario's mostly-dense
// arrivals only brush.
func denseTwin(sc Scenario) Scenario {
	jobs := append([]workload.JobSpec(nil), sc.Workload.Jobs...)
	for i := range jobs {
		jobs[i].SubmitAt /= 40
	}
	sc.Workload = sim.Workload{Jobs: jobs}
	sc.Name += "-dense"
	return sc
}

// unloggedDivergence runs one scenario unlogged and retained through the
// full-redistribute reference and the incremental scheduler, and returns the
// differ's report, or "" when the streams are identical. A cell both sides
// reject with the same error is not a divergence.
func unloggedDivergence(sc Scenario, p core.Policy, variant int) (string, error) {
	run := func(full bool) (*Stream, error) {
		cfg := sim.DefaultConfig(p)
		cfg.Availability = sc.Trace
		cfg.FullRedistribute = full
		unloggedVariants[variant].set(&cfg)
		return RecordSim(cfg, sc.Workload)
	}
	ref, refErr := run(true)
	got, gotErr := run(false)
	if refErr != nil || gotErr != nil {
		if refErr != nil && gotErr != nil && refErr.Error() == gotErr.Error() {
			return "", nil
		}
		if refErr == nil {
			return "", gotErr
		}
		return "", refErr
	}
	if d := Compare(ref, got); !d.Empty() {
		return d.Format(ref, got, 0), nil
	}
	return "", nil
}

// TestUnloggedEquivalenceProperty sweeps a fixed-seed stream of random
// scenarios (every second one as its dense twin) × all four policies through
// the unlogged incremental scheduler against the unlogged reference, plus one
// rotating variant cell per draw.
func TestUnloggedEquivalenceProperty(t *testing.T) {
	draws := 3000
	if testing.Short() {
		draws = 300
	}
	rng := rand.New(rand.NewSource(20250928))
	check := func(i int, sc Scenario, p core.Policy, variant int) {
		t.Helper()
		report, err := unloggedDivergence(sc, p, variant)
		if err != nil {
			t.Fatalf("draw %d (%s, %s, %s): %v", i, sc.Name, p, unloggedVariants[variant].name, err)
		}
		if report == "" {
			return
		}
		min := Shrink(sc, func(cand Scenario) bool {
			r, err := unloggedDivergence(cand, p, variant)
			return err == nil && r != ""
		})
		minReport, _ := unloggedDivergence(min, p, variant)
		t.Fatalf("draw %d: %s diverged unlogged under %s/%s; shrunk to %s (%d jobs, %d trace events):\n%s",
			i, sc.Name, p, unloggedVariants[variant].name, min.Name, min.Jobs(), len(min.Trace.Events), minReport)
	}
	for i := 0; i < draws; i++ {
		sc := RandomScenario(rng)
		if i%2 == 1 {
			sc = denseTwin(sc)
		}
		for _, p := range core.AllPolicies() {
			check(i, sc, p, 0)
		}
		check(i, sc, core.AllPolicies()[(i/4)%4], 1+i%(len(unloggedVariants)-1))
	}
}

// FuzzUnloggedEquivalence fuzzes the same contract: any generated scenario
// (or its dense twin) × policy × variant, run unlogged, must match the
// unlogged full-redistribute reference on summary and per-job digest.
func FuzzUnloggedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(1), uint8(1), true)
	f.Add(int64(42), uint8(2), uint8(2), false)
	f.Add(int64(1234), uint8(3), uint8(3), true)
	f.Add(int64(99), uint8(3), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, policyIdx, variantIdx uint8, dense bool) {
		sc := fuzzScenario(seed)
		if dense {
			sc = denseTwin(sc)
		}
		p := core.AllPolicies()[int(policyIdx)%4]
		variant := int(variantIdx) % len(unloggedVariants)
		report, err := unloggedDivergence(sc, p, variant)
		if err != nil {
			t.Fatal(err)
		}
		if report != "" {
			t.Fatalf("seed %d policy %s variant %s dense %v diverged unlogged:\n%s",
				seed, p, unloggedVariants[variant].name, dense, report)
		}
	})
}
