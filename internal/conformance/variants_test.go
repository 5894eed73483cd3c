package conformance

import (
	"math/rand"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// The property sweep and the fuzz target here pin observer neutrality: the
// same run with the decision log off — what production executes — leaves a
// bit-identical summary, per-job digest included. What the scheduler decides
// is held to the paper's Figures 2–3 by core's reference oracle.

// variants are the configuration cells swept: the default one, and a zero
// rescale gap — a freshly started job is shrinkable at once, which moves a
// quantity the placeable-only pass's argument leans on.
var variants = []struct {
	name string
	set  func(*sim.Config)
}{
	{"default", func(*sim.Config) {}},
	{"gap0", func(c *sim.Config) { c.RescaleGap = 0 }},
}

// denseTwin compresses a scenario's arrivals fortyfold, so a backlog builds
// behind the 64 slots and rescale-gap kicks find a deep queue — the regime
// the placeable-only pass exists for, which randomScenario's mostly-dense
// arrivals only brush.
func denseTwin(sc Scenario) Scenario {
	jobs := append([]workload.JobSpec(nil), sc.Workload.Jobs...)
	for i := range jobs {
		jobs[i].SubmitAt /= 40
	}
	sc.Workload = workload.Workload{Jobs: jobs}
	sc.Name += "-dense"
	return sc
}

// neutralityDivergence runs one (scenario, policy, variant) cell logged and
// unlogged and returns the differ's report on the two summaries, or "" when
// they agree. A cell both sides reject with the same error is not a
// divergence.
func neutralityDivergence(sc Scenario, p core.Policy, variant int) (string, error) {
	run := func(logged bool) (*Stream, error) {
		cfg := sim.DefaultConfig(p)
		cfg.Availability = sc.Trace
		variants[variant].set(&cfg)
		cfg.LogDecisions = logged
		st, err := RecordSim(cfg, sc.Workload)
		if err != nil {
			return nil, err
		}
		return summaryOnly(st), nil
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

// TestUnloggedEquivalenceProperty is the observer-neutrality property over a
// fixed-seed stream of random scenarios (every second one as its dense twin)
// × all four policies, plus one rotating variant cell per draw. A failure is
// shrunk to a minimal scenario before reporting.
func TestUnloggedEquivalenceProperty(t *testing.T) {
	t.Parallel()
	draws := 3000
	if testing.Short() {
		draws = 300
	}
	rng := rand.New(rand.NewSource(20250928))
	check := func(i int, sc Scenario, p core.Policy, variant int) {
		t.Helper()
		report, err := neutralityDivergence(sc, p, variant)
		if err != nil {
			t.Fatalf("draw %d (%s, %s, %s): %v", i, sc.Name, p, variants[variant].name, err)
		}
		if report == "" {
			return
		}
		min := shrink(sc, func(cand Scenario) bool {
			r, err := neutralityDivergence(cand, p, variant)
			return err == nil && r != ""
		})
		minReport, _ := neutralityDivergence(min, p, variant)
		t.Fatalf("draw %d: %s diverged (logged vs unlogged) under %s/%s; shrunk to %s (%d jobs, %d trace events):\n%s",
			i, sc.Name, p, variants[variant].name, min.Name, min.Jobs(), len(min.Trace.Events), minReport)
	}
	for i := 0; i < draws; i++ {
		sc := randomScenario(rng)
		if i%2 == 1 {
			sc = denseTwin(sc)
		}
		for _, p := range core.AllPolicies() {
			check(i, sc, p, 0)
		}
		check(i, sc, core.AllPolicies()[(i/4)%4], 1+i%(len(variants)-1))
	}
}

// FuzzUnloggedEquivalence fuzzes observer neutrality: any generated scenario
// (or its dense twin) × policy × variant must not notice the log going off.
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
		variant := int(variantIdx) % len(variants)
		report, err := neutralityDivergence(sc, p, variant)
		if err != nil {
			t.Fatal(err)
		}
		if report != "" {
			t.Fatalf("seed %d policy %s variant %s dense %v diverged (logged vs unlogged):\n%s",
				seed, p, variants[variant].name, dense, report)
		}
	})
}
