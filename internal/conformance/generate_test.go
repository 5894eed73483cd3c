package conformance

import (
	"math/rand"
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
)

// scenarioDivergence runs one scenario through the reference
// full-redistribute scheduler and a candidate mode (both logged) and
// returns the differ's report, or "" when the streams are identical.
func scenarioDivergence(sc Scenario, p core.Policy, shards int) (string, error) {
	run := func(full bool, shards int) (*Stream, error) {
		cfg := sim.DefaultConfig(p)
		cfg.Availability = sc.Trace
		cfg.FullRedistribute = full
		cfg.LogDecisions = true
		cfg.Shards = shards
		return RecordSim(cfg, sc.Workload)
	}
	ref, err := run(true, 1)
	if err != nil {
		return "", err
	}
	got, err := run(false, shards)
	if err != nil {
		return "", err
	}
	if d := Compare(ref, got); !d.Empty() {
		return d.Format(ref, got, 0), nil
	}
	return "", nil
}

// TestRandomScenarioEquivalenceProperty is the property-based sweep: a
// fixed-seed stream of random scenarios, each run through the incremental,
// sharded or automatic mode against the full-redistribute reference. A failure is
// shrunk to a minimal scenario before reporting.
func TestRandomScenarioEquivalenceProperty(t *testing.T) {
	iterations := 20
	if testing.Short() {
		iterations = 6
	}
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < iterations; i++ {
		sc := RandomScenario(rng)
		p := core.AllPolicies()[i%4]
		shards := []int{1, 8, 0}[i%3]
		report, err := scenarioDivergence(sc, p, shards)
		if err != nil {
			t.Fatalf("iteration %d (%s, %s, shards %d): %v", i, sc.Name, p, shards, err)
		}
		if report == "" {
			continue
		}
		// Shrink to a minimal failing scenario for the report.
		min := Shrink(sc, func(cand Scenario) bool {
			r, err := scenarioDivergence(cand, p, shards)
			return err == nil && r != ""
		})
		minReport, _ := scenarioDivergence(min, p, shards)
		t.Fatalf("iteration %d: %s diverged under %s shards=%d; shrunk to %s (%d jobs, %d trace events):\n%s",
			i, sc.Name, p, shards, min.Name, min.Jobs(), len(min.Trace.Events), minReport)
	}
}

// TestShrinkMinimizes drives Shrink with a synthetic predicate and checks
// it reaches the 1-minimal core: the single triggering job, and the trace
// reduced to its protected final restore event.
func TestShrinkMinimizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sc Scenario
	for {
		sc = RandomScenario(rng)
		if sc.Jobs() >= 20 && len(sc.Trace.Events) >= 3 {
			break
		}
	}
	fails := func(cand Scenario) bool {
		for _, j := range cand.Workload.Jobs {
			if j.ID == "p007" {
				return true
			}
		}
		return false
	}
	min := Shrink(sc, fails)
	if min.Jobs() != 1 || min.Workload.Jobs[0].ID != "p007" {
		t.Errorf("job shrink left %d jobs (%+v), want just p007", min.Jobs(), min.Workload.Jobs)
	}
	if len(min.Trace.Events) != 1 {
		t.Errorf("trace shrink left %d events, want only the restore", len(min.Trace.Events))
	}
	if !fails(min) {
		t.Error("shrunk scenario no longer fails the predicate")
	}
	if !strings.Contains(min.Name, "shrunk") {
		t.Errorf("shrunk scenario not labelled: %s", min.Name)
	}
}

// TestRandomScenarioFeasibility: generated scenarios must always be valid
// inputs — traces validate and never drop below the rigid-feasibility
// floor, jobs arrive in order.
func TestRandomScenarioFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		sc := RandomScenario(rng)
		if sc.Jobs() < 8 || sc.Jobs() > maxRandomJobs {
			t.Fatalf("scenario %d: %d jobs out of bounds", i, sc.Jobs())
		}
		last := 0.0
		for _, j := range sc.Workload.Jobs {
			if j.SubmitAt < last {
				t.Fatalf("scenario %d: submissions out of order", i)
			}
			last = j.SubmitAt
		}
		if err := sc.Trace.Validate(); err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		for _, ev := range sc.Trace.Events {
			if ev.Capacity < minRandomCap {
				t.Fatalf("scenario %d: capacity %d below rigid floor %d", i, ev.Capacity, minRandomCap)
			}
		}
	}
}
