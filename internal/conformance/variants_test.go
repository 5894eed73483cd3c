package conformance

import (
	"math/rand"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// The property sweep and the fuzz target here pin the scheduler production
// runs — the placeable-only pass with its drain-loop fallbacks, under
// coalesced kicks — on two contracts: its full decision stream equals the
// full-redistribute reference's, and switching the log off changes nothing a
// run leaves behind.

// variants are the configuration cells swept beside the default one: each
// moves a quantity the placeable-only pass's argument leans on — the per-job
// overhead in every need, the in-order rule, a gate that vetoes the shrinks a
// placeable job counted on (the mid-pass fallback), and a zero rescale gap (a
// freshly started job is shrinkable at once).
var variants = []struct {
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
	sc.Workload = workload.Workload{Jobs: jobs}
	sc.Name += "-dense"
	return sc
}

// contract is one two-run comparison over a (scenario, policy, variant) cell.
type contract struct {
	name      string
	ref, cand func(*sim.Config)
	// project reduces both streams to the part the contract speaks about.
	project func(*Stream) *Stream
}

var (
	// equivalence: the logged incremental scheduler reproduces the logged
	// full-redistribute reference, decision for decision.
	equivalence = contract{
		name:    "incremental vs full-redistribute",
		ref:     func(c *sim.Config) { c.LogDecisions, c.FullRedistribute = true, true },
		cand:    func(c *sim.Config) { c.LogDecisions = true },
		project: func(st *Stream) *Stream { return st },
	}
	// neutrality: the same run with the log off leaves a bit-identical
	// summary, per-job digest included.
	neutrality = contract{
		name:    "logged vs unlogged",
		ref:     func(c *sim.Config) { c.LogDecisions = true },
		cand:    func(*sim.Config) {},
		project: summaryOnly,
	}
)

// divergence runs one cell through both sides of the contract and returns the
// differ's report, or "" when they agree. A cell both sides reject with the
// same error is not a divergence.
func (c contract) divergence(sc Scenario, p core.Policy, variant int) (string, error) {
	run := func(side func(*sim.Config)) (*Stream, error) {
		cfg := sim.DefaultConfig(p)
		cfg.Availability = sc.Trace
		variants[variant].set(&cfg)
		side(&cfg)
		st, err := RecordSim(cfg, sc.Workload)
		if err != nil {
			return nil, err
		}
		return c.project(st), nil
	}
	ref, refErr := run(c.ref)
	got, gotErr := run(c.cand)
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

// sweep checks the contract on a fixed-seed stream of random scenarios (every
// second one as its dense twin) × all four policies, plus one rotating variant
// cell per draw. A failure is shrunk to a minimal scenario before reporting.
func (c contract) sweep(t *testing.T) {
	t.Parallel()
	draws := 3000
	if testing.Short() {
		draws = 300
	}
	rng := rand.New(rand.NewSource(20250928))
	check := func(i int, sc Scenario, p core.Policy, variant int) {
		t.Helper()
		report, err := c.divergence(sc, p, variant)
		if err != nil {
			t.Fatalf("draw %d (%s, %s, %s): %v", i, sc.Name, p, variants[variant].name, err)
		}
		if report == "" {
			return
		}
		min := Shrink(sc, func(cand Scenario) bool {
			r, err := c.divergence(cand, p, variant)
			return err == nil && r != ""
		})
		minReport, _ := c.divergence(min, p, variant)
		t.Fatalf("draw %d: %s diverged (%s) under %s/%s; shrunk to %s (%d jobs, %d trace events):\n%s",
			i, sc.Name, c.name, p, variants[variant].name, min.Name, min.Jobs(), len(min.Trace.Events), minReport)
	}
	for i := 0; i < draws; i++ {
		sc := RandomScenario(rng)
		if i%2 == 1 {
			sc = denseTwin(sc)
		}
		for _, p := range core.AllPolicies() {
			check(i, sc, p, 0)
		}
		check(i, sc, core.AllPolicies()[(i/4)%4], 1+i%(len(variants)-1))
	}
}

// TestVariantEquivalenceProperty: full decision streams, incremental against
// the full-redistribute reference, across the variant cells.
func TestVariantEquivalenceProperty(t *testing.T) { equivalence.sweep(t) }

// TestUnloggedEquivalenceProperty is the observer-neutrality property: the
// unlogged run — what production executes — leaves a Summary bit-identical to
// the logged run's, jobs_digest included, across the same cells. With the
// property above that ties the unlogged path to the reference.
func TestUnloggedEquivalenceProperty(t *testing.T) { neutrality.sweep(t) }

// FuzzUnloggedEquivalence fuzzes both contracts, which together pin the
// unlogged production run to the reference: any generated scenario (or its
// dense twin) × policy × variant must match the full-redistribute reference
// decision for decision when logged, and must not notice the log going off.
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
		for _, c := range []contract{equivalence, neutrality} {
			report, err := c.divergence(sc, p, variant)
			if err != nil {
				t.Fatal(err)
			}
			if report != "" {
				t.Fatalf("seed %d policy %s variant %s dense %v diverged (%s):\n%s",
					seed, p, variants[variant].name, dense, c.name, report)
			}
		}
	})
}
