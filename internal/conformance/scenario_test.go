package conformance

import (
	"fmt"
	"math"
	"math/rand"

	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// Scenario is one randomly generated equivalence input: a workload plus an
// optional availability trace. The property tests and fuzz targets generate
// Scenarios, run them through two execution modes, and require identical
// streams; shrink minimizes a failing one.
type Scenario struct {
	Name     string
	Workload workload.Workload
	Trace    workload.AvailabilityTrace
}

// Jobs is the scenario's job count.
func (sc Scenario) Jobs() int { return len(sc.Workload.Jobs) }

// generation bounds. Capacities stay in [minRandomCap, randomCapacity] so
// every scenario remains feasible for the rigid policies (XLarge pins 16
// replicas, so a trace must never drop below 16 slots).
const (
	randomCapacity = 64
	minRandomCap   = 16
	maxRandomJobs  = 64
)

// randomScenario draws a property-test scenario from rng: 8–64 jobs with
// random classes and priorities, mostly-dense arrivals salted with
// same-instant ties (the tie-break regime) and occasional multi-thousand-
// second gaps (drain/idle boundaries), plus — half the time — an
// availability trace drawn from one of three shapes: independent scattered
// events, a correlated failure burst, or a diurnal capacity curve.
func randomScenario(rng *rand.Rand) Scenario {
	n := 8 + rng.Intn(maxRandomJobs-8+1)
	jobs := make([]workload.JobSpec, n)
	at := 0.0
	for i := range jobs {
		switch rng.Intn(8) {
		case 0:
			// Same-instant tie with the previous job.
		case 1:
			// A long quiet hole: lets the cluster drain and re-idle.
			at += 2000 + float64(rng.Intn(4001))
		default:
			at += float64(rng.Intn(241))
		}
		jobs[i] = workload.JobSpec{
			ID:       fmt.Sprintf("p%03d", i),
			Class:    model.AllClasses()[rng.Intn(4)],
			Priority: 1 + rng.Intn(5),
			SubmitAt: at,
		}
	}
	sc := Scenario{
		Name:     fmt.Sprintf("random-%djobs", n),
		Workload: workload.Workload{Jobs: jobs},
	}
	span := at + 3600
	switch rng.Intn(6) {
	case 0, 1, 2:
		// No trace: the fixed-capacity regime.
	case 3:
		sc.Trace = scatteredTrace(rng, span)
		sc.Name += "-trace"
	case 4:
		sc.Trace = burstTrace(rng, span)
		sc.Name += "-burst"
	case 5:
		sc.Trace = diurnalTrace(rng, span)
		sc.Name += "-diurnal"
	}
	return sc
}

// scatteredTrace is the independent-event shape: a handful of uncorrelated
// capacity steps at loosely spaced instants.
func scatteredTrace(rng *rand.Rand, span float64) workload.AvailabilityTrace {
	events := make([]workload.CapacityEvent, 0, 6)
	t := 0.0
	for len(events) < 4 {
		t += span / float64(5+rng.Intn(8))
		if t >= span {
			break
		}
		events = append(events, workload.CapacityEvent{
			At:       t,
			Capacity: minRandomCap + rng.Intn(randomCapacity-minRandomCap+1),
		})
	}
	return workload.AvailabilityTrace{Events: events}.WithRestore(randomCapacity, span)
}

// burstTrace models correlated failures: one or two clusters of capacity
// drops tens of seconds apart — a cascade, not independent noise — each
// followed by a single recovery step. Tight event clusters land several
// forced shrinks and requeues inside one reconciliation window, the regime
// the shard boundary walk is most likely to get wrong. Every capacity stays
// at or above minRandomCap so the rigid policies remain feasible.
func burstTrace(rng *rand.Rand, span float64) workload.AvailabilityTrace {
	var events []workload.CapacityEvent
	t := 0.0
	for burst := 0; burst < 1+rng.Intn(2); burst++ {
		t += span * (0.1 + 0.3*rng.Float64())
		if t >= span {
			break
		}
		c := randomCapacity
		for hit := 0; hit < 2+rng.Intn(3); hit++ {
			if drop := 1 + rng.Intn(16); c-drop < minRandomCap {
				c = minRandomCap
			} else {
				c -= drop
			}
			events = append(events, workload.CapacityEvent{At: t, Capacity: c})
			t += 10 + float64(rng.Intn(111))
			if t >= span {
				break
			}
		}
		if t < span {
			// Recovery: most of the lost capacity returns at once.
			events = append(events, workload.CapacityEvent{
				At: t, Capacity: randomCapacity - rng.Intn(8),
			})
		}
	}
	return workload.AvailabilityTrace{Events: events}.WithRestore(randomCapacity, span)
}

// diurnalTrace samples a day/night capacity curve into steps: a cosine
// swinging between minRandomCap and randomCapacity over one or two periods —
// slow correlated drift, the opposite regime from burstTrace's cascades.
func diurnalTrace(rng *rand.Rand, span float64) workload.AvailabilityTrace {
	periods := 1 + rng.Intn(2)
	steps := 6 + rng.Intn(7)
	mid := float64(minRandomCap+randomCapacity) / 2
	amp := float64(randomCapacity-minRandomCap) / 2
	events := make([]workload.CapacityEvent, 0, steps)
	for i := 1; i <= steps; i++ {
		frac := float64(i) / float64(steps+1)
		c := int(math.Round(mid + amp*math.Cos(2*math.Pi*frac*float64(periods))))
		if c < minRandomCap {
			c = minRandomCap
		}
		if c > randomCapacity {
			c = randomCapacity
		}
		events = append(events, workload.CapacityEvent{At: frac * span, Capacity: c})
	}
	return workload.AvailabilityTrace{Events: events}.WithRestore(randomCapacity, span)
}

// shrink minimizes a failing scenario with ddmin-style chunk removal: it
// repeatedly tries dropping halves, quarters, … of the job list (then of
// the trace events, preserving the final restore event) and keeps any cut
// on which fails still returns true. The result is a (locally) 1-minimal
// scenario that still fails, which is what gets reported.
func shrink(sc Scenario, fails func(Scenario) bool) Scenario {
	for pass := 0; pass < 8; pass++ {
		shrunk := false
		if next, ok := shrinkJobs(sc, fails); ok {
			sc, shrunk = next, true
		}
		if next, ok := shrinkTrace(sc, fails); ok {
			sc, shrunk = next, true
		}
		if !shrunk {
			break
		}
	}
	sc.Name += fmt.Sprintf("-shrunk-%djobs", sc.Jobs())
	return sc
}

// shrinkJobs tries removing job chunks at granularities 1/2, 1/4, … down to
// single jobs, returning the smallest failing cut it finds this pass.
func shrinkJobs(sc Scenario, fails func(Scenario) bool) (Scenario, bool) {
	improved := false
	for chunk := len(sc.Workload.Jobs) / 2; chunk >= 1; chunk /= 2 {
		for lo := 0; lo+chunk <= len(sc.Workload.Jobs); {
			if len(sc.Workload.Jobs)-chunk < 1 {
				break
			}
			jobs := append([]workload.JobSpec(nil), sc.Workload.Jobs[:lo]...)
			jobs = append(jobs, sc.Workload.Jobs[lo+chunk:]...)
			cand := sc
			cand.Workload = workload.Workload{Jobs: jobs}
			if fails(cand) {
				sc = cand
				improved = true
				// Re-try the same offset: the next chunk slid into it.
			} else {
				lo += chunk
			}
		}
	}
	return sc, improved
}

// shrinkTrace tries removing capacity events one at a time, keeping the
// final event (the feasibility restore) in place.
func shrinkTrace(sc Scenario, fails func(Scenario) bool) (Scenario, bool) {
	improved := false
	for i := 0; i < len(sc.Trace.Events)-1; {
		events := append([]workload.CapacityEvent(nil), sc.Trace.Events[:i]...)
		events = append(events, sc.Trace.Events[i+1:]...)
		cand := sc
		cand.Trace = workload.AvailabilityTrace{Events: events}
		if fails(cand) {
			sc = cand
			improved = true
		} else {
			i++
		}
	}
	return sc, improved
}
