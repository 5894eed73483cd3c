package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"elastichpc/internal/model"
)

// CapacityEvent sets the cluster's total worker-slot capacity at an instant.
// Capacity is absolute (not a delta): replaying a trace from any point gives
// the same capacity curve, and merging concurrent outages cannot drift.
type CapacityEvent struct {
	At       float64 // seconds from experiment start
	Capacity int     // total worker slots from this instant on
}

// AvailabilityTrace is a reproducible capacity timeline: the cluster starts
// at the experiment's base capacity and follows the events in order. It is
// the availability analogue of Workload — one value drives both the
// discrete-event simulator and the cluster emulation.
type AvailabilityTrace struct {
	Events []CapacityEvent
}

// Clone returns an independent deep copy of the trace.
func (t AvailabilityTrace) Clone() AvailabilityTrace {
	if t.Events == nil {
		return AvailabilityTrace{}
	}
	ev := make([]CapacityEvent, len(t.Events))
	copy(ev, t.Events)
	return AvailabilityTrace{Events: ev}
}

// Empty reports whether the trace carries no capacity events.
func (t AvailabilityTrace) Empty() bool { return len(t.Events) == 0 }

// MaxCapacity is the largest capacity the cluster reaches: the base capacity
// or any event's target, whichever is higher. Emulated backends provision
// nodes to this bound up front so capacity-burst events have hardware to
// expand onto.
func (t AvailabilityTrace) MaxCapacity(base int) int {
	maxCap := base
	for _, ev := range t.Events {
		if ev.Capacity > maxCap {
			maxCap = ev.Capacity
		}
	}
	return maxCap
}

// CapacityAt reports the capacity in force at time at: base before the first
// event, then the target of the latest event at or before the instant.
func (t AvailabilityTrace) CapacityAt(base int, at float64) int {
	cap := base
	for _, ev := range t.Events {
		if ev.At > at {
			break
		}
		cap = ev.Capacity
	}
	return cap
}

// WithRestore returns the trace with a restore-to-base event appended when
// it would otherwise end below the base capacity — the guard that lets any
// finite workload eventually complete (a trace ending mid-outage would pin
// the cluster small forever). The restore lands at `at`, or just past the
// last event when `at` does not lie beyond it.
func (t AvailabilityTrace) WithRestore(base int, at float64) AvailabilityTrace {
	if len(t.Events) == 0 || t.Events[len(t.Events)-1].Capacity >= base {
		return t
	}
	out := t.Clone()
	if last := out.Events[len(out.Events)-1].At; at < last {
		at = last
	}
	out.Events = append(out.Events, CapacityEvent{At: at, Capacity: base})
	return out
}

// Validate checks the trace is usable by an event loop: events in
// non-decreasing time order, finite non-negative timestamps, and every
// capacity at least 1 slot (a scheduler over zero slots is invalid; total
// outages are modelled as capacity 1).
func (t AvailabilityTrace) Validate() error {
	last := 0.0
	for i, ev := range t.Events {
		if !(ev.At >= 0 && ev.At <= model.MaxSeconds) {
			return fmt.Errorf("workload: availability event %d at %v: want 0 to %g s", i, ev.At, model.MaxSeconds)
		}
		if ev.At < last {
			return fmt.Errorf("workload: availability event %d at %g before predecessor at %g", i, ev.At, last)
		}
		last = ev.At
		if ev.Capacity < 1 {
			return fmt.Errorf("workload: availability event %d capacity %d < 1", i, ev.Capacity)
		}
	}
	return nil
}

// AvailabilityProfile generates a capacity timeline for one seed — the
// availability analogue of Generator. Implementations must be deterministic
// per (seed, base, horizon): the same inputs always yield an identical trace,
// which keeps parallel sweeps bit-identical to sequential runs.
type AvailabilityProfile interface {
	// Name identifies the profile (the CLIs' -availability flag value).
	Name() string
	// Events builds the capacity timeline over [0, horizon] seconds for a
	// cluster whose base capacity is base slots.
	Events(seed int64, base int, horizon float64) (AvailabilityTrace, error)
}

// capDelta is an intermediate (time, slot-delta) pair used while merging
// per-source outage intervals into one absolute-capacity trace.
type capDelta struct {
	at    float64
	delta int
}

// deltasToTrace folds sorted slot deltas into absolute capacity events,
// clamping at 1 slot and dropping no-op transitions.
func deltasToTrace(base int, deltas []capDelta) AvailabilityTrace {
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
	var tr AvailabilityTrace
	lost := 0
	prev := base
	for i := 0; i < len(deltas); {
		at := deltas[i].at
		for i < len(deltas) && deltas[i].at == at {
			lost -= deltas[i].delta
			i++
		}
		cap := base - lost
		if cap < 1 {
			cap = 1
		}
		if cap != prev {
			tr.Events = append(tr.Events, CapacityEvent{At: at, Capacity: cap})
			prev = cap
		}
	}
	return tr
}

// FailureRepair models node crashes and repairs: each of Nodes nodes
// alternates between up (exponential lifetime with mean MTTF) and down
// (exponential repair with mean MTTR), taking its share of the base capacity
// with it — the classic availability model behind the paper's §3.2.2
// fault-tolerance motivation.
type FailureRepair struct {
	Nodes int     // nodes sharing the base capacity
	MTTF  float64 // mean time to failure per node, seconds
	MTTR  float64 // mean time to repair, seconds
}

// Name implements AvailabilityProfile.
func (p FailureRepair) Name() string { return "failures" }

// Events implements AvailabilityProfile.
func (p FailureRepair) Events(seed int64, base int, horizon float64) (AvailabilityTrace, error) {
	if p.Nodes < 1 || p.Nodes > base || !validGap(p.MTTF) || !validGap(p.MTTR) || p.MTTF <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad failure profile nodes=%d mttf=%g mttr=%g",
			p.Nodes, p.MTTF, p.MTTR)
	}
	if base < 1 || horizon <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad failure horizon base=%d horizon=%g", base, horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	var deltas []capDelta
	for node := 0; node < p.Nodes; node++ {
		slots := base/p.Nodes + boolToInt(node < base%p.Nodes)
		at := 0.0
		for {
			at += float64(rng.ExpFloat64() * p.MTTF) // lifetime
			if at >= horizon {
				break
			}
			deltas = append(deltas, capDelta{at: at, delta: -slots})
			at += float64(rng.ExpFloat64() * p.MTTR) // repair
			if at >= horizon {
				break
			}
			deltas = append(deltas, capDelta{at: at, delta: +slots})
		}
	}
	return deltasToTrace(base, deltas), nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SpotPreemption models cloud spot-instance reclaims: preemption events
// arrive as a Poisson process (mean MeanGap seconds apart), each taking
// Slots worker slots away for an exponentially distributed outage of mean
// MeanOutage seconds before replacement capacity arrives.
type SpotPreemption struct {
	MeanGap    float64 // mean seconds between preemption events
	Slots      int     // slots reclaimed per event
	MeanOutage float64 // mean seconds before the capacity returns
}

// Name implements AvailabilityProfile.
func (p SpotPreemption) Name() string { return "spot" }

// Events implements AvailabilityProfile.
func (p SpotPreemption) Events(seed int64, base int, horizon float64) (AvailabilityTrace, error) {
	if p.Slots < 1 || !validGap(p.MeanGap) || p.MeanGap <= 0 || !validGap(p.MeanOutage) || p.MeanOutage <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad spot profile gap=%g slots=%d outage=%g",
			p.MeanGap, p.Slots, p.MeanOutage)
	}
	if base < 1 || horizon <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad spot horizon base=%d horizon=%g", base, horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	var deltas []capDelta
	at := 0.0
	for {
		at += float64(rng.ExpFloat64() * p.MeanGap)
		if at >= horizon {
			break
		}
		deltas = append(deltas, capDelta{at: at, delta: -p.Slots})
		back := at + float64(rng.ExpFloat64()*p.MeanOutage)
		if back < horizon {
			deltas = append(deltas, capDelta{at: back, delta: +p.Slots})
		}
	}
	return deltasToTrace(base, deltas), nil
}

// MaintenanceDrain models planned maintenance windows: every Every seconds
// the cluster drains to Keep slots for Duration seconds, then returns to
// full capacity — the deterministic profile for studying drain-aware
// scheduling.
type MaintenanceDrain struct {
	Every    float64 // seconds between window starts (first at t=Every)
	Duration float64 // seconds each window lasts
	Keep     int     // slots retained during the drain
}

// Name implements AvailabilityProfile.
func (p MaintenanceDrain) Name() string { return "drain" }

// Events implements AvailabilityProfile. The seed is ignored — maintenance
// schedules are planned, not random.
func (p MaintenanceDrain) Events(_ int64, base int, horizon float64) (AvailabilityTrace, error) {
	if p.Keep < 1 || !validGap(p.Every) || p.Every <= 0 || !validGap(p.Duration) || p.Duration <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad drain profile every=%g duration=%g keep=%d",
			p.Every, p.Duration, p.Keep)
	}
	if base < 1 || horizon <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad drain horizon base=%d horizon=%g", base, horizon)
	}
	keep := p.Keep
	if keep > base {
		keep = base
	}
	var tr AvailabilityTrace
	for at := p.Every; at < horizon; at += p.Every {
		tr.Events = append(tr.Events, CapacityEvent{At: at, Capacity: keep})
		if back := at + p.Duration; back < horizon {
			tr.Events = append(tr.Events, CapacityEvent{At: back, Capacity: base})
		}
	}
	return tr, nil
}

// DiurnalCapacity models time-of-day capacity swings (reserved bursts by
// day, reclaimed overnight): capacity follows a raised-cosine curve between
// the base (peak, t = 0 mod Period) and Floor×base (trough, half a period
// later), sampled every Step seconds.
type DiurnalCapacity struct {
	Period float64 // seconds per full cycle
	Floor  float64 // fraction of base capacity at the trough, (0,1]
	Step   float64 // sampling interval of the capacity curve
}

// Name implements AvailabilityProfile.
func (p DiurnalCapacity) Name() string { return "tides" }

// Events implements AvailabilityProfile. The seed is ignored — the curve is
// deterministic.
func (p DiurnalCapacity) Events(_ int64, base int, horizon float64) (AvailabilityTrace, error) {
	if p.Floor <= 0 || p.Floor > 1 || !validGap(p.Period) || p.Period <= 0 || !validGap(p.Step) || p.Step <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad tides profile period=%g floor=%g step=%g",
			p.Period, p.Floor, p.Step)
	}
	if base < 1 || horizon <= 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: bad tides horizon base=%d horizon=%g", base, horizon)
	}
	var tr AvailabilityTrace
	prev := base
	for at := p.Step; at < horizon; at += p.Step {
		level := (1 + math.Cos(2*math.Pi*at/p.Period)) / 2 // 1 at peak, 0 in trough
		cap := int(math.Round(float64(base) * (p.Floor + float64((1-p.Floor)*level))))
		if cap < 1 {
			cap = 1
		}
		if cap != prev {
			tr.Events = append(tr.Events, CapacityEvent{At: at, Capacity: cap})
			prev = cap
		}
	}
	return tr, nil
}

// AvailabilityTraceFile replays a capacity timeline saved with
// SaveAvailabilityFile, a CSV trace file. Events ignores the seed — a replay
// is the same timeline every time.
type AvailabilityTraceFile struct {
	Path string
}

// Name implements AvailabilityProfile.
func (p AvailabilityTraceFile) Name() string { return "trace" }

// Events implements AvailabilityProfile. The base and horizon are ignored:
// the file records the absolute capacity curve the experiment asked for.
func (p AvailabilityTraceFile) Events(int64, int, float64) (AvailabilityTrace, error) {
	if p.Path == "" {
		return AvailabilityTrace{}, fmt.Errorf("workload: availability trace profile needs a path")
	}
	return LoadAvailabilityFile(p.Path)
}

// fixedAvailability replays an in-memory trace under a profile name.
type fixedAvailability struct {
	name string
	tr   AvailabilityTrace
}

func (p fixedAvailability) Name() string { return p.name }
func (p fixedAvailability) Events(int64, int, float64) (AvailabilityTrace, error) {
	return p.tr.Clone(), nil
}

// ReplayAvailability wraps an already-built capacity trace as a profile, so
// loaded traces and hand-built timelines drop into availability sweeps next
// to the synthetic profiles.
func ReplayAvailability(name string, tr AvailabilityTrace) AvailabilityProfile {
	return fixedAvailability{name: name, tr: tr.Clone()}
}

// AvailabilityOptions tunes the built-in profiles from CLI flags; zero
// values keep each profile's default.
type AvailabilityOptions struct {
	// MTTF overrides the failures profile's mean time to failure (seconds).
	MTTF float64
	// MTTR overrides the failures profile's mean time to repair (seconds).
	MTTR float64
	// PreemptSlots overrides the spot profile's slots-per-preemption.
	PreemptSlots int
	// TracePath is the capacity trace file for the "trace" profile.
	TracePath string
}

// Default availability-profile parameters, scaled to the paper's 64-slot
// cluster and ~30-minute experiments so every profile visibly perturbs a
// default scenario run.
const (
	defaultMTTF         = 1800.0
	defaultMTTR         = 600.0
	defaultPreemptSlots = 16
)

// DefaultAvailabilityProfiles returns the built-in capacity profiles with
// default parameters (the trace profile is omitted — it needs a path; see
// AvailabilityScenario).
func DefaultAvailabilityProfiles() []AvailabilityProfile {
	return []AvailabilityProfile{
		FailureRepair{Nodes: 4, MTTF: defaultMTTF, MTTR: defaultMTTR},
		SpotPreemption{MeanGap: 1200, Slots: defaultPreemptSlots, MeanOutage: 900},
		MaintenanceDrain{Every: 1800, Duration: 600, Keep: 32},
		DiurnalCapacity{Period: 2880, Floor: 0.5, Step: 120},
	}
}

// AvailabilityScenarioNames lists the names accepted by AvailabilityScenario,
// in display order.
func AvailabilityScenarioNames() []string {
	var names []string
	for _, p := range DefaultAvailabilityProfiles() {
		names = append(names, p.Name())
	}
	names = append(names, "trace")
	sort.Strings(names)
	return names
}

// AvailabilityScenario resolves an -availability flag value to a profile:
// one of the DefaultAvailabilityProfiles by name (with opts applied), or
// "trace" replaying opts.TracePath.
func AvailabilityScenario(name string, opts AvailabilityOptions) (AvailabilityProfile, error) {
	if name == "trace" {
		if opts.TracePath == "" {
			return nil, fmt.Errorf("workload: availability scenario %q needs a trace path", name)
		}
		return AvailabilityTraceFile{Path: opts.TracePath}, nil
	}
	for _, p := range DefaultAvailabilityProfiles() {
		if p.Name() != name {
			continue
		}
		switch prof := p.(type) {
		case FailureRepair:
			if opts.MTTF > 0 {
				prof.MTTF = opts.MTTF
			}
			if opts.MTTR > 0 {
				prof.MTTR = opts.MTTR
			}
			return prof, nil
		case SpotPreemption:
			if opts.PreemptSlots > 0 {
				prof.Slots = opts.PreemptSlots
			}
			return prof, nil
		default:
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown availability scenario %q (have %s)",
		name, strings.Join(AvailabilityScenarioNames(), ", "))
}

// AvailabilityLevels generates one seed of a profile and returns the sorted
// distinct capacity levels the cluster passes through (the base included) —
// the availability analogue of ScenarioGrids, used by the benchmark CLIs to
// cover exactly the replica counts an availability experiment will force.
func AvailabilityLevels(p AvailabilityProfile, seed int64, base int, horizon float64) ([]int, error) {
	tr, err := p.Events(seed, base, horizon)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{base: true}
	for _, ev := range tr.Events {
		seen[ev.Capacity] = true
	}
	levels := make([]int, 0, len(seen))
	for c := range seen {
		levels = append(levels, c)
	}
	sort.Ints(levels)
	return levels, nil
}

// AvailabilityTransitions generates one seed of a profile and returns the
// distinct consecutive capacity transitions (from → to) it forces, in first-
// occurrence order — the rescale operations a benchmark should measure to
// predict that profile's overhead on the real runtime.
func AvailabilityTransitions(p AvailabilityProfile, seed int64, base int, horizon float64) ([][2]int, error) {
	tr, err := p.Events(seed, base, horizon)
	if err != nil {
		return nil, err
	}
	var out [][2]int
	seen := map[[2]int]bool{}
	prev := base
	for _, ev := range tr.Events {
		pair := [2]int{prev, ev.Capacity}
		prev = ev.Capacity
		if pair[0] == pair[1] || seen[pair] {
			continue
		}
		seen[pair] = true
		out = append(out, pair)
	}
	return out, nil
}
