package runspec

import (
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"elastichpc/internal/federation"
	"elastichpc/internal/workload"
)

// every is the vocabulary elasticsim binds; conformance's tests cover it
// with Engine.
const every = CLI

// TestMetaRoundTrip: the flag set is a lossless codec for the CLI groups too
// (conformance's tests cover them with Engine), keys spelled with
// underscores.
func TestMetaRoundTrip(t *testing.T) {
	s := Spec{Scenario: "trace", Trace: "wl.csv", Seed: 3, Jobs: 8, Availability: "failures",
		AvailabilityTrace: "cap.csv", MTTF: 900, MTTR: 0.5, PreemptSlots: 16, Shards: 4, Clusters: 3,
		Route: federation.LeastLoaded, Skew: 1.5, RebalanceEvery: 300, MigrateRunning: true, Parallel: 1,
		Backend: "cluster"}
	meta := s.Meta(every)
	if meta["availability_trace"] != "cap.csv" || meta["migrate_running"] != "true" || meta["clusters"] != "3" {
		t.Errorf("meta keys: %v", meta)
	}
	got, err := FromMeta(meta, every)
	if err != nil || !reflect.DeepEqual(s, got) {
		t.Errorf("round trip:\nin:  %+v\nout: %+v (%v)", s, got, err)
	}
	if _, err := FromMeta(map[string]string{"policy": "elastic"}, every); err == nil {
		t.Error("a key of another vocabulary was accepted")
	}
}

// TestOrFillsOnlyUnsetKnobs: a literal spec takes defaults for its zero
// knobs and keeps every value it states.
func TestOrFillsOnlyUnsetKnobs(t *testing.T) {
	got := Spec{Seed: 5, Scenario: "burst"}.Or(Default(), every)
	if want := (Spec{Seed: 5, Scenario: "burst", Jobs: 16, Clusters: 1, Backend: "sim"}); !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestCheckNamesFlagAndModes: a set flag the chosen mode does not read is
// rejected with the modes that do read it; a flag no mode lists is global. A
// positional argument the mode does not take is rejected by name, since flag
// parsing stops at it.
func TestCheckNamesFlagAndModes(t *testing.T) {
	modes := []Mode{
		{Name: "-sweep", Reads: Scenario, Also: []string{"seeds"}},
		{Name: "-run", Reads: Scenario | Seed},
		{Name: "-table1"},
		{Name: "-diff", Args: 2},
	}
	parse := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		new(Spec).Bind(fs, Scenario|Seed)
		fs.Int("seeds", 1, "")
		fs.String("json", "", "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	if err := Check(parse("-seed", "3", "-scenario", "burst", "-json", "x"), modes, 1); err != nil {
		t.Errorf("flags the mode reads, and a global one: %v", err)
	}
	err := Check(parse("-seed", "3"), modes, 0)
	if err == nil || !strings.Contains(err.Error(), "-seed applies to -run only, not to -sweep") {
		t.Errorf("-seed with -sweep: %v", err)
	}
	err = Check(parse("-scenario", "burst"), modes, 2)
	if err == nil || !strings.Contains(err.Error(), "-scenario applies to -sweep, -run only") {
		t.Errorf("-scenario with -table1: %v", err)
	}
	if got := Params(parse("-seed", "3", "-seeds", "0"), modes[1]); !reflect.DeepEqual(got, map[string]string{"seed": "3"}) {
		t.Errorf("params: %v", got)
	}
	err = Check(parse("-scenario", "burst", "extra", "-seed", "3"), modes, 1)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "extra"`) {
		t.Errorf("an argument before -seed: %v", err)
	}
	if err := Check(parse("a", "b"), modes, 3); err != nil {
		t.Errorf("the two arguments -diff takes: %v", err)
	}
	err = Check(parse("a", "b", "-json", "x"), modes, 3)
	if err == nil || !strings.Contains(err.Error(), `unexpected argument "-json"`) {
		t.Errorf("a flag after -diff's arguments: %v", err)
	}
	if err := Check(parse("a"), modes, 3); err == nil || !strings.Contains(err.Error(), "-diff takes 2 positional arguments, got 1") {
		t.Errorf("one argument to -diff: %v", err)
	}
}

// TestValidateDependencies: a knob that tunes something the run did not
// select is an error naming it.
func TestValidateDependencies(t *testing.T) {
	for names, s := range map[string]Spec{
		"-mttf":               {Clusters: 1, Scenario: "burst", MTTF: 900},
		"-preempt":            {Clusters: 1, Availability: "failures", PreemptSlots: 8},
		"-migrate-running":    {Clusters: 2, MigrateRunning: true},
		"-clusters":           {Clusters: 0},
		"-trace":              {Clusters: 1, Scenario: "burst", Trace: "wl.csv"},
		"divisible":           {Clusters: 1, Scenario: "burst", Jobs: 50, Waves: 3},
		"-shards -3":          {Clusters: 1, Scenario: "burst", Shards: -3},
		"-mttf -5":            {Clusters: 1, Availability: "failures", MTTF: -5},
		"-mttr NaN":           {Clusters: 1, Availability: "failures", MTTR: math.NaN()},
		"-preempt -4":         {Clusters: 1, Availability: "spot", PreemptSlots: -4},
		"-gap 1e+308":         {Clusters: 1, Scenario: "uniform", Gap: 1e308},
		"-rescale-gap 1e+300": {Clusters: 1, RescaleGap: 1e300},
		"-parallel -3":        {Clusters: 1, Parallel: -3},
		"-waves 4 needs":      {Clusters: 1, Scenario: "poisson", Jobs: 16, Waves: 4},
		"size of its own":     {Clusters: 1, Scenario: "tail-heavy", Jobs: 40},
		"tsunami":             {Clusters: 1, Scenario: "tsunami"},
		"-skew NaN":           {Clusters: 2, Skew: math.NaN()},
		"-skew +Inf":          {Clusters: 2, Skew: math.Inf(1)},
		"-rebalance -300":     {Clusters: 3, RebalanceEvery: -300},
		"-rebalance NaN":      {Clusters: 3, RebalanceEvery: math.NaN()},
		"-rebalance +Inf":     {Clusters: 3, RebalanceEvery: math.Inf(1)},
		"-trace x.json":       {Clusters: 1, Trace: "x.json"},
		"-trace wl":           {Clusters: 1, Trace: "wl"},
		"trace cap.JSON":      {Clusters: 1, AvailabilityTrace: "cap.JSON"}, // -availability-trace
		"-backend federation": {Clusters: 3, Backend: "federation"},
	} {
		s.Resolve()
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), names) {
			t.Errorf("%+v: error %v does not name %s", s, err, names)
		}
	}
	ok := Spec{Clusters: 1, Jobs: Default().Jobs, AvailabilityTrace: "cap.CSV", Trace: "wl.csv"}
	ok.Resolve()
	if err := ok.Validate(); err != nil || ok.Scenario != "trace" || ok.Availability != "trace" || ok.Backend != "sim" {
		t.Errorf("trace paths imply their names, and no backend the simulator: %+v (%v)", ok, err)
	}
}

// TestGeneratorSizesScenario: with no size set every scenario is its
// workload.DefaultScenarios entry — the run every CLI makes — and a set
// size replaces the default it names.
func TestGeneratorSizesScenario(t *testing.T) {
	for _, want := range workload.DefaultScenarios() {
		if got, err := (Spec{Scenario: want.Name()}).Generator(); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v (%v), want %+v", want.Name(), got, err, want)
		}
	}
	for _, c := range []struct {
		spec Spec
		want workload.Generator
	}{
		{Spec{Jobs: 60, Gap: 45}, workload.Uniform{Jobs: 60, Gap: 45}},
		{Spec{Scenario: "poisson", Jobs: 8}, workload.Poisson{Jobs: 8, MeanGap: 90}},
		{Spec{Scenario: "burst", Jobs: 120, Waves: 3, Gap: 4000}, workload.Burst{Waves: 3, PerWave: 40, WaveGap: 4000}},
		{Spec{Scenario: "burst", Jobs: 8}, workload.Burst{Waves: 4, PerWave: 2, WaveGap: 360}},
		{Spec{Scenario: "diurnal", Gap: 60}, workload.Diurnal{Jobs: 16, Period: 2880, PeakGap: 60, OffPeakGap: 600}},
		{Spec{Scenario: "head-heavy"}, workload.Phased{HeavyFirst: true}},
		{Spec{Scenario: "tail-heavy", Jobs: 16}, workload.Phased{}},
	} {
		if got, err := c.spec.Generator(); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%+v: %+v (%v), want %+v", c.spec, got, err, c.want)
		}
	}
	if _, err := (Spec{Scenario: "burst", Jobs: 10}).Generator(); err == nil || !strings.Contains(err.Error(), "divisible") {
		t.Errorf("10 jobs in the default 4 waves: %v", err)
	}
}
