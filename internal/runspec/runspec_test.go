package runspec

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"elastichpc/internal/federation"
)

// every is the selection vocabulary the harness CLIs bind; Engine's groups
// reuse some of its flag names (-preempt, for one) and are bound apart.
const every = Scenario | Seed | Jobs | Availability | Shards | Fleet | Skew | Rebalance | Parallel

// TestMetaRoundTrip: the flag set is a lossless codec for the selection
// vocabulary too (conformance's tests cover the engine one), keys spelled
// with underscores.
func TestMetaRoundTrip(t *testing.T) {
	s := Spec{Scenario: "trace", Trace: "wl.csv", Seed: 3, Jobs: 8, Availability: "failures",
		AvailabilityTrace: "cap.csv", MTTF: 900, MTTR: 0.5, PreemptSlots: 16, Shards: 4, Members: 3,
		Route: federation.LeastLoaded, Skew: 1.5, RebalanceEvery: 300, MigrateRunning: true, Workers: 1}
	meta := s.Meta(every)
	if meta["availability_trace"] != "cap.csv" || meta["migrate_running"] != "true" || meta["clusters"] != "3" {
		t.Errorf("meta keys: %v", meta)
	}
	got, err := FromMeta(meta, every)
	if err != nil || !reflect.DeepEqual(s, got) {
		t.Errorf("round trip:\nin:  %+v\nout: %+v (%v)", s, got, err)
	}
	if _, err := FromMeta(map[string]string{"backend": "sim"}, every); err == nil {
		t.Error("a key of another vocabulary was accepted")
	}
}

// TestOrFillsOnlyUnsetKnobs: a literal spec takes defaults for its zero
// knobs and keeps every value it states.
func TestOrFillsOnlyUnsetKnobs(t *testing.T) {
	got := Spec{Seed: 5, Scenario: "burst"}.Or(Default(), every)
	if want := (Spec{Seed: 5, Scenario: "burst", Jobs: 16, Members: 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestCheckNamesFlagAndModes: a set flag the chosen mode does not read is
// rejected with the modes that do read it; a flag no mode lists is global.
func TestCheckNamesFlagAndModes(t *testing.T) {
	modes := []Mode{
		{Name: "-sweep", Reads: Scenario, Also: []string{"seeds"}},
		{Name: "-run", Reads: Scenario | Seed},
		{Name: "-table1"},
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
}

// TestValidateDependencies: a knob that tunes something the run did not
// select is an error naming it.
func TestValidateDependencies(t *testing.T) {
	for names, s := range map[string]Spec{
		"-mttf":            {Members: 1, Scenario: "burst", MTTF: 900},
		"-preempt":         {Members: 1, Availability: "failures", PreemptSlots: 8},
		"-migrate-running": {Members: 2, MigrateRunning: true},
		"-clusters":        {Members: 0},
		"-trace":           {Members: 1, Scenario: "burst", Trace: "wl.csv"},
		"divisible":        {Members: 1, Scenario: "burst", Jobs: 50, Waves: 3},
		"-shards -3":       {Members: 1, Scenario: "burst", Shards: -3},
	} {
		s.Resolve()
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), names) {
			t.Errorf("%+v: error %v does not name %s", s, err, names)
		}
	}
	ok := Spec{Members: 1, AvailabilityTrace: "cap.csv", Trace: "wl.csv"}
	ok.Resolve()
	if err := ok.Validate(); err != nil || ok.Scenario != "trace" || ok.Availability != "trace" {
		t.Errorf("trace paths imply their names: %+v (%v)", ok, err)
	}
}
