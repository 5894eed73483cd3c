package conformance

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
)

func TestSpecMetaRoundTrip(t *testing.T) {
	specs := []RunSpec{
		{},
		{Backend: "sim", Scenario: "burst", Jobs: 48, Gap: 3000, Waves: 3, Seed: 5,
			Policy: core.Elastic, Capacity: 32, Shards: 8, Streaming: true, Log: true,
			Availability: "failures", MTTF: 900},
		{Backend: "cluster", Scenario: "uniform", Jobs: 12, Gap: 90, Seed: 4,
			Policy: core.Moldable, Log: true},
		{Backend: "sim", Scenario: "burst", Jobs: 96, Gap: 1200, Waves: 6,
			Seed: 3, Policy: core.RigidMax, Capacity: 16, Route: federation.LeastLoaded,
			Clusters: 3, Skew: 1.5, RebalanceEvery: 300, MigrateRunning: true, Parallel: 1,
			Availability: "drain", Log: true},
		{Scenario: "trace", Trace: "wl.csv", Availability: "trace", AvailabilityTrace: "cap.csv"},
	}
	for _, s := range specs {
		got, err := SpecFromMeta(s.Meta())
		if err != nil {
			t.Errorf("spec %+v: %v", s, err)
			continue
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("meta round-trip changed the spec:\nin:  %+v\nout: %+v", s, got)
		}
	}
}

func TestSpecFromMetaRejectsUnknownKeys(t *testing.T) {
	if _, err := SpecFromMeta(map[string]string{"policy": "elastic", "warp": "9"}); err == nil {
		t.Error("unknown meta key accepted")
	}
	if _, err := SpecFromMeta(map[string]string{"policy": "turbo"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := SpecFromMeta(map[string]string{"jobs": "many"}); err == nil {
		t.Error("unparseable int accepted")
	}
}

// TestSeedZeroIsASeed: a spec's seed 0 runs seed 0, records it in the
// stream's Meta and in the conftest line that re-runs the stream. Resolving
// the unset knobs from the defaults used to turn it into seed 1, and Meta
// dropped it.
func TestSeedZeroIsASeed(t *testing.T) {
	spec := RunSpec{Backend: "sim", Scenario: "uniform", Jobs: 12, Log: true}
	zero, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 1
	one, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if zero.Meta["seed"] != "0" {
		t.Errorf("meta seed %q, want 0", zero.Meta["seed"])
	}
	if reflect.DeepEqual(zero.Decisions, one.Decisions) {
		t.Error("seed 0 made the decisions seed 1 makes")
	}
	if line := recordCommand(zero.Meta); !strings.Contains(line+" ", " -seed 0 ") {
		t.Errorf("re-run line %q does not name seed 0", line)
	}
}

// TestSpecReplayReproduces is the acceptance criterion behind
// `conftest -replay`: executing a spec, saving its stream, loading it back,
// reconstructing the spec from the stream's Meta, and executing again must
// reproduce the identical stream — decisions, migrations, and bit-exact
// summaries. The specs are the matrix's: one reference per kind of case, a
// sharded candidate, and the two generated scenarios no case runs.
func TestSpecReplayReproduces(t *testing.T) {
	refs := map[string]RunSpec{}
	var sharded RunSpec
	for _, c := range Cases(DefaultMatrixOptions()) {
		for _, r := range c.Refs {
			refs[r.Name] = r.Spec
		}
		if c.Name == "sim/moldable/seed7" {
			sharded = c.Refs[0].Spec
			for _, cand := range c.Candidates {
				if cand.Name == "shards2" {
					cand.Change(&sharded)
				}
			}
		}
	}
	uniform := refs["sim/elastic/seed1/uniform"]
	poisson, diurnal := uniform, uniform
	poisson.Scenario, poisson.Gap = "poisson", 0
	diurnal.Scenario, diurnal.Gap = "diurnal", 0
	specs := map[string]RunSpec{
		"sim":                  uniform,
		"sim-sharded":          sharded,
		"availability":         refs["sim/max_replicas/seed7/availability"],
		"failures":             refs["sim/elastic/seed1/failures"],
		"head-heavy":           refs["sim/min_replicas/seed1/head-heavy"],
		"streaming-scale":      refs["sim-streaming-scale/moldable"],
		"federation-rebalance": refs["federation/round_robin/elastic/rebalance"],
		"cluster":              refs["cluster/elastic"],
		"poisson":              poisson,
		"diurnal":              diurnal,
	}
	for name, spec := range specs {
		if spec.Backend == "" || (name == "sim-sharded" && spec.Shards != 2) {
			t.Fatalf("%s: no such spec in the matrix table", name)
		}
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			recorded, err := spec.Execute()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "stream.json")
			if err := recorded.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			replaySpec, err := SpecFromMeta(loaded.Meta)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := replaySpec.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if d := Compare(loaded, replayed); !d.Empty() {
				t.Fatalf("replay diverged from the recording:\n%s", d.Format(loaded, replayed, 0))
			}
		})
	}
}

// TestSpecValidation: bad specs fail loudly, naming what is wrong, instead of
// running the wrong scenario — or the default one, as a negative capacity or
// rescale gap did.
func TestSpecValidation(t *testing.T) {
	for names, spec := range map[string]RunSpec{
		"quantum":          {Backend: "quantum"},
		"tsunami":          {Scenario: "tsunami"},
		"by waves":         {Scenario: "burst", Jobs: 50, Waves: 3},
		"not divisible by": {Backend: "cluster", Capacity: 30},
		"-capacity":        {Capacity: -8},
		"-rescale-gap":     {RescaleGap: -5},
		"-clusters 2":      {Backend: "cluster", Clusters: 2},
		"-waves 3":         {Scenario: "uniform", Waves: 3},
		"size of its own":  {Scenario: "head-heavy", Gap: 30},
	} {
		if _, err := spec.Execute(); err == nil || !strings.Contains(err.Error(), names) {
			t.Errorf("%+v: error %v does not name %s", spec, err, names)
		}
	}
}
