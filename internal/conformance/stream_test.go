package conformance

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// recordedSim records one logged sim run for the stream tests.
func recordedSim(t *testing.T, p core.Policy, mutate func(cfg *sim.Config)) *Stream {
	t.Helper()
	w, err := workload.Burst{Waves: 2, PerWave: 20, WaveGap: 1500}.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(p)
	cfg.LogDecisions = true
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := RecordSim(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStreamSaveLoadRoundTrip(t *testing.T) {
	st := recordedSim(t, core.Elastic, nil)
	if len(st.Decisions) == 0 {
		t.Fatal("logged run recorded no decisions")
	}
	if st.Summary == nil || st.Summary.JobsDigest == "" {
		t.Fatal("retained run carries no summary digest")
	}
	st.Label = "round-trip"
	st.Meta = map[string]string{"backend": "sim", "policy": "elastic"}

	path := filepath.Join(t.TempDir(), "stream.json")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("stream changed across save/load:\nsaved:  %+v\nloaded: %+v", st, got)
	}
	if d := Compare(st, got); !d.Empty() {
		t.Fatalf("differ reports divergence on a round-trip: %s", d.Format(st, got, 0))
	}
}

func TestStreamVersionValidation(t *testing.T) {
	st := recordedSim(t, core.Elastic, nil)
	for _, v := range []int{0, StreamVersion + 1} {
		st.Version = v
		var sb strings.Builder
		if err := st.Save(&sb); err == nil {
			t.Errorf("version %d: Save accepted", v)
		}
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("Load accepted a future stream version")
	}
	if _, err := Load(strings.NewReader(`{"version": 2, "members": [{"version": 2, "members": [{"version": 2}]}]}`)); err == nil {
		t.Error("Load accepted doubly-nested members")
	}
}

// TestStreamVersion1Rejected: a generation-1 stream logged every re-enqueue,
// so it cannot be diffed against an effects-only stream; decode refuses it and
// says what to do.
func TestStreamVersion1Rejected(t *testing.T) {
	st := recordedSim(t, core.Elastic, nil)
	var sb strings.Builder
	if err := st.Save(&sb); err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(sb.String(), `"version": 2`, `"version": 1`, 1)
	if v1 == sb.String() {
		t.Fatal("saved stream carries no version 2 marker to rewrite")
	}
	_, err := Load(strings.NewReader(v1))
	if err == nil {
		t.Fatal("Load accepted a version 1 stream")
	}
	if !strings.Contains(err.Error(), "re-record") {
		t.Errorf("version 1 rejection does not say to re-record: %v", err)
	}
}

// TestJobsDigestSensitivity: identical runs agree, different schedules
// disagree, streaming runs carry no digest.
func TestJobsDigestSensitivity(t *testing.T) {
	a := recordedSim(t, core.Elastic, nil)
	b := recordedSim(t, core.Elastic, nil)
	if a.Summary.JobsDigest != b.Summary.JobsDigest {
		t.Errorf("identical runs disagree: %s vs %s", a.Summary.JobsDigest, b.Summary.JobsDigest)
	}
	c := recordedSim(t, core.RigidMin, nil)
	if a.Summary.JobsDigest == c.Summary.JobsDigest {
		t.Error("different policies produced the same digest")
	}
	s := recordedSim(t, core.Elastic, func(cfg *sim.Config) { cfg.Streaming = true })
	if s.Summary.JobsDigest != "" {
		t.Errorf("streaming run carries digest %s", s.Summary.JobsDigest)
	}
	// Streaming-vs-retained comparison must succeed on the aggregates.
	if d := Compare(a, s); !d.Empty() {
		t.Errorf("streaming run diverges from retained aggregates: %s", d.Format(a, s, 0))
	}
}
