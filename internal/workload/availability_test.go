package workload

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

func TestAvailabilityProfilesDeterministic(t *testing.T) {
	for _, p := range DefaultAvailabilityProfiles() {
		a, err := p.Events(42, 64, 7200)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		b, err := p.Events(42, 64, 7200)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", p.Name())
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: generated invalid trace: %v", p.Name(), err)
		}
	}
}

func TestAvailabilityProfilesValidate(t *testing.T) {
	bad := []AvailabilityProfile{
		FailureRepair{Nodes: 0, MTTF: 100, MTTR: 100},
		FailureRepair{Nodes: 4, MTTF: -1, MTTR: 100},
		SpotPreemption{MeanGap: 0, Slots: 8, MeanOutage: 100},
		SpotPreemption{MeanGap: 100, Slots: 0, MeanOutage: 100},
		MaintenanceDrain{Every: 0, Duration: 100, Keep: 8},
		MaintenanceDrain{Every: 100, Duration: 100, Keep: 0},
		DiurnalCapacity{Period: 0, Floor: 0.5, Step: 60},
		DiurnalCapacity{Period: 100, Floor: 0, Step: 60},
		AvailabilityTraceFile{},
	}
	for i, p := range bad {
		if _, err := p.Events(1, 64, 3600); err == nil {
			t.Errorf("profile %d (%T) accepted bad parameters", i, p)
		}
	}
}

func TestAvailabilityTraceValidate(t *testing.T) {
	cases := []AvailabilityTrace{
		{Events: []CapacityEvent{{At: -1, Capacity: 4}}},
		{Events: []CapacityEvent{{At: 100, Capacity: 4}, {At: 50, Capacity: 8}}},
		{Events: []CapacityEvent{{At: 10, Capacity: 0}}},
		{Events: []CapacityEvent{{At: 1e12, Capacity: 4}}},
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid trace %+v", i, tr)
		}
	}
	good := AvailabilityTrace{Events: []CapacityEvent{{At: 0, Capacity: 1}, {At: 0, Capacity: 64}}}
	if err := good.Validate(); err != nil {
		t.Errorf("rejected valid trace: %v", err)
	}
}

func TestAvailabilityTraceHelpers(t *testing.T) {
	tr := AvailabilityTrace{Events: []CapacityEvent{
		{At: 100, Capacity: 32},
		{At: 200, Capacity: 96},
		{At: 300, Capacity: 48},
	}}
	if got := tr.MaxCapacity(64); got != 96 {
		t.Errorf("MaxCapacity = %d, want 96", got)
	}
	for _, tc := range []struct {
		at   float64
		want int
	}{{0, 64}, {99, 64}, {100, 32}, {250, 96}, {300, 48}, {1e9, 48}} {
		if got := tr.CapacityAt(64, tc.at); got != tc.want {
			t.Errorf("CapacityAt(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}

	restored := tr.WithRestore(64, 500)
	if n := len(restored.Events); n != 4 || restored.Events[3] != (CapacityEvent{At: 500, Capacity: 64}) {
		t.Errorf("WithRestore = %+v", restored.Events)
	}
	if len(tr.Events) != 3 {
		t.Error("WithRestore mutated the receiver")
	}
	// Already at (or above) base: no event appended.
	if again := restored.WithRestore(64, 600); len(again.Events) != 4 {
		t.Errorf("WithRestore on restored trace appended: %+v", again.Events)
	}
	// Restore point before the last event slides just past it.
	early := tr.WithRestore(64, 10)
	if early.Events[3].At < 300 {
		t.Errorf("WithRestore slid to %v, want >= 300", early.Events[3].At)
	}
}

func TestDeltasMergeOverlappingOutages(t *testing.T) {
	// Two spot reclaims overlap; capacity must reflect the sum while both
	// are out and clamp at 1 rather than going non-positive.
	p := SpotPreemption{MeanGap: 10, Slots: 48, MeanOutage: 10000}
	tr, err := p.Events(1, 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("overlapping outages produced invalid trace: %v", err)
	}
	last := tr.Events[len(tr.Events)-1].Capacity
	if last != 1 {
		t.Errorf("deep overlapping outages ended at capacity %d, want clamp at 1", last)
	}
}

func TestFailureRepairUnevenNodeSlots(t *testing.T) {
	// 5 nodes over 64 slots: 13,13,13,13,12 — losing all must clamp at 1,
	// and every repair must restore exactly what its failure took.
	p := FailureRepair{Nodes: 5, MTTF: 50, MTTR: 50}
	tr, err := p.Events(9, 64, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("short MTTF produced no events")
	}
	if max := tr.MaxCapacity(64); max != 64 {
		t.Errorf("repairs overshot base capacity: max %d", max)
	}
}

func TestDrainAndTidesDeterministicShape(t *testing.T) {
	dr, err := MaintenanceDrain{Every: 1000, Duration: 200, Keep: 16}.Events(7, 64, 2500)
	if err != nil {
		t.Fatal(err)
	}
	want := []CapacityEvent{
		{At: 1000, Capacity: 16}, {At: 1200, Capacity: 64},
		{At: 2000, Capacity: 16}, {At: 2200, Capacity: 64},
	}
	if !reflect.DeepEqual(dr.Events, want) {
		t.Errorf("drain events = %+v, want %+v", dr.Events, want)
	}

	td, err := DiurnalCapacity{Period: 1200, Floor: 0.5, Step: 100}.Events(7, 64, 2400)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Events) == 0 {
		t.Fatal("tides produced no events")
	}
	lo, hi := 64, 0
	for _, ev := range td.Events {
		if ev.Capacity < lo {
			lo = ev.Capacity
		}
		if ev.Capacity > hi {
			hi = ev.Capacity
		}
	}
	if lo < 32 || hi > 64 {
		t.Errorf("tides range [%d,%d], want within [32,64]", lo, hi)
	}
}

func TestAvailabilitySaveLoadRoundTrip(t *testing.T) {
	src, err := SpotPreemption{MeanGap: 300, Slots: 16, MeanOutage: 200}.Events(4, 64, 3600)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saveAvailabilityCSV(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := loadAvailabilityCSVReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, back) {
		t.Errorf("round trip diverged:\nsaved:  %+v\nloaded: %+v", src, back)
	}
}

func TestAvailabilityFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	src := AvailabilityTrace{Events: []CapacityEvent{{At: 10, Capacity: 32}, {At: 20, Capacity: 64}}}
	if err := SaveAvailabilityFile(path, src, ""); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAvailabilityFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, back) {
		t.Error("round trip diverged")
	}
	// The trace-file profile replays what was saved.
	viaProfile, err := AvailabilityTraceFile{Path: path}.Events(99, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, viaProfile) {
		t.Error("profile replay diverged")
	}
}

func TestLoadAvailabilityValidates(t *testing.T) {
	const header = "at,capacity\n"
	cases := map[string]string{
		"no rows":         header,
		"negative at":     header + "-5,4\n",
		"zero capacity":   header + "5,0\n",
		"trailing data":   header + "0,4\ngarbage\n",
		"second document": header + "0,4\n" + header + "10,8\n",
	}
	for name, doc := range cases {
		if _, err := loadAvailabilityCSV(doc); err == nil {
			t.Errorf("%s: accepted invalid document", name)
		}
	}
	// Out-of-order events are sorted on load, mirroring the job-trace
	// loader.
	tr, err := loadAvailabilityCSV(header + "50,8\n10,4\n")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].At != 10 || tr.Events[1].At != 50 {
		t.Errorf("events not sorted: %+v", tr.Events)
	}
}

func TestAvailabilityScenarioLookup(t *testing.T) {
	for _, name := range []string{"failures", "spot", "drain", "tides"} {
		p, err := AvailabilityScenario(name, AvailabilityOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("resolved %q to %q", name, p.Name())
		}
	}
	if _, err := AvailabilityScenario("nope", AvailabilityOptions{}); err == nil {
		t.Error("accepted unknown scenario")
	}
	if _, err := AvailabilityScenario("trace", AvailabilityOptions{}); err == nil {
		t.Error("accepted trace scenario without a path")
	}

	// Options rewire the built-in parameters.
	p, err := AvailabilityScenario("failures", AvailabilityOptions{MTTF: 123, MTTR: 45})
	if err != nil {
		t.Fatal(err)
	}
	fr := p.(FailureRepair)
	if fr.MTTF != 123 || fr.MTTR != 45 {
		t.Errorf("options not applied: %+v", fr)
	}
	p, err = AvailabilityScenario("spot", AvailabilityOptions{PreemptSlots: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sp := p.(SpotPreemption); sp.Slots != 7 {
		t.Errorf("preempt slots not applied: %+v", sp)
	}
}

func TestAvailabilityLevelsAndTransitions(t *testing.T) {
	p := MaintenanceDrain{Every: 500, Duration: 100, Keep: 16}
	levels, err := AvailabilityLevels(p, 1, 64, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(levels, []int{16, 64}) {
		t.Errorf("levels = %v, want [16 64]", levels)
	}
	trans, err := AvailabilityTransitions(p, 1, 64, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trans, [][2]int{{64, 16}, {16, 64}}) {
		t.Errorf("transitions = %v", trans)
	}
}

func TestReplayAvailabilityIsolatesCaller(t *testing.T) {
	src := AvailabilityTrace{Events: []CapacityEvent{{At: 1, Capacity: 8}}}
	p := ReplayAvailability("custom", src)
	src.Events[0].Capacity = 99
	got, err := p.Events(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[0].Capacity != 8 {
		t.Error("ReplayAvailability aliased the caller's trace")
	}
	got.Events[0].Capacity = 77
	again, _ := p.Events(0, 0, 0)
	if again.Events[0].Capacity != 8 {
		t.Error("profile output aliases shared state")
	}
}
