package conformance

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
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

// TestStreamRejectsDecisionKinds: a decision kind the scheduler cannot emit
// loads from no document and saves to none. The decoder refuses an unknown
// label or a number; Validate, which Load and Save both call, refuses the
// zero kind a missing or null "kind" leaves, and any value outside the eight,
// naming the member and the decision. Save then writes nothing.
func TestStreamRejectsDecisionKinds(t *testing.T) {
	const ok = `{"at_ns": 1, "kind": "start", "job": "a", "replicas": 2, "free": 6}`
	doc := func(bad string) string {
		return `{"version": 2, "decisions": [` + ok + `, {"at_ns": 2, ` + bad + `"job": "b", "replicas": 0, "free": 6}]}`
	}
	inMemory := func(member bool, kind core.DecisionKind) *Stream {
		st := &Stream{Version: StreamVersion, Decisions: []Decision{{Kind: core.DecisionStart}, {Kind: kind}}}
		if member {
			return &Stream{Version: StreamVersion, Members: []*Stream{{}, st}}
		}
		return st
	}
	for _, c := range []struct {
		name string
		doc  string  // loaded, when set
		st   *Stream // saved, otherwise
		want string
	}{
		{name: "unknown label", doc: doc(`"kind": "bogus", `), want: `unknown decision kind "bogus"`},
		{name: "null", doc: doc(`"kind": null, `), want: "decision 1 has no kind"},
		{name: "missing", doc: doc(``), want: "decision 1 has no kind"},
		{name: "numeric", doc: doc(`"kind": 1, `), want: "cannot unmarshal number"},
		{name: "member missing", doc: `{"version": 2, "members": [{"version": 2}, {"version": 2, "decisions": [` + ok + `, {"at_ns": 2}]}]}`,
			want: "member 1 decision 1 has no kind"},
		{name: "zero kind", st: inMemory(false, 0), want: "decision 1 has no kind"},
		{name: "past the eight", st: inMemory(false, core.DecisionWithdraw+1), want: "decision 1: kind 9 is not one"},
		{name: "negative", st: inMemory(false, -1), want: "decision 1: kind -1 is not one"},
		{name: "member out of range", st: inMemory(true, 42), want: "member 1 decision 1: kind 42 is not one"},
	} {
		var err error
		if c.doc != "" {
			_, err = Load(strings.NewReader(c.doc))
		} else {
			var sb strings.Builder
			err = c.st.Save(&sb)
			if sb.Len() != 0 {
				t.Errorf("%s: Save wrote %d bytes before refusing", c.name, sb.Len())
			}
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestStreamRejectsSlotCountsPastInt32: a decision's replicas and free
// pool are int32, so a count outside it fails to load instead of wrapping
// into some other count; the bounds themselves load as written.
func TestStreamRejectsSlotCountsPastInt32(t *testing.T) {
	doc := func(replicas, free string) string {
		return `{"version": 2, "decisions": [{"at_ns": 1, "kind": "capacity", "replicas": ` + replicas + `, "free": ` + free + `}]}`
	}
	for _, c := range []struct{ replicas, free string }{
		{"2147483648", "0"},
		{"4294967298", "0"},
		{"8", "2147483648"},
		{"8", "-2147483649"},
	} {
		if st, err := Load(strings.NewReader(doc(c.replicas, c.free))); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("replicas %s free %s: loaded %+v (%v), want an int32 overflow refused", c.replicas, c.free, st, err)
		}
	}
	st, err := Load(strings.NewReader(doc("2147483647", "-2147483648")))
	if err != nil || len(st.Decisions) != 1 || st.Decisions[0].Replicas != math.MaxInt32 || st.Decisions[0].FreeSlots != math.MinInt32 {
		t.Errorf("the int32 bounds: %+v (%v)", st, err)
	}
}

// TestFromDecisionsIsTheLog: a stream's decisions are the log they come
// from, not a copy — capped, so an append to the stream cannot write into
// the scheduler's ring — and an empty log is an absent field.
func TestFromDecisionsIsTheLog(t *testing.T) {
	w, err := workload.Burst{Waves: 2, PerWave: 20, WaveGap: 1500}.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(core.Elastic)
	cfg.LogDecisions = true
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(w); err != nil {
		t.Fatal(err)
	}
	log := s.Decisions()
	ds := FromDecisions(log)
	if len(ds) == 0 || &ds[0] != &log[0] || len(ds) != len(log) || cap(ds) != len(ds) {
		t.Fatalf("FromDecisions of a %d-entry log gave len %d cap %d, not the log itself capped", len(log), len(ds), cap(ds))
	}
	if allocs := testing.AllocsPerRun(100, func() { ds = FromDecisions(log) }); allocs != 0 {
		t.Errorf("FromDecisions allocates %.0f times, want 0", allocs)
	}
	if FromDecisions(nil) != nil || FromDecisions(log[:0]) != nil {
		t.Error("an empty log is not a nil stream field")
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

// TestMigratedRecordsPinned pins the retained per-job records of a rebalanced
// fleet whose members inject and withdraw jobs — the collection path the batch
// path's workload indices cannot place. Member 2 drains to 6 slots twice, so
// the rebalancer moves waiting jobs off it and checkpoint-preempts running
// ones. The digests were recorded before the simulator's retained mode
// started recycling job slots; every workload job must also complete on
// exactly one member.
func TestMigratedRecordsPinned(t *testing.T) {
	w, err := workload.Poisson{Jobs: 240, MeanGap: 45}.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	members := federation.Skewed(sim.DefaultConfig(core.Elastic), 3, -0.25)
	members[2].Availability = workload.AvailabilityTrace{Events: []workload.CapacityEvent{
		{At: 1500, Capacity: 6}, {At: 4500, Capacity: members[2].Capacity},
		{At: 7000, Capacity: 6}, {At: 9000, Capacity: members[2].Capacity},
	}}
	res, err := federation.Run(federation.Config{
		Members:   members,
		Route:     federation.RoundRobin,
		Workers:   1,
		Rebalance: federation.RebalanceConfig{Every: 300, MigrateRunning: true},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := 0
	for _, m := range res.Migrations {
		if m.Checkpointed {
			ckpt++
		}
	}
	if ckpt == 0 || ckpt == len(res.Migrations) {
		t.Fatalf("%d migrations, %d checkpointed: the fleet no longer moves both waiting and checkpointed jobs", len(res.Migrations), ckpt)
	}
	want := []string{"fnv64a:95c9a2d1bca02576", "fnv64a:19708fb563cbffff", "fnv64a:153de332177f3563"}
	seen := make(map[string]int, len(w.Jobs))
	for i, m := range res.Members {
		if got := SummaryOf(m).JobsDigest; got != want[i] {
			t.Errorf("member %d: jobs_digest %s, recorded %s", i, got, want[i])
		}
		for _, j := range m.Jobs {
			seen[j.ID]++
		}
	}
	for _, j := range w.Jobs {
		if seen[j.ID] != 1 {
			t.Errorf("job %s completed on %d members", j.ID, seen[j.ID])
		}
	}
	if len(seen) != len(w.Jobs) {
		t.Errorf("members report %d distinct jobs, the workload has %d", len(seen), len(w.Jobs))
	}
	t.Logf("%d migrations (%d checkpointed), jobs per member %v", len(res.Migrations), ckpt, res.JobsPerMember)
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
