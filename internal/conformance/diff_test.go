package conformance

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// cloneStream deep-copies the parts the mutation tests perturb.
func cloneStream(s *Stream) *Stream {
	c := *s
	c.Decisions = append([]Decision(nil), s.Decisions...)
	c.Migrations = append([]Migration(nil), s.Migrations...)
	if s.Summary != nil {
		sum := *s.Summary
		c.Summary = &sum
	}
	c.Members = make([]*Stream, len(s.Members))
	for i, m := range s.Members {
		c.Members[i] = cloneStream(m)
	}
	if len(s.Members) == 0 {
		c.Members = nil
	}
	return &c
}

// TestDifferPlantedFieldMutation plants a single-field change mid-stream
// and requires the differ to report exactly that index and field, with the
// divergence window rendering the surrounding decisions and the job ID.
func TestDifferPlantedFieldMutation(t *testing.T) {
	ref := recordedSim(t, core.Elastic, nil)
	if len(ref.Decisions) < 20 {
		t.Fatalf("scenario too small: %d decisions", len(ref.Decisions))
	}
	k := len(ref.Decisions) / 2
	mut := cloneStream(ref)
	mut.Decisions[k].Replicas++

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed the planted mutation")
	}
	m := d.Mismatches[0]
	if m.Section != SectionDecisions || m.Index != k {
		t.Fatalf("first mismatch at %s[%d], want decisions[%d]", m.Section, m.Index, k)
	}
	if !strings.HasSuffix(m.Detail, ": fields replicas differ") {
		t.Fatalf("detail %q, want only replicas named", m.Detail)
	}

	report := d.Format(ref, mut, 3)
	if !strings.Contains(report, ref.Decisions[k].JobID) {
		t.Errorf("report does not resolve the job ID %q:\n%s", ref.Decisions[k].JobID, report)
	}
	for _, want := range []string{"= [", "a [", "b ["} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q context lines:\n%s", want, report)
		}
	}
	// The context window must include the decision just before the
	// divergence.
	if !strings.Contains(report, renderDecision(ref.Decisions[k-1])) {
		t.Errorf("report missing pre-divergence context:\n%s", report)
	}
}

// TestDifferPlantedBehaviorMutation plants a real scheduler behaviour
// change — a 60 s rescale gap in place of 180 s — and requires the
// differ to find the exact first decision where the schedules part ways.
func TestDifferPlantedBehaviorMutation(t *testing.T) {
	ref := recordedSim(t, core.Elastic, nil)
	mut := recordedSim(t, core.Elastic, func(cfg *sim.Config) { cfg.RescaleGap = 60 })

	// Independently locate the first diverging decision.
	want := -1
	for i := range ref.Decisions {
		if i >= len(mut.Decisions) || decisionFields(ref.Decisions[i], mut.Decisions[i]) != nil {
			want = i
			break
		}
	}
	if want < 0 {
		t.Fatal("RescaleGap 60 produced an identical schedule; the mutation scenario lost its point")
	}

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed a real behaviour change")
	}
	m := d.Mismatches[0]
	if m.Section != SectionDecisions || m.Index != want {
		t.Fatalf("first mismatch at %s[%d], want decisions[%d]", m.Section, m.Index, want)
	}
	if report := d.Format(ref, mut, 0); !strings.Contains(report, "decisions[") {
		t.Errorf("report does not name the section:\n%s", report)
	}
}

// TestDifferLengthDivergence: a strict prefix is reported at the shorter
// stream's length with the "length" pseudo-field, and the window renders
// <end of stream> for the exhausted side.
func TestDifferLengthDivergence(t *testing.T) {
	ref := recordedSim(t, core.Elastic, nil)
	mut := cloneStream(ref)
	mut.Decisions = mut.Decisions[:len(mut.Decisions)-3]

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed the truncation")
	}
	m := d.Mismatches[0]
	if m.Index != len(mut.Decisions) || !strings.Contains(m.Detail, "lengths diverge") {
		t.Fatalf("mismatch %+v, want length divergence at %d", m, len(mut.Decisions))
	}
	if report := d.Format(ref, mut, 2); !strings.Contains(report, "<end of stream>") {
		t.Errorf("report missing end-of-stream marker:\n%s", report)
	}
}

// TestDifferResolvesMemberPath: a divergence inside a federation member is
// located by member index and labelled with the member's cluster name.
func TestDifferResolvesMemberPath(t *testing.T) {
	w, err := workload.Burst{Waves: 3, PerWave: 16, WaveGap: 1200}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.DefaultConfig(core.Elastic)
	base.Capacity = 16
	base.LogDecisions = true
	cfg := federation.Config{
		Members: federation.Uniform(base, 3),
		Route:   federation.RoundRobin,
		Workers: 1,
	}
	ref, err := RecordFederation(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Members) != 3 || len(ref.Members[1].Decisions) == 0 {
		t.Fatal("fleet stream lacks member decision logs")
	}
	mut := cloneStream(ref)
	mut.Members[1].Decisions[0].Kind = core.DecisionShrink

	d := Compare(ref, mut)
	if d.Empty() {
		t.Fatal("differ missed the member mutation")
	}
	m := d.Mismatches[0]
	if len(m.Member) != 1 || m.Member[0] != 1 || m.Section != SectionDecisions || m.Index != 0 {
		t.Fatalf("mismatch %+v, want member 1 decisions[0]", m)
	}
	report := d.Format(ref, mut, 2)
	if !strings.Contains(report, "member 1 decisions[0]") {
		t.Errorf("report does not locate the member:\n%s", report)
	}
	if !strings.Contains(report, "cluster1") {
		t.Errorf("report does not resolve the cluster label:\n%s", report)
	}
}

// TestDifferMigrationAndSummaryMutations: divergences outside the decision
// log are reported in their own sections.
func TestDifferMigrationAndSummaryMutations(t *testing.T) {
	ref := &Stream{
		Version:    StreamVersion,
		Migrations: []Migration{{Round: 1, At: 300, JobID: "p1", From: 0, To: 2}},
		Summary:    &Summary{Policy: "elastic", Utilization: 0.8},
	}
	mut := cloneStream(ref)
	mut.Migrations[0].To = 1
	mut.Summary.Utilization = 0.9

	d := Compare(ref, mut)
	if len(d.Mismatches) != 2 {
		t.Fatalf("want 2 mismatches, got %+v", d.Mismatches)
	}
	if m := d.Mismatches[0]; m.Section != SectionMigrations || m.Index != 0 ||
		!strings.Contains(m.Detail, "a: "+renderMigration(ref.Migrations[0])) || !strings.Contains(m.Detail, "b: "+renderMigration(mut.Migrations[0])) {
		t.Errorf("migration mismatch %+v", m)
	}
	if m := d.Mismatches[1]; m.Section != SectionSummary || m.Detail != "summary fields differ: utilization" {
		t.Errorf("summary mismatch %+v", m)
	}
	if d2 := Compare(ref, ref); !d2.Empty() {
		t.Errorf("self-compare not empty: %+v", d2.Mismatches)
	}
}

// TestSummariesCarryEveryMetric: every field of sim.Metrics, each filled
// with a value no other field holds, arrives in the Summary field of the
// same name through both SummaryOf and FleetSummaryOf.
func TestSummariesCarryEveryMetric(t *testing.T) {
	var m sim.Metrics
	mv := reflect.ValueOf(&m).Elem()
	for i := range mv.NumField() {
		switch f := mv.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("sim.Metrics.%s is a %v: give it a distinct value", mv.Type().Field(i).Name, f.Kind())
		}
	}
	for conv, s := range map[string]*Summary{
		"SummaryOf":      SummaryOf(sim.Result{Metrics: m}),
		"FleetSummaryOf": FleetSummaryOf(federation.Result{Metrics: m}),
	} {
		sv := reflect.ValueOf(*s)
		for i := range mv.NumField() {
			name := mv.Type().Field(i).Name
			f := sv.FieldByName(name)
			if !f.IsValid() {
				t.Errorf("Summary has no field %s", name)
				continue
			}
			var want, got any = mv.Field(i).Interface(), f.Interface()
			if p, ok := want.(core.Policy); ok {
				want = p.String()
			}
			if got != want {
				t.Errorf("%s: Summary.%s = %v, want %v", conv, name, got, want)
			}
		}
	}
}

// TestSummaryFieldsNameEveryField: a Summary differing from another in any
// one field alone makes summaryFields name that field, by its JSON name.
// jobs and jobs_digest count only when both sides carry a digest: a
// streaming run retains no job records.
func TestSummaryFieldsNameEveryField(t *testing.T) {
	base := func() Summary {
		var s Summary
		v := reflect.ValueOf(&s).Elem()
		for i := range v.NumField() {
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				f.SetString(fmt.Sprintf("s%d", i))
			case reflect.Int:
				f.SetInt(int64(i + 1))
			case reflect.Float64:
				f.SetFloat(float64(i) + 1.5)
			case reflect.Slice:
				f.Set(reflect.ValueOf([]int{i + 1, i + 2}))
			default:
				t.Fatalf("Summary.%s is a %v: give it a value", v.Type().Field(i).Name, f.Kind())
			}
		}
		return s
	}
	a := base()
	if got := summaryFields(&a, &a); got != nil {
		t.Fatalf("a summary differs from itself in %v", got)
	}
	typ := reflect.TypeOf(a)
	for i := range typ.NumField() {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		b := base()
		switch f := reflect.ValueOf(&b).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Slice:
			f.Index(1).SetInt(f.Index(1).Int() + 1)
		}
		if got := summaryFields(&a, &b); !slices.Equal(got, []string{name}) {
			t.Errorf("%s alone differs: summaryFields = %v, want [%s]", typ.Field(i).Name, got, name)
		}
		if name == "jobs" || name == "jobs_digest" {
			noDigest := a
			noDigest.JobsDigest = ""
			if got := summaryFields(&noDigest, &b); got != nil {
				t.Errorf("%s differs against a side with no digest: summaryFields = %v, want none", name, got)
			}
		}
	}
}
