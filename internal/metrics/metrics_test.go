package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenReport is a fully populated current-schema report; the golden file
// pins its JSON encoding so accidental schema drift fails loudly.
func goldenReport() Report {
	r := New("elasticsim", KindSweep)
	r.Params = map[string]string{"seeds": "2", "rescale_gap": "180"}
	r.Runs = []Run{
		{Name: "federation", Policy: "elastic", Jobs: 32, TotalTime: 1500, Utilization: 0.7,
			WeightedResponse: 90, WeightedCompletion: 500,
			Route: "least_loaded", Imbalance: 0.05,
			Migrations: 4, RebalanceRounds: 7,
			Members: []Run{
				{Name: "cluster0", Policy: "elastic", Jobs: 20, TotalTime: 1500, Utilization: 0.72,
					WeightedResponse: 95, WeightedCompletion: 520},
				{Name: "cluster1", Policy: "elastic", Jobs: 12, TotalTime: 1400, Utilization: 0.68,
					WeightedResponse: 80, WeightedCompletion: 470},
			}},
	}
	r.Sweeps = []Sweep{
		{
			Name: "submission_gap",
			X:    "submission gap (s)",
			Points: []Point{
				{
					X: 90,
					Runs: []Run{
						{Policy: "elastic", Seeds: 2, TotalTime: 2012.5, Utilization: 0.8125,
							WeightedResponse: 101.25, WeightedCompletion: 612.5,
							CapacityEvents: 3, PreemptsSurvived: 2, Requeued: 1,
							WorkLostSec: 84.5, Goodput: 0.9625},
						{Policy: "moldable", Seeds: 2, TotalTime: 2400, Utilization: 0.75,
							WeightedResponse: 180, WeightedCompletion: 700},
					},
				},
				{
					X:     0,
					Label: "burst",
					Runs: []Run{
						{Name: "burst", Policy: "min_replicas", Seeds: 2, Jobs: 16,
							TotalTime: 3000, Utilization: 0.5, WeightedResponse: 400, WeightedCompletion: 900},
					},
				},
			},
		},
	}
	r.Benchmarks = []Benchmark{
		{Name: "BenchmarkSimMillionJobs", Iterations: 1, NsPerOp: 1.35e10,
			Custom: map[string]float64{"jobs/s": 74265}},
	}
	return r
}

func TestGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "report_v4.golden.json")
	r := goldenReport()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if string(data) != string(want) {
		t.Errorf("encoding drifted from golden file:\ngot:\n%s\nwant:\n%s", data, want)
	}
	// Round trip: the golden bytes decode back to the identical value.
	var back Report
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Errorf("round trip mismatch:\ngot %+v\nwant %+v", back, r)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("golden report invalid: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	r := goldenReport()
	if err := Write(path, r); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Errorf("Write/Read round trip mismatch")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []Report{
		{Schema: SchemaVersion + 1, Kind: KindRun, Runs: []Run{{Policy: "elastic"}}},
		{Schema: SchemaVersion - 1, Kind: KindRun, Runs: []Run{{Policy: "elastic"}}},
		{Schema: SchemaVersion, Kind: "mystery"},
		{Schema: SchemaVersion, Kind: KindRun},
		{Schema: SchemaVersion, Kind: KindSweep},
		{Schema: SchemaVersion, Kind: KindBench},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid report accepted: %+v", i, r)
		}
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99, "kind": "run", "runs": [{"policy": "elastic"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Error("accepted a schema-99 report")
	}
}

func TestFromResultAndSweepConverters(t *testing.T) {
	w := workload.MustUniform(8, 90, 1)
	res, err := sim.Run(sim.DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	run := FromResult("uniform", res)
	if run.Policy != "elastic" || run.Jobs != 8 || run.TotalTime != res.TotalTime ||
		run.Utilization != res.Utilization {
		t.Errorf("FromResult mismatch: %+v vs %+v", run, res)
	}

	pts, err := sim.SweepGrid([]float64{0, 150}, 2, 0, func(gap float64, p core.Policy, seed int64) (sim.Metrics, error) {
		w, err := workload.Uniform{Jobs: 8, Gap: gap}.Generate(seed)
		if err != nil {
			return sim.Metrics{}, err
		}
		res, err := sim.Run(sim.DefaultConfig(p), w)
		return res.Metrics, err
	}, (*sim.AverageResult).Accumulate)
	if err != nil {
		t.Fatal(err)
	}
	sw := FromSweep("submission_gap", "submission gap (s)", pts)
	if len(sw.Points) != 2 {
		t.Fatalf("%d points", len(sw.Points))
	}
	for _, p := range sw.Points {
		if len(p.Runs) != 4 {
			t.Errorf("point x=%g has %d policies", p.X, len(p.Runs))
		}
		// Policy order is the paper's presentation order.
		for i, pol := range core.AllPolicies() {
			if p.Runs[i].Policy != pol.String() {
				t.Errorf("point x=%g run %d policy %q, want %q", p.X, i, p.Runs[i].Policy, pol)
			}
			if p.Runs[i].Seeds != 2 {
				t.Errorf("seeds = %d", p.Runs[i].Seeds)
			}
		}
	}

	gens := []workload.Generator{
		workload.Uniform{Jobs: 8, Gap: 90},
		workload.Burst{Waves: 2, PerWave: 4, WaveGap: 360},
	}
	srs, err := sim.ScenarioSweep(gens, 2, 180, 1)
	if err != nil {
		t.Fatal(err)
	}
	ssw := FromSweep("scenario", "scenario index", srs)
	if len(ssw.Points) != len(srs) {
		t.Fatalf("%d scenario points", len(ssw.Points))
	}
	for i, p := range ssw.Points {
		if p.Label != gens[i].Name() || p.X != float64(i) || len(p.Runs) != 4 {
			t.Errorf("scenario point %d: %+v", i, p)
		}
		for _, r := range p.Runs {
			if r.Name != p.Label {
				t.Errorf("scenario point %d: run named %q, want its label %q", i, r.Name, p.Label)
			}
		}
	}
}

// TestClusterReportGolden extends the golden coverage to the cluster
// emulation backend: a fixed small workload through cluster.RunExperiment
// must serialize to byte-identical JSON every run — the regression guard for
// the Result() map-ordering bug (Jobs used to come out in map iteration
// order, so -json reports never diffed clean). Times are rounded to
// microseconds so the pin survives float-ulp differences across
// architectures while still catching any reordering or metric drift.
func TestClusterReportGolden(t *testing.T) {
	golden := filepath.Join("testdata", "cluster_run.golden.json")
	w := workload.MustUniform(6, 90, 4)
	res, err := cluster.RunExperiment(cluster.DefaultConfig(core.Elastic), w)
	if err != nil {
		t.Fatal(err)
	}
	round := func(x float64) float64 { return math.Round(x*1e6) / 1e6 }
	type jobRow struct {
		ID       string  `json:"id"`
		Priority int     `json:"priority"`
		Replicas int     `json:"replicas"`
		SubmitAt float64 `json:"submit_at_s"`
		StartAt  float64 `json:"start_at_s"`
		EndAt    float64 `json:"end_at_s"`
		Rescales int     `json:"rescales"`
	}
	doc := struct {
		Run  Run      `json:"run"`
		Jobs []jobRow `json:"jobs"`
	}{Run: FromResult("cluster", res)}
	doc.Run.TotalTime = round(doc.Run.TotalTime)
	doc.Run.Utilization = round(doc.Run.Utilization)
	doc.Run.WeightedResponse = round(doc.Run.WeightedResponse)
	doc.Run.WeightedCompletion = round(doc.Run.WeightedCompletion)
	doc.Run.Goodput = round(doc.Run.Goodput)
	for _, j := range res.Jobs {
		doc.Jobs = append(doc.Jobs, jobRow{
			ID: j.ID, Priority: j.Priority, Replicas: j.Replicas,
			SubmitAt: round(j.SubmitAt), StartAt: round(j.StartAt), EndAt: round(j.EndAt),
			Rescales: j.Rescales,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if string(data) != string(want) {
		t.Errorf("cluster-backend report drifted from golden:\ngot:\n%s\nwant:\n%s", data, want)
	}
}

// TestFromFederationConverter checks the fleet/member mapping.
func TestFromFederationConverter(t *testing.T) {
	w := workload.MustUniform(12, 60, 2)
	res, err := federation.Run(federation.Config{
		Members: federation.Uniform(sim.DefaultConfig(core.Elastic), 3),
		Route:   federation.RoundRobin,
		Workers: 1,
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	run := FromFederation("fed", res)
	if run.Route != "round_robin" || len(run.Members) != 3 {
		t.Fatalf("converted run: %+v", run)
	}
	if run.Jobs != 12 {
		t.Errorf("fleet job count %d", run.Jobs)
	}
	for i, m := range run.Members {
		if m.Name != fmt.Sprintf("cluster%d", i) {
			t.Errorf("member %d named %q", i, m.Name)
		}
		if m.Jobs != res.JobsPerMember[i] {
			t.Errorf("member %d jobs %d, want %d", i, m.Jobs, res.JobsPerMember[i])
		}
	}
	rep := New("test", KindRun)
	rep.Runs = []Run{run}
	path := filepath.Join(t.TempDir(), "fed.json")
	if err := Write(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Runs[0], run) {
		t.Error("federation run did not round-trip")
	}
}

// FuzzReportRead holds the report reader to the decoder contract: hostile
// bytes are an error, never a panic, and a report that reads writes back to
// a file that reads as the same report. "The same" is reflect.DeepEqual up to
// one thing: an empty list or map reads as empty and is written as absent, so
// the two sides are compared as encoding/json renders them.
func FuzzReportRead(f *testing.F) {
	for _, name := range []string{"report_v4", "cluster_run"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	// The same document at the current generation and at an older one,
	// which reads as an error.
	for _, schema := range []string{"4", "3"} {
		f.Add([]byte(`{"schema":` + schema + `,"kind":"sweep","params":{},"sweeps":[{"name":"","x":"","points":[{"x":-0,"runs":null}]}]}`))
	}
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Read(in)
		if err != nil {
			return
		}
		if err := Write(out, r); err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		again, err := Read(out)
		if err != nil {
			t.Fatalf("re-encoded report does not read: %v", err)
		}
		first, _ := json.Marshal(r)
		second, _ := json.Marshal(again)
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the report:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}

// TestWriteReplacesRegularFile: writing over a report unlinks it and writes a
// new one, so another link to the old file keeps the old bytes.
func TestWriteReplacesRegularFile(t *testing.T) {
	dir := t.TempDir()
	path, link := filepath.Join(dir, "report.json"), filepath.Join(dir, "old.json")
	if err := Write(path, goldenReport()); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(path, link); err != nil {
		t.Skip("no hard links here:", err)
	}
	next := Report{Schema: SchemaVersion, Kind: KindRun, Runs: []Run{{Policy: "elastic"}}}
	if err := Write(path, next); err != nil {
		t.Fatal(err)
	}
	if back, err := Read(path); err != nil || !reflect.DeepEqual(back, next) {
		t.Errorf("the path does not hold what was written: %v", err)
	}
	if kept, err := Read(link); err != nil || !reflect.DeepEqual(kept, goldenReport()) {
		t.Errorf("the old file was written in place: its other link reads %+v, %v", kept, err)
	}
}

// runField maps every sim.Metrics field to the Run field a report carries it
// in. A Metrics field missing here fails TestRunsCarryEveryMetric.
var runField = map[string]string{
	"Policy":             "Policy",
	"TotalTime":          "TotalTime",
	"Utilization":        "Utilization",
	"WeightedResponse":   "WeightedResponse",
	"WeightedCompletion": "WeightedCompletion",
	"CapacityEvents":     "CapacityEvents",
	"ForcedShrinks":      "PreemptsSurvived",
	"Requeues":           "Requeued",
	"WorkLostSec":        "WorkLostSec",
	"GoodputFrac":        "Goodput",
}

// TestRunsCarryEveryMetric: every field of sim.Metrics, each filled with a
// value no other field holds, arrives in its Run field through both
// FromResult and FromFederation.
func TestRunsCarryEveryMetric(t *testing.T) {
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
	for conv, run := range map[string]Run{
		"FromResult":     FromResult("run", sim.Result{Metrics: m}),
		"FromFederation": FromFederation("run", federation.Result{Metrics: m}),
	} {
		rv := reflect.ValueOf(run)
		for i := range mv.NumField() {
			name := mv.Type().Field(i).Name
			to, ok := runField[name]
			if !ok || !rv.FieldByName(to).IsValid() {
				t.Errorf("sim.Metrics.%s has no Run field in runField", name)
				continue
			}
			var want, got any = mv.Field(i).Interface(), rv.FieldByName(to).Interface()
			switch w := want.(type) {
			case core.Policy:
				want = w.String()
			case int:
				want = float64(w)
			}
			if got != want {
				t.Errorf("%s: Run.%s = %v, want sim.Metrics.%s = %v", conv, to, got, name, want)
			}
		}
	}
}
