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
		{Name: "BenchmarkSimMillionJobs", Procs: 8, Iterations: 1, NsPerOp: 1.35e10,
			BytesPerOp: 4.9e7, AllocsPerOp: 1.87e6, Custom: map[string]float64{"jobs/s": 74265}},
	}
	return r
}

// TestReadsSchemaV1Golden pins backward compatibility: a report written by
// the schema-1 generation must keep loading (the v2 fields are additive).
func TestReadsSchemaV1Golden(t *testing.T) {
	r, err := Read(filepath.Join("testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatalf("v1 report no longer readable: %v", err)
	}
	if r.Schema != 1 || r.Kind != KindSweep {
		t.Errorf("schema %d kind %q, want 1/sweep", r.Schema, r.Kind)
	}
	run := r.Sweeps[0].Points[0].Runs[0]
	if run.Policy != "elastic" || run.TotalTime != 2012.5 {
		t.Errorf("v1 run decoded wrong: %+v", run)
	}
	if run.CapacityEvents != 0 || run.Goodput != 0 {
		t.Errorf("v1 run grew resilience values from nowhere: %+v", run)
	}
}

// TestReadsSchemaV2Golden pins backward compatibility one generation up: a
// report written by the schema-2 generation (resilience fields, no
// federation fields) must keep loading under the v3 reader.
func TestReadsSchemaV2Golden(t *testing.T) {
	r, err := Read(filepath.Join("testdata", "report_v2.golden.json"))
	if err != nil {
		t.Fatalf("v2 report no longer readable: %v", err)
	}
	if r.Schema != 2 || r.Kind != KindSweep {
		t.Errorf("schema %d kind %q, want 2/sweep", r.Schema, r.Kind)
	}
	run := r.Sweeps[0].Points[0].Runs[0]
	if run.Policy != "elastic" || run.CapacityEvents != 3 || run.Goodput != 0.9625 {
		t.Errorf("v2 run decoded wrong: %+v", run)
	}
	if run.Route != "" || run.Imbalance != 0 || run.Members != nil {
		t.Errorf("v2 run grew federation values from nowhere: %+v", run)
	}
}

// TestReadsSchemaV3Golden pins backward compatibility one generation up: a
// report written by the schema-3 generation (federation fields, no
// rebalancer fields) must keep loading under the v4 reader.
func TestReadsSchemaV3Golden(t *testing.T) {
	r, err := Read(filepath.Join("testdata", "report_v3.golden.json"))
	if err != nil {
		t.Fatalf("v3 report no longer readable: %v", err)
	}
	if r.Schema != 3 || r.Kind != KindSweep {
		t.Errorf("schema %d kind %q, want 3/sweep", r.Schema, r.Kind)
	}
	run := r.Runs[0]
	if run.Route != "least_loaded" || run.Imbalance != 0.05 || len(run.Members) != 2 {
		t.Errorf("v3 federation run decoded wrong: %+v", run)
	}
	if run.Migrations != 0 || run.RebalanceRounds != 0 {
		t.Errorf("v3 run grew rebalancer values from nowhere: %+v", run)
	}
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

	pts, err := sim.SubmissionGapSweep([]float64{0, 150}, 8, 2, 180, 0)
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
	ssw := FromScenarios(srs)
	if len(ssw.Points) != len(srs) {
		t.Fatalf("%d scenario points", len(ssw.Points))
	}
	for i, p := range ssw.Points {
		if p.Label != gens[i].Name() || p.X != float64(i) || len(p.Runs) != 4 {
			t.Errorf("scenario point %d: %+v", i, p)
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
// bytes are an error, never a panic, and a report that reads — any schema
// generation — writes back to a file that reads as the same report. "The
// same" is reflect.DeepEqual up to one thing: an empty list or map reads as
// empty and is written as absent, so the two sides are compared as
// encoding/json renders them.
func FuzzReportRead(f *testing.F) {
	for _, v := range []string{"v1", "v2", "v3", "v4"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "report_"+v+".golden.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Add([]byte(`{"schema":3,"kind":"sweep","params":{},"sweeps":[{"name":"","x":"","points":[{"x":-0,"runs":null}]}]}`))
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
