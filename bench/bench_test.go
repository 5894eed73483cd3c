package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary: the harness
// re-executes os.Executable() as its worker, and under "go test" that is this
// binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(ms []metricSpec) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkMetrics requires the run to have printed exactly the metrics the spec
// lists, with the listed units and finite values.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	units := names(want)
	for name, unit := range units {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s is in BENCHMARK.json but was not reported", name)
		case m.Unit != unit:
			t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := units[name]; !ok {
			t.Errorf("metric %s was reported but is not in BENCHMARK.json", name)
		}
	}
}

// TestEveryWorkloadTiny runs both passes of every workload — real worker
// processes, every probe — at the tiny scale.
func TestEveryWorkloadTiny(t *testing.T) {
	spec := loadSpec(t)
	out := t.TempDir()
	for _, def := range workloads {
		for trace, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", def.Name, trace), func(t *testing.T) {
				var log bytes.Buffer
				o := options{Workload: def.Name, Seed: 3, Seconds: 0.2, Trace: trace, Out: out, Sizes: tinyScale,
					Result: filepath.Join(out, "results.jsonl")}
				res, err := run(o, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				checkMetrics(t, res.Metrics, want)
				if trace == 1 {
					var tf traceFile
					if err := readJSON(filepath.Join(out, "trace-"+def.Name+".json"), &tf); err != nil {
						t.Fatal(err)
					}
					if len(tf.Spans) == 0 || len(tf.SelfS) == 0 {
						t.Errorf("trace file has %d spans, %d layers", len(tf.Spans), len(tf.SelfS))
					}
					checkSimMetrics(t, def, o.Seed, res.Metrics)
				}
			})
		}
	}
	recs, err := readRecords(filepath.Join(out, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*len(workloads) {
		t.Fatalf("%d records, want %d", len(recs), 2*len(workloads))
	}
	for _, rc := range recs {
		if rc.Host.NProc < 1 || rc.Host.GOMAXPROCS < 1 || rc.Host.GoVersion == "" || rc.Sizes.Name != "tiny" || rc.Seed != 3 || rc.Jobs < 1 {
			t.Errorf("record lacks its host or sizes: %+v", rc)
		}
	}
	// Two sets of the same commit must agree on the modelled system exactly.
	if code := compareSets(spec, recs, recs, &bytes.Buffer{}); code != 0 {
		t.Errorf("a result file compared with itself exits %d", code)
	}
}

// checkSimMetrics requires the traced pass's sim_* metrics to be the elastic
// run's results, found here by running the worker body on the same inputs in
// process. poisson_retained is the case that matters: its elastic run is the
// last of four.
func checkSimMetrics(t *testing.T, def workloadDef, seed int64, got map[string]metric) {
	t.Helper()
	in := inputs{Dir: t.TempDir(), Workload: def.Name}
	if _, err := setUp(def, tinyScale, seed, in, nil); err != nil {
		t.Fatal(err)
	}
	_, runs, err := def.run(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range runs {
		if s.Policy != "elastic" {
			continue
		}
		if u, r := got["sim_utilization"].Value, got["sim_weighted_response_s"].Value; u != s.Utilization || r != s.WeightedResponse {
			t.Errorf("sim_utilization %v, sim_weighted_response_s %v; the elastic run has %v, %v", u, r, s.Utilization, s.WeightedResponse)
		}
		return
	}
	t.Errorf("%s: no elastic run among %d", def.Name, len(runs))
}

// TestSelfTime checks the self-time arithmetic on a hand-built tree:
//
//	root 0..100
//	  a.x 10..40   (child a.y 20..30)
//	  b.x 35..60   (overlaps a.x: only 40..60 is new cover)
//	  b.y 90..120  (runs past the root: clipped to 90..100)
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.root", Start: 0, End: 100, Parent: -1},
		{Name: "a.x", Start: 10, End: 40, Parent: 0},
		{Name: "a.y", Start: 20, End: 30, Parent: 1},
		{Name: "b.x", Start: 35, End: 60, Parent: 0},
		{Name: "b.y", Start: 90, End: 120, Parent: 0},
		{Name: "other.root", Start: 0, End: 50, Parent: -1},
	}
	want := []int64{100 - 30 - 20 - 10, 20, 10, 25, 30, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans, 0)
	for layer, ns := range map[string]float64{"bench": 40, "a": 30, "b": 55} {
		if math.Abs(layers[layer]*1e9-ns) > 1e-6 {
			t.Errorf("layer %s self time %v ns, want %v", layer, layers[layer]*1e9, ns)
		}
	}
	if _, ok := layers["other"]; ok {
		t.Error("a span outside the root was counted under it")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the contract's limits and to the
// workload table in this package.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness, or their reasons differ", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > names2bound(spec.EndToEnd)["setup_s"] {
			t.Errorf("metric %s has a larger bound than setup_s", m.Name)
		}
	}
}

func names2bound(ms []metricSpec) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Name] = m.Bound
	}
	return out
}

// TestPlantedWrongExpected shows verification fails when expected.json
// disagrees: a float off by more than relTol, an integer off by one.
func TestPlantedWrongExpected(t *testing.T) {
	good := []runSummary{{Policy: "elastic", TotalTime: 1000, Utilization: 0.8, WeightedResponse: 250, WeightSum: 60, Events: 4242}}
	if d := diffSummaries(good, good); len(d) != 0 {
		t.Fatalf("identical summaries differ: %v", d)
	}
	close := append([]runSummary(nil), good...)
	close[0].Utilization *= 1 + 1e-9
	if d := diffSummaries(good, close); len(d) != 0 {
		t.Errorf("a 1e-9 relative change is inside the tolerance, got %v", d)
	}
	for field, plant := range map[string]func(*runSummary){
		"Utilization": func(s *runSummary) { s.Utilization *= 1 + 1e-5 },
		"Events":      func(s *runSummary) { s.Events++ },
	} {
		bad := append([]runSummary(nil), good...)
		plant(&bad[0])
		d := diffSummaries(good, bad)
		if len(d) != 1 || !strings.Contains(d[0], field) {
			t.Errorf("planted wrong %s: diff = %v", field, d)
		}
	}
	// The same through the verifier, against the committed file: seed 1's
	// real summaries pass, a planted one fails the run.
	all := map[string][]runSummary{}
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		want, ok := all[def.Name]
		if !ok || len(want) == 0 {
			t.Fatalf("expected.json has no entry for %s", def.Name)
		}
		var v verifier
		v.checkExpected(def.Name, want, false)
		if len(v.problems) != 0 {
			t.Errorf("%s: expected.json disagrees with itself: %v", def.Name, v.problems)
		}
		bad := append([]runSummary(nil), want...)
		bad[0].WeightedResponse *= 1.001
		v.checkExpected(def.Name, bad, false)
		if len(v.problems) != 1 {
			t.Errorf("%s: planted wrong weighted response gave %d problems", def.Name, len(v.problems))
		}
	}
}

// TestPlantedFailedRun shows a run that loses jobs, or differs from the
// first repetition, does not count.
func TestPlantedFailedRun(t *testing.T) {
	def, err := workloadByName("fleet_rebalance")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := setUp(def, tinyScale, 1, inputs{Dir: t.TempDir(), Workload: def.Name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := runSummary{Policy: "elastic", TotalTime: 10, Utilization: 0.5, WeightSum: gen.prioritySum(), RebalanceRounds: 3, Migrations: 2}
	mk := func(s runSummary) rep {
		return rep{Out: workerOut{Jobs: len(gen.Jobs.Jobs), Runs: []runSummary{s}}}
	}
	var v verifier
	first := mk(good).Out
	if !v.checkRep("good", def, gen, mk(good), &first) {
		t.Fatalf("a good repetition failed: %v", v.problems)
	}
	for label, plant := range map[string]func(*runSummary){
		"lost a job":       func(s *runSummary) { s.WeightSum-- },
		"utilization 0":    func(s *runSummary) { s.Utilization = 0 },
		"utilization > 1":  func(s *runSummary) { s.Utilization = 1.01 },
		"no total time":    func(s *runSummary) { s.TotalTime = 0 },
		"no rebalancing":   func(s *runSummary) { s.RebalanceRounds, s.Migrations = 0, 0 },
		"not reproducible": func(s *runSummary) { s.WeightedResponse = 1 },
	} {
		bad := good
		plant(&bad)
		var v verifier
		if v.checkRep(label, def, gen, mk(bad), &first) || len(v.problems) == 0 {
			t.Errorf("%s: the repetition still counted", label)
		}
	}
}

// TestPlantedSlowdown shows compare fails on a slowdown past the bound, on 20 %
// more allocations, and on more failed jobs, calls a noisy metric unresolved,
// and passes identical sets and a slowdown inside the bound.
func TestPlantedSlowdown(t *testing.T) {
	spec := loadSpec(t)
	bound := names2bound(spec.EndToEnd)
	// set makes five runs per workload with every metric at 100 x jitter,
	// then scaled by the factor planted for it.
	set := func(plant map[string]float64, jitter []float64, failed int) []record {
		var out []record
		for _, w := range spec.Workloads {
			for i, j := range jitter {
				m := map[string]metric{}
				for _, e := range spec.EndToEnd {
					f, ok := plant[e.Name]
					if !ok {
						f = 1
					}
					m[e.Name] = metric{100 * j * f, e.Unit}
				}
				out = append(out, record{Workload: w.Name, Seed: int64(i + 1), result: result{Correct: true, Attempted: 1000, Failed: failed, Metrics: m}})
			}
		}
		return out
	}
	steady := []float64{1, 1.001, 0.999, 1.002, 0.998}
	noisy := []float64{0.6, 1.4, 1, 0.7, 1.3}
	base := set(nil, steady, 0)
	for _, c := range []struct {
		name      string
		cand      []record
		exit      int
		regressed int // rows
		says      string
	}{
		{"identical sets", base, 0, 0, ""},
		{"throughput down by the bound and a fifth", set(map[string]float64{"jobs_per_s": 1 - 1.2*bound["jobs_per_s"]}, steady, 0), 1, len(spec.Workloads), ""},
		{"throughput down by half the bound", set(map[string]float64{"jobs_per_s": 1 - 0.5*bound["jobs_per_s"]}, steady, 0), 0, 0, ""},
		{"throughput up 20 %", set(map[string]float64{"jobs_per_s": 1.2}, steady, 0), 0, 0, ""},
		{"20 % more allocations", set(map[string]float64{"allocs_per_job": 1.2}, steady, 0), 1, len(spec.Workloads), ""},
		{"more failed jobs", set(nil, steady, 10), 1, 0, "more jobs failed"},
	} {
		var log bytes.Buffer
		code := compareSets(spec, base, c.cand, &log)
		if code != c.exit || strings.Count(log.String(), regressed) != c.regressed || !strings.Contains(log.String(), c.says) || strings.Contains(log.String(), unresolved) {
			t.Errorf("%s: exit %d, want %d with %d regressed rows\n%s", c.name, code, c.exit, c.regressed, log.String())
		}
	}
	var log bytes.Buffer
	if code := compareSets(spec, set(nil, noisy, 0), set(nil, noisy, 0), &log); code != 0 || !strings.Contains(log.String(), unresolved) {
		t.Errorf("spread wider than the bound: exit %d, want 0 with unresolved rows\n%s", code, log.String())
	}
}

// TestQuartiles pins the spread statistic to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{4, 4, 4}); s != 0 {
		t.Errorf("spread of a constant = %v", s)
	}
}
