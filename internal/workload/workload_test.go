package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"elastichpc/internal/model"
)

// allGenerators returns one small instance of every Generator implementation
// (the trace generator is exercised via Replay and the file round-trip tests).
func allGenerators(t *testing.T) []Generator {
	t.Helper()
	base, err := (Uniform{Jobs: 8, Gap: 60}).Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	return []Generator{
		Uniform{Jobs: 8, Gap: 60},
		Poisson{Jobs: 8, MeanGap: 60},
		Burst{Waves: 2, PerWave: 4, WaveGap: 240},
		Diurnal{Jobs: 8, Period: 600, PeakGap: 20, OffPeakGap: 120},
		Replay("replay", base),
	}
}

// Determinism: the same seed must yield an identical workload from every
// generator — the invariant the parallel sweep runner relies on.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range allGenerators(t) {
		for _, seed := range []int64{0, 1, 7, 42} {
			a, err := g.Generate(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name(), seed, err)
			}
			b, err := g.Generate(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name(), seed, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: seed %d produced two different workloads", g.Name(), seed)
			}
		}
	}
}

// The uniform generator's draw order is pinned so seed-anchored experiments
// (Table 1 uses seed 7) survive refactors. This golden sample predates the
// generator's move into this package.
func TestUniformGoldenSeed7(t *testing.T) {
	w, err := (Uniform{Jobs: 16, Gap: 90}).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 16 {
		t.Fatalf("%d jobs", len(w.Jobs))
	}
	want := []JobSpec{
		{ID: "job-00", Class: model.Large, Priority: 1, SubmitAt: 0},
		{ID: "job-01", Class: model.Medium, Priority: 4, SubmitAt: 90},
		{ID: "job-02", Class: model.Small, Priority: 4, SubmitAt: 180},
		{ID: "job-03", Class: model.Small, Priority: 3, SubmitAt: 270},
	}
	for i, exp := range want {
		if w.Jobs[i] != exp {
			t.Errorf("job %d: got %+v want %+v", i, w.Jobs[i], exp)
		}
	}
}

func TestGeneratorsValidate(t *testing.T) {
	bad := []Generator{
		Uniform{Jobs: 0, Gap: 90},
		Uniform{Jobs: 4, Gap: -1},
		Poisson{Jobs: 0, MeanGap: 60},
		Burst{Waves: 0, PerWave: 4, WaveGap: 60},
		Burst{Waves: 2, PerWave: 0, WaveGap: 60},
		Diurnal{Jobs: 0, Period: 600, PeakGap: 20, OffPeakGap: 120},
		Diurnal{Jobs: 4, Period: 0, PeakGap: 20, OffPeakGap: 120},
		Diurnal{Jobs: 4, Period: 600, PeakGap: 120, OffPeakGap: 20},
		Trace{},
	}
	for _, g := range bad {
		if _, err := g.Generate(1); err == nil {
			t.Errorf("%s %+v: accepted bad params", g.Name(), g)
		}
	}
}

func TestPoissonMeanGap(t *testing.T) {
	w, err := (Poisson{Jobs: 400, MeanGap: 60}).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 1; i < len(w.Jobs); i++ {
		if w.Jobs[i].SubmitAt < w.Jobs[i-1].SubmitAt {
			t.Fatal("arrivals not sorted")
		}
		sum += w.Jobs[i].SubmitAt - w.Jobs[i-1].SubmitAt
	}
	mean := sum / float64(len(w.Jobs)-1)
	if math.Abs(mean-60)/60 > 0.2 {
		t.Errorf("mean gap %.1f, want ~60", mean)
	}
}

func TestDiurnalDensityFollowsCycle(t *testing.T) {
	g := Diurnal{Jobs: 3000, Period: 1000, PeakGap: 1, OffPeakGap: 50}
	w, err := g.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	// Count arrivals in the peak half vs the trough half of each period.
	var peak, trough int
	for _, j := range w.Jobs {
		phase := math.Mod(j.SubmitAt, g.Period) / g.Period
		if phase < 0.25 || phase >= 0.75 {
			peak++
		} else {
			trough++
		}
	}
	if peak <= 2*trough {
		t.Errorf("diurnal arrivals not clustered at peaks: %d peak vs %d trough", peak, trough)
	}
}

func TestBurstWaveLayout(t *testing.T) {
	w, err := (Burst{Waves: 3, PerWave: 5, WaveGap: 300}).Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, j := range w.Jobs {
		counts[j.SubmitAt]++
	}
	if len(counts) != 3 || counts[0] != 5 || counts[300] != 5 || counts[600] != 5 {
		t.Errorf("wave layout %v", counts)
	}
}

func TestMixWeighting(t *testing.T) {
	w, err := (Burst{Waves: 5, PerWave: 10, WaveGap: 10, Mix: Mix{model.Large: 1}}).Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Jobs {
		if j.Class != model.Large {
			t.Fatalf("drew %v from a large-only mix", j.Class)
		}
	}
	if _, err := (Burst{Waves: 1, PerWave: 10, WaveGap: 10, Mix: Mix{}}).Generate(3); err == nil {
		t.Error("accepted empty mix")
	}
	if _, err := (Burst{Waves: 1, PerWave: 10, WaveGap: 10, Mix: Mix{model.Small: -1}}).Generate(3); err == nil {
		t.Error("accepted negative weight")
	}
}

// Clone must deep-copy: a replayed workload must never alias the one it
// was built from.
func TestCloneDeepCopies(t *testing.T) {
	base, err := (Uniform{Jobs: 6, Gap: 90}).Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	orig := base.Clone()
	re := base.Clone()
	for i := range re.Jobs {
		re.Jobs[i].SubmitAt = -1
		re.Jobs[i].Priority = 99
	}
	if !reflect.DeepEqual(base, orig) {
		t.Error("Clone result aliases the source workload")
	}
	var empty Workload
	if got := empty.Clone(); got.Jobs != nil {
		t.Errorf("Clone of an empty workload: %+v", got)
	}
}

func TestSpan(t *testing.T) {
	w := Workload{Jobs: []JobSpec{{SubmitAt: 5}, {SubmitAt: 125}, {SubmitAt: 60}}}
	if got := w.Span(); got != 125 {
		t.Errorf("span %g", got)
	}
}

// Save/load round-trip equality through the CSV trace format, for every
// generator.
func TestSaveLoadRoundTripAllGenerators(t *testing.T) {
	for _, g := range allGenerators(t) {
		w, err := g.Generate(21)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := saveCSV(&buf, w); err != nil {
			t.Fatalf("%s: saveCSV: %v", g.Name(), err)
		}
		got, err := loadCSVReader(&buf)
		if err != nil {
			t.Fatalf("%s: loadCSV: %v", g.Name(), err)
		}
		// The loader sorts stably by submit time; sort the original the same
		// way for comparison (generator output is already ordered except
		// Burst, which emits equal timestamps in stable order — both are
		// no-ops).
		if !reflect.DeepEqual(got, w.Clone()) {
			t.Errorf("%s: round trip mismatch", g.Name())
		}
	}
}

func TestSaveLoadFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := (Diurnal{Jobs: 5, Period: 600, PeakGap: 20, OffPeakGap: 120}).Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/wl.csv"
	if err := SaveFile(path, w, ""); err != nil {
		t.Fatalf("SaveFile %s: %v", path, err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile %s: %v", path, err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Errorf("%s: file round trip mismatch", path)
	}
	if _, err := LoadFile(dir + "/missing.csv"); err == nil {
		t.Error("LoadFile of missing path succeeded")
	}
	// A trace generator replays the saved file verbatim.
	got, err = (Trace{Path: path}).Generate(999)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Error("trace generator did not replay the saved workload")
	}
}

// TestLoadValidates checks that LoadFile rejects a well-formed trace whose
// jobs break the job validator, and a file that carries more than one trace.
func TestLoadValidates(t *testing.T) {
	const header = "id,class,priority,submit_at\n"
	cases := map[string]string{
		"empty id":        header + ",small,1,0\n",
		"dup id":          header + "a,small,1,0\na,small,1,1\n",
		"bad class":       header + "a,gigantic,1,0\n",
		"zero priority":   header + "a,small,0,0\n",
		"negative time":   header + "a,small,1,-5\n",
		"trailing data":   header + "a,small,1,0\ngarbage\n",
		"second document": header + "a,small,1,0\n" + header + "b,small,1,1\n",
	}
	dir := t.TempDir()
	for name, doc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".csv")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Errorf("%s: LoadFile accepted invalid trace", name)
		}
	}
}

func TestLoadCSVValidates(t *testing.T) {
	const header = "id,class,priority,submit_at\n"
	cases := map[string]string{
		"empty":           "",
		"bad header":      "id,class,priority\n",
		"bad prio":        header + "a,small,x,0\n",
		"bad time":        header + "a,small,1,zzz\n",
		"bad class":       header + "a,gigantic,1,0\n",
		"no rows":         header,
		"empty id":        header + ",small,1,0\n",
		"dup id":          header + "a,small,1,0\na,small,1,1\n",
		"zero priority":   header + "a,small,0,0\n",
		"negative time":   header + "a,small,1,-5\n",
		"NaN time":        header + "a,small,1,NaN\n",
		"+Inf time":       header + "a,small,1,+Inf\n",
		"-Inf time":       header + "a,small,1,-Inf\n",
		"time past clock": header + "a,small,1,1e12\n",
		"trailing data":   header + "a,small,1,0\ngarbage\n",
		"second document": header + "a,small,1,0\n" + header + "b,small,1,1\n",
	}
	for name, doc := range cases {
		if _, err := loadCSV(doc); err == nil {
			t.Errorf("%s: loadCSV accepted invalid document", name)
		}
	}
}

func TestLoadSortsBySubmitTime(t *testing.T) {
	w, err := loadCSV("id,class,priority,submit_at\nlate,small,1,100\nearly,medium,2,10\n")
	if err != nil {
		t.Fatal(err)
	}
	if w.Jobs[0].ID != "early" || w.Jobs[1].ID != "late" {
		t.Errorf("jobs not sorted: %+v", w.Jobs)
	}
}

func TestScenarioLookup(t *testing.T) {
	for _, name := range []string{"uniform", "poisson", "burst", "diurnal"} {
		g, err := Scenario(name, "")
		if err != nil {
			t.Fatalf("Scenario(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("Scenario(%q).Name() = %q", name, g.Name())
		}
		if _, err := g.Generate(1); err != nil {
			t.Errorf("default scenario %q does not generate: %v", name, err)
		}
	}
	if _, err := Scenario("trace", ""); err == nil {
		t.Error("trace scenario without a path accepted")
	}
	if _, err := Scenario("nope", ""); err == nil {
		t.Error("unknown scenario accepted")
	}
	g, err := Scenario("trace", "/tmp/x.csv")
	if err != nil || g.Name() != "trace" {
		t.Errorf("trace scenario: %v %v", g, err)
	}
}

// Property: save→load is the identity for generated workloads.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		jobs := int(n%30) + 1
		w, err := (Uniform{Jobs: jobs, Gap: 45}).Generate(seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := saveCSV(&buf, w); err != nil {
			return false
		}
		got, err := loadCSVReader(&buf)
		if err != nil || len(got.Jobs) != jobs {
			return false
		}
		return reflect.DeepEqual(got, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMustUniformPanicBoundary(t *testing.T) {
	w := MustUniform(4, 90, 7)
	if len(w.Jobs) != 4 {
		t.Fatalf("MustUniform produced %d jobs", len(w.Jobs))
	}
	for _, bad := range []func(){
		func() { MustUniform(0, 90, 7) },
		func() { MustUniform(-1, 90, 7) },
		func() { MustUniform(4, -1, 7) },
		func() { MustUniform(4, math.NaN(), 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("MustUniform accepted degenerate params")
				}
			}()
			bad()
		}()
	}
}

func TestGeneratorsRejectDegenerateGaps(t *testing.T) {
	cases := []Generator{
		Uniform{Jobs: 4, Gap: math.NaN()},
		Uniform{Jobs: 4, Gap: math.Inf(1)},
		Uniform{Jobs: 4, Gap: -1},
		Uniform{Jobs: 0, Gap: 90},
		Poisson{Jobs: 4, MeanGap: math.NaN()},
		Poisson{Jobs: 0, MeanGap: 90},
		Burst{Waves: 2, PerWave: 2, WaveGap: math.NaN()},
		Burst{Waves: 0, PerWave: 2, WaveGap: 90},
		Diurnal{Jobs: 4, Period: math.NaN(), PeakGap: 30, OffPeakGap: 300},
		Diurnal{Jobs: 4, Period: 900, PeakGap: math.NaN(), OffPeakGap: 300},
		Uniform{Jobs: 3, Gap: 1e308}, // the third job's instant overflows
	}
	for i, g := range cases {
		if _, err := g.Generate(1); err == nil {
			t.Errorf("case %d (%T): degenerate params accepted", i, g)
		}
	}
	// Zero gaps stay legal: simultaneous submission is the contention case.
	if _, err := (Uniform{Jobs: 4, Gap: 0}).Generate(1); err != nil {
		t.Errorf("zero gap rejected: %v", err)
	}
}

func TestDiurnalRejectsInfiniteGaps(t *testing.T) {
	cases := []Diurnal{
		{Jobs: 4, Period: math.Inf(1), PeakGap: 30, OffPeakGap: 300},
		{Jobs: 4, Period: 900, PeakGap: math.Inf(1), OffPeakGap: math.Inf(1)},
		{Jobs: 4, Period: 900, PeakGap: 30, OffPeakGap: math.Inf(1)},
	}
	for i, g := range cases {
		if _, err := g.Generate(1); err == nil {
			t.Errorf("case %d: infinite gap accepted", i)
		}
	}
}
