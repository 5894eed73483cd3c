package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	minReps   = 3 // timed repetitions per run, at least
	setupReps = 5 // set-up samples per run; their median is reported

	setupMinSample = 20 * time.Millisecond
)

type options struct {
	Workload       string
	Seed           int64
	Seconds        float64
	Trace          int
	Out            string
	Result         string
	Sizes          scale // fullScale from the command line; the tests run tinyScale
	CPUProfile     bool
	UpdateExpected bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a result file: the result plus everything needed to
// read it later on another host.
type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    int       `json:"trace"`
	Reps     int       `json:"reps"`
	Jobs     int       `json:"jobs"`
	WallS    []float64 `json:"wall_s,omitempty"`   // host seconds of every counted repetition, in run order
	TracedS  []float64 `json:"traced_s,omitempty"` // traced pass: the traced worker of each pair, WallS being the untraced
	RSSMB    []float64 `json:"rss_mb,omitempty"`   // their peak resident sets
	RefS     []float64 `json:"ref_s,omitempty"`    // host seconds of the reference kernel before each of them
	Sizes    scale     `json:"sizes"`
	Host     host      `json:"host"`
	result
	Problems []string `json:"problems,omitempty"`
}

// host is recorded at the start of every run.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func hostRecord() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	// Both files are Linux-only; elsewhere the fields stay empty.
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		_, _ = fmt.Sscan(string(data), &h.LoadAvg1) // a malformed file leaves 0
	}
	return h
}

// rep is one worker process as the harness saw it from outside.
type rep struct {
	RefS  float64 // the reference kernel, timed just before the worker
	WallS float64
	RSSMB float64
	Out   workerOut
	Err   error
}

// runWorker re-executes this binary as a worker and times it from exec to
// exit.
func runWorker(in inputs, extra ...string) rep {
	self, err := os.Executable()
	if err != nil {
		return rep{Err: err}
	}
	// A stale file from the previous repetition must not pass for this one's.
	if err := os.Remove(in.workerPath()); err != nil && !os.IsNotExist(err) {
		return rep{Err: err}
	}
	args := append([]string{"-worker", "-workload", in.Workload, "-dir", in.Dir}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	r := rep{WallS: time.Since(start).Seconds()}
	if err != nil {
		r.Err = fmt.Errorf("worker %s: %w", in.Workload, err)
		return r
	}
	r.Err = readJSON(in.workerPath(), &r.Out)
	r.RSSMB = float64(r.Out.PeakRSSKB) / 1024
	return r
}

// lowerQuartile is the value a quarter of the way up the sorted sample. The
// harness reports it, not the median, for a run's peak resident set, which
// the concurrent collector's timing pushes one way only — a late cycle lets
// the heap grow further (single repetitions of burst_backlog read 33-52 MB
// inside one run). Over the five result sets in reference/ the run-to-run
// spread of the lower quartile is 0.00-0.07 on every workload, that of the
// median up to 0.16 (burst_backlog, avail_drain) against a bound of 0.25.
// Wall time gains nothing from it (README, same heading) and uses the median.
func lowerQuartile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/4]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pinned reports whether this run's simulated results are the ones
// expected.json holds: seed 1 at the benchmark's own sizes.
func (o options) pinned() bool { return o.Seed == 1 && o.Sizes == fullScale }

// run is one invocation of the benchmark for one workload.
func run(o options, stdout io.Writer) (result, error) {
	def, err := workloadByName(o.Workload)
	if err != nil {
		return result{}, err
	}
	sc := o.Sizes
	if o.Seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	rc := record{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Sizes: sc, Host: hostRecord()}
	dir := filepath.Join(o.Out, fmt.Sprintf("%s-seed%d-%d", o.Workload, o.Seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	in := inputs{Dir: dir, Workload: o.Workload}

	// Set-up, several times: its median is a metric, so that work a later
	// change moves out of the worker and into set-up shows. A set-up too
	// short to time (kube_emulation's takes 0.4 ms) is repeated inside each
	// sample until the sample lasts setupMinSample.
	setupRec := newRecorder()
	start := time.Now()
	gen, err := setUp(def, sc, o.Seed, in, nil)
	if err != nil {
		return result{}, err
	}
	per := max(1, min(100, int(setupMinSample/max(time.Since(start), time.Microsecond))))
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		ref := refSample()
		start := time.Now()
		for j := 0; j < per; j++ {
			if _, err := setUp(def, sc, o.Seed, in, setupRec); err != nil {
				return result{}, err
			}
		}
		setupS = append(setupS, refSeconds(time.Since(start).Seconds()/float64(per), ref))
	}
	rc.Jobs = len(gen.Jobs.Jobs)
	fmt.Fprintf(stdout, "%s seed %d: %d jobs, %d capacity events, set-up median %.4f reference-speed s over %d\n",
		o.Workload, o.Seed, rc.Jobs, len(gen.Avail.Events), median(setupS), setupReps)

	var v verifier
	switch o.Trace {
	case 0:
		timedPass(&rc, &v, o, def, in, gen, median(setupS), stdout)
	case 1:
		if err := tracedPass(&rc, &v, o, sc, def, in, gen, setupRec, stdout); err != nil {
			return result{}, err
		}
	default:
		return result{}, fmt.Errorf("-trace must be 0 or 1")
	}
	rc.Problems = v.problems
	rc.Correct = len(v.problems) == 0
	for _, p := range v.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	printMetrics(stdout, rc.Metrics)
	if o.Result != "" {
		if err := appendRecord(o.Result, rc); err != nil {
			return result{}, err
		}
	}
	return rc.result, nil
}

// timedPass is the untraced closed loop: one worker process at a time until
// the measuring time is used, at least minReps of them.
func timedPass(rc *record, v *verifier, o options, def workloadDef, in inputs, gen generated, setupS float64, stdout io.Writer) {
	var reps []rep
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for len(reps) < minReps || time.Now().Before(deadline) {
		ref := refSample()
		r := runWorker(in)
		r.RefS = ref
		reps = append(reps, r)
		// Stop early when the next repetition would overrun the window.
		if len(reps) >= minReps && time.Now().Add(time.Duration(r.WallS*float64(time.Second))).After(deadline) {
			break
		}
	}
	jobs := len(gen.Jobs.Jobs)
	rc.Reps = len(reps)
	rc.Attempted = jobs * len(reps)
	var wall, allocs, allocKB []float64
	var first *workerOut
	for i, r := range reps {
		ok := v.checkRep(fmt.Sprintf("rep %d", i+1), def, gen, r, first)
		if !ok {
			rc.Failed += jobs
			continue
		}
		if first == nil {
			first = &reps[i].Out
		}
		rc.WallS = append(rc.WallS, r.WallS)
		rc.RefS = append(rc.RefS, r.RefS)
		rc.RSSMB = append(rc.RSSMB, r.RSSMB)
		wall = append(wall, refSeconds(r.WallS, r.RefS))
		allocs = append(allocs, float64(r.Out.Mallocs)/float64(jobs))
		allocKB = append(allocKB, float64(r.Out.TotalAlloc)/1000/float64(jobs))
	}
	if first == nil {
		v.failf("no repetition of %s completed", def.Name)
		rc.Metrics = map[string]metric{}
		return
	}
	if o.pinned() {
		v.checkExpected(def.Name, first.Runs, o.UpdateExpected)
	}
	fmt.Fprintf(stdout, "worker peak resident set, MB:   %s\n", describe(rc.RSSMB))
	fmt.Fprintf(stdout, "worker wall, host s:            %s\n", describe(rc.WallS))
	fmt.Fprintf(stdout, "worker wall, reference-speed s: %s (reference kernel median %.1f ms, nominal %.1f)\n",
		describe(wall), 1e3*median(rc.RefS), 1e3*refNominal.Seconds())
	rc.Metrics = map[string]metric{
		"setup_s":          {setupS, "s"},
		"jobs_per_s":       {float64(jobs) / median(wall), "jobs/s"},
		"peak_rss_mb":      {lowerQuartile(rc.RSSMB), "MB"},
		"allocs_per_job":   {median(allocs), "1/job"},
		"alloc_kb_per_job": {median(allocKB), "kB/job"},
	}
}

// describe summarises one run's repetitions for the log.
func describe(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return fmt.Sprintf("lower quartile %.4f median %.4f min %.4f max %.4f n %d", lowerQuartile(s), median(s), s[0], s[len(s)-1], len(s))
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func appendRecord(path string, rc record) error {
	line, err := json.Marshal(rc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	dec := json.NewDecoder(f)
	for {
		var rc record
		if err := dec.Decode(&rc); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rc)
	}
}
