// Command bench is the repository's process-level benchmark. One invocation
// generates one workload's inputs from a seed, runs the workload repeatedly
// as a child process (this binary re-executed as a worker: trace file on disk
// -> decode -> simulate -> collect -> report file on disk -> exit), verifies
// the outputs, and prints every metric by name and unit, ending with the one
// JSON line BENCHMARK.json's contract asks for. With -trace 1 it instead runs
// the traced pass: a worker with spans recorded around every call into a
// layer, then the per-layer probes. "bench compare A B" diffs two result
// files against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"elastichpc/internal/profiling"
)

// childEnv marks a re-executed worker, so the test binary can stand in for
// the harness binary (see TestMain).
const childEnv = "ELASTICBENCH_CHILD"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	o := options{Sizes: fullScale}
	fs.StringVar(&o.Workload, "workload", "", "workload to run (one of BENCHMARK.json's names)")
	fs.Int64Var(&o.Seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.Seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&o.Trace, "trace", 0, "0: timed repetitions, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.Out, "out", ".bench_build/out", "directory for inputs, reports, traces and profiles")
	fs.StringVar(&o.Result, "result", "", "append this run's record (metrics, host, sizes) to this JSON-lines file")
	fs.BoolVar(&o.CPUProfile, "cpuprofile", false, "traced pass: also write cpu-<workload>.pprof of the traced worker next to the trace")
	fs.BoolVar(&o.UpdateExpected, "update-expected", false, "rewrite bench/expected.json from this run's summaries (seed 1, full scale)")
	worker := fs.Bool("worker", false, "internal: run as the worker process")
	dir := fs.String("dir", "", "internal: the worker's input/output directory")
	spans := fs.Bool("spans", false, "internal: the worker records spans")
	profile := fs.String("workerprofile", "", "internal: the worker writes a CPU profile here")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag itself

	if *worker {
		if err := workerMain(inputs{Dir: *dir, Workload: o.Workload}, *spans, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// workerOut is what a worker leaves for the harness beside its report files.
type workerOut struct {
	Jobs       int          `json:"jobs"`
	Mallocs    uint64       `json:"mallocs"`
	TotalAlloc uint64       `json:"total_alloc"`
	PeakRSSKB  int64        `json:"peak_rss_kb"`
	Runs       []runSummary `json:"runs"`
	Spans      []span       `json:"spans,omitempty"`
}

// workerMain is the program under test as a user would run it: it sees only
// the files set-up generated.
func workerMain(in inputs, traced bool, cpuProfile string) error {
	def, err := workloadByName(in.Workload)
	if err != nil {
		return err
	}
	stop := profiling.Start(cpuProfile, "")
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	end := rec.begin("bench.worker")
	jobs, runs, err := def.run(in, rec)
	end()
	stop()
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := workerOut{Jobs: jobs, Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc, PeakRSSKB: peakRSSKB(), Runs: runs}
	if rec != nil {
		out.Spans = rec.spans
	}
	return writeJSON(in.workerPath(), out)
}

// peakRSSKB is this process's own high-water resident set (VmHWM). The
// harness cannot take it from the child's rusage: Linux carries the forking
// parent's resident set into the child's ru_maxrss across exec, so a small
// worker would report the harness's memory, not its own. 0 where /proc does
// not have it.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			_, _ = fmt.Sscan(rest, &kb) // a malformed line leaves 0
			return kb
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
