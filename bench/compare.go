package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs: the workloads
// and the end-to-end metrics with their directions and bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles are Python's statistics.quantiles(values, n=4) (the exclusive
// method), which is what the driver measures spread with. It needs two
// values; with fewer, all three quartiles are the value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// Verdicts of one end-to-end metric on one workload.
const (
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// judge compares the candidate's runs b with the baseline's runs a. worse is
// how far b's median sits on the wrong side of a's, as a share of a's.
func judge(m metricSpec, a, b []float64) (verdict string, worse, spreadAB float64) {
	ma, mb := median(a), median(b)
	sign := 1.0 // lower is better: growing is worse
	if m.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	spreadAB = max(spread(a), spread(b))
	// Every run of the candidate better than every run of the baseline: the
	// spread cannot hide a regression.
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > m.Bound:
		return regressed, worse, spreadAB
	case spreadAB > m.Bound && !allBetter:
		return unresolved, worse, spreadAB
	}
	return withinBound, worse, spreadAB
}

// compareMain is "bench compare [-spec BENCHMARK.json] BASE.jsonl CAND.jsonl":
// one row per end-to-end metric and workload, exit 1 on any regression or a
// larger share of failed jobs.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-spec BENCHMARK.json] BASE.jsonl CANDIDATE.jsonl")
		return 2
	}
	var spec benchmarkSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	var sets [2][]record
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	return compareSets(spec, sets[0], sets[1], stdout)
}

func compareSets(spec benchmarkSpec, base, cand []record, stdout io.Writer) int {
	// values of one metric on one workload over a set's timed runs
	values := func(set []record, workload, name string) []float64 {
		var out []float64
		for _, rc := range set {
			if m, ok := rc.Metrics[name]; ok && rc.Workload == workload && rc.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	failFrac := func(set []record, workload string) float64 {
		attempted, failed := 0, 0
		for _, rc := range set {
			if rc.Workload == workload {
				attempted += rc.Attempted
				failed += rc.Failed
			}
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	exit := 0
	fmt.Fprintf(stdout, "%-17s %-18s %14s %14s %8s %8s %7s %3s %3s  %s\n",
		"workload", "metric", "base median", "cand median", "worse", "spread", "bound", "nA", "nB", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(base, w.Name, m.Name), values(cand, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stdout, "%-17s %-18s missing from %d base and %d candidate runs\n", w.Name, m.Name, len(a), len(b))
				exit = 1
				continue
			}
			verdict, worse, sp := judge(m, a, b)
			if verdict == regressed {
				exit = 1
			}
			fmt.Fprintf(stdout, "%-17s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %6.1f%% %3d %3d  %s\n",
				w.Name, m.Name, median(a), median(b), 100*worse, 100*sp, 100*m.Bound, len(a), len(b), verdict)
		}
		if fa, fb := failFrac(base, w.Name), failFrac(cand, w.Name); fb > fa {
			fmt.Fprintf(stdout, "%-17s fail_frac %.6f -> %.6f: more jobs failed\n", w.Name, fa, fb)
			exit = 1
		}
	}
	return exit
}
