package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
)

// relTol is how far a float may sit from bench/expected.json: loose enough
// for ROADMAP item 4's 1e-9 stepped-utilization fix, far tighter than any
// behaviour change.
const relTol = 1e-6

// verifier collects every failed check of one run.
type verifier struct {
	problems []string
}

func (v *verifier) failf(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// checkRep checks one worker's outputs against its inputs and against the
// first good repetition, and reports whether the repetition counts.
func (v *verifier) checkRep(label string, def workloadDef, gen generated, r rep, first *workerOut) bool {
	before := len(v.problems)
	if r.Err != nil {
		v.failf("%s: %v", label, r.Err)
		return false
	}
	if r.Out.Jobs != len(gen.Jobs.Jobs) {
		v.failf("%s: worker loaded %d jobs, set-up saved %d", label, r.Out.Jobs, len(gen.Jobs.Jobs))
	}
	if len(r.Out.Runs) == 0 {
		v.failf("%s: worker reported no run", label)
	}
	want := gen.prioritySum()
	for _, s := range r.Out.Runs {
		at := label + " " + s.Policy
		if s.WeightSum != want {
			v.failf("%s: weight sum %v, input priorities sum to %v: not every job completed", at, s.WeightSum, want)
		}
		if !(s.Utilization > 0 && s.Utilization <= 1) {
			v.failf("%s: utilization %v outside (0,1]", at, s.Utilization)
		}
		if !(s.TotalTime > 0) {
			v.failf("%s: total time %v", at, s.TotalTime)
		}
		if n := len(gen.Avail.Events); n > 0 && s.CapacityEvents != n {
			v.failf("%s: %d capacity events applied, trace has %d", at, s.CapacityEvents, n)
		}
		if def.Name == "fleet_rebalance" && (s.RebalanceRounds <= 0 || s.Migrations <= 0) {
			v.failf("%s: %d rebalance rounds, %d migrations: the rebalancer did not run", at, s.RebalanceRounds, s.Migrations)
		}
	}
	if first != nil && !reflect.DeepEqual(first.Runs, r.Out.Runs) {
		v.failf("%s: results differ from the first repetition's:\n  first %+v\n  this  %+v", label, first.Runs, r.Out.Runs)
	}
	return len(v.problems) == before
}

// expectedJSON is seed 1's summaries at full scale, compiled in so the check
// does not depend on where the binary runs.
//
//go:embed expected.json
var expectedJSON []byte

// checkExpected compares seed 1's summaries with the committed ones: floats
// to relTol, integer counts exactly. With update it rewrites the file
// instead (run from the repository root).
func (v *verifier) checkExpected(workload string, got []runSummary, update bool) {
	all := map[string][]runSummary{}
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		v.failf("expected.json: %v", err)
		return
	}
	if update {
		const path = "bench/expected.json"
		// Other workloads' entries come from the file, not the binary, so
		// several updates in a row accumulate.
		if err := readJSON(path, &all); err != nil {
			v.failf("update expected.json: %v", err)
			return
		}
		all[workload] = got
		if err := writeJSON(path, all); err != nil {
			v.failf("update expected.json: %v", err)
		}
		return
	}
	want, ok := all[workload]
	if !ok {
		v.failf("expected.json has no entry for %s", workload)
		return
	}
	for _, p := range diffSummaries(want, got) {
		v.failf("seed 1 %s differs from expected.json: %s", workload, p)
	}
}

func diffSummaries(want, got []runSummary) []string {
	if len(want) != len(got) {
		return []string{fmt.Sprintf("%d runs, want %d", len(got), len(want))}
	}
	var out []string
	for i := range want {
		w, g := reflect.ValueOf(want[i]), reflect.ValueOf(got[i])
		for f := 0; f < w.NumField(); f++ {
			name := w.Type().Field(f).Name
			same := true
			if w.Field(f).Kind() == reflect.Float64 {
				a, b := w.Field(f).Float(), g.Field(f).Float()
				same = a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
			} else {
				same = w.Field(f).Interface() == g.Field(f).Interface()
			}
			if !same {
				out = append(out, fmt.Sprintf("run %d (%s) %s = %v, want %v", i, want[i].Policy, name, g.Field(f).Interface(), w.Field(f).Interface()))
			}
		}
	}
	return out
}
