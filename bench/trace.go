package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"
)

// traceFile is what the traced pass writes as trace-<workload>.json. Span
// times are nanoseconds since the start of the span's own run: run 0 is
// set-up, the next runs are the traced workers, the last is the probes.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	SelfS    map[string]float64 `json:"worker_self_s"` // per layer, last traced worker
}

// appendSpans adds one run's spans to the file's list, re-basing their parent
// indices.
func appendSpans(dst, src []span, run int) []span {
	off := len(dst)
	for _, s := range src {
		s.Run = run
		if s.Parent >= 0 {
			s.Parent += off
		}
		dst = append(dst, s)
	}
	return dst
}

// tracedPass gives the per-layer metrics: it measures tracing overhead on
// pairs of untraced and traced workers, keeps the last traced worker's spans,
// then runs the probes.
func tracedPass(rc *record, v *verifier, o options, sc scale, def workloadDef, in inputs, gen generated, setupRec *recorder, stdout io.Writer) error {
	jobs := len(gen.Jobs.Jobs)
	tf := traceFile{Workload: def.Name, Seed: o.Seed, Spans: setupRec.spans}
	var first *workerOut
	var last []span
	runs := 0 // traced workers so far
	count := func(label string, r rep) bool {
		rc.Reps++
		rc.Attempted += jobs
		if !v.checkRep(label, def, gen, r, first) {
			rc.Failed += jobs
			return false
		}
		if first == nil {
			first = &r.Out
		}
		return true
	}
	// Untraced and traced workers run in adjacent pairs, in alternating
	// order, and overhead is the median of the pairs' ratios: the host changes
	// speed too much between minutes for the two medians to be compared.
	var ratios []float64
	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	for pair := 1; pair <= 2 || time.Now().Before(deadline); pair++ {
		var plain, traced rep
		if pair%2 == 1 {
			plain, traced = runWorker(in), runWorker(in, "-spans")
		} else {
			traced, plain = runWorker(in, "-spans"), runWorker(in)
		}
		okPlain := count(fmt.Sprintf("untraced %d", pair), plain)
		okTraced := count(fmt.Sprintf("traced %d", pair), traced)
		if okTraced {
			last = traced.Out.Spans
			runs++
			tf.Spans = appendSpans(tf.Spans, last, runs)
		}
		if okPlain && okTraced {
			ratios = append(ratios, traced.WallS/plain.WallS)
			rc.WallS = append(rc.WallS, plain.WallS)
			rc.TracedS = append(rc.TracedS, traced.WallS)
		}
	}
	if o.CPUProfile {
		// Profiled separately: the profiler's own cost must not pass for
		// tracing overhead.
		path := filepath.Join(o.Out, "cpu-"+def.Name+".pprof")
		if r := runWorker(in, "-spans", "-workerprofile", path); count("profiled", r) {
			fmt.Fprintln(stdout, "cpu profile:", path)
		}
	}
	if len(ratios) == 0 {
		v.failf("no worker pair of %s completed", def.Name)
		rc.Metrics = map[string]metric{}
		return nil
	}

	// Where the traced worker's time went, layer by layer.
	tf.SelfS = layerSelf(last, 0)
	root := float64(last[0].End-last[0].Start) / 1e9
	fmt.Fprintf(stdout, "traced worker: root span %.4f s, self time by layer:\n", root)
	layers := make([]string, 0, len(tf.SelfS))
	for l := range tf.SelfS {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return tf.SelfS[layers[a]] > tf.SelfS[layers[b]] })
	for _, l := range layers {
		fmt.Fprintf(stdout, "  %-12s %10.4f s %6.1f %%\n", l, tf.SelfS[l], 100*tf.SelfS[l]/root)
	}
	if uncovered := tf.SelfS["bench"] / root; uncovered > 0.05 {
		fmt.Fprintf(stdout, "WARN: %.1f %% of the worker is outside every layer span\n", 100*uncovered)
	}

	p := prober{sc: sc, rec: newRecorder(), dir: in.Dir, out: o.Out, m: map[string]metric{}}
	end := p.rec.begin("bench.probes")
	err := p.run(def, gen, in, o.Seed, setupRec)
	end()
	if err != nil {
		return err
	}
	tf.Spans = appendSpans(tf.Spans, p.rec.spans, runs+1)
	p.set("trace.overhead_frac", median(ratios)-1, "fraction")
	p.set("host.ref_kernel_ms", 1e3*refSample(), "ms")
	// The modelled system's results: pure functions of the input, checked
	// exactly by verification, reported here so they sit beside the rest.
	if o.pinned() {
		v.checkExpected(def.Name, first.Runs, false)
	}
	elastic, ok := elasticRun(first.Runs)
	if !ok {
		v.failf("%s: no elastic run among the worker's %d", def.Name, len(first.Runs))
	}
	p.set("sim_utilization", elastic.Utilization, "fraction")
	p.set("sim_weighted_response_s", elastic.WeightedResponse, "s")
	if gap := p.m["cluster.util_gap"].Value; def.Name == "kube_emulation" && gap > 0.02 {
		v.failf("cluster.util_gap %.4f: emulated and simulated utilization differ by more than 0.02", gap)
	}
	rc.Metrics = p.m

	path := filepath.Join(o.Out, "trace-"+def.Name+".json")
	if err := writeJSON(path, tf); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "trace:", path)
	return nil
}
