package conformance

import (
	"fmt"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
)

// MatrixOptions scopes the equivalence matrix.
type MatrixOptions struct {
	// Seeds sweeps the generated workloads.
	Seeds []int64
	// Policies, Shards, and Routes are the grid axes.
	Policies []core.Policy
	Shards   []int
	Routes   []federation.Route
	// Cluster includes the (slow) cluster-emulation repeat-determinism
	// cells.
	Cluster bool
}

// DefaultMatrixOptions is the grid CI runs: the full policy × route product
// at shard widths 0 (automatic — the default every caller runs; the matrix's
// scenarios sit under its work floor, so the candidate pins "plan, decline,
// change nothing") and 1/2/8 over two seeds, cluster cells included.
func DefaultMatrixOptions() MatrixOptions {
	return MatrixOptions{
		Seeds:    []int64{1, 7},
		Policies: core.AllPolicies(),
		Shards:   []int{0, 1, 2, 8},
		Routes:   federation.AllRoutes(),
		Cluster:  true,
	}
}

// Failure is one diverging matrix cell, with both streams retained so the
// runner can save them as artifacts.
type Failure struct {
	// Case is the matrix cell, Candidate the diverging execution mode.
	Case      string
	Candidate string
	// Report is the differ's formatted divergence window.
	Report string
	// Reproduce is the conftest -record command that re-runs the candidate.
	Reproduce string
	// Ref and Got are the reference and diverging streams, each with the
	// Meta that replays it.
	Ref, Got *Stream
}

// Case is one independently runnable matrix cell: each reference spec, and
// each candidate's change of it, runs through RunSpec.Execute, and every
// candidate stream must equal its reference's.
type Case struct {
	Name string
	// Refs are the reference runs: one named as the case, or one per
	// workload shape the case sweeps, named <case>/<shape>.
	Refs []Ref
	// Candidates are the execution modes every reference is held to.
	Candidates []Candidate
}

// Ref is one reference run, under the name a divergence from it reports.
type Ref struct {
	Name string
	Spec RunSpec
}

// Candidate is one execution mode: the reference spec changed by Change (nil
// runs it again), executed — through the stepping surface when Stepped — and
// compared with the reference whole, or on what Project keeps of both.
type Candidate struct {
	Name    string
	Change  func(*RunSpec)
	Stepped bool
	Project func(*Stream) *Stream
}

// Run executes the case and collects its divergences, each report with
// ±window decisions of context.
func (c Case) Run(window int) ([]Failure, error) {
	var fails []Failure
	for _, r := range c.Refs {
		ref, err := r.Spec.Execute()
		if err != nil {
			return nil, err
		}
		for _, cand := range c.Candidates {
			spec := r.Spec
			if cand.Change != nil {
				cand.Change(&spec)
			}
			exec := spec.Execute
			if cand.Stepped {
				exec = spec.executeStepped
			}
			got, err := exec()
			if err != nil {
				return nil, err
			}
			fails = check(fails, window, r.Name, cand, ref, got)
		}
	}
	return fails, nil
}

// RunMatrix runs the cases and collects their divergences. A hard error (a
// backend refusing to run) aborts the sweep; divergences do not.
func RunMatrix(cases []Case, window int) ([]Failure, error) {
	var fails []Failure
	for _, c := range cases {
		fs, err := c.Run(window)
		if err != nil {
			return fails, fmt.Errorf("%s: %w", c.Name, err)
		}
		fails = append(fails, fs...)
	}
	return fails, nil
}

// check compares a candidate stream against the reference and appends a
// Failure on divergence.
func check(fails []Failure, window int, name string, cand Candidate, ref, got *Stream) []Failure {
	if cand.Project != nil {
		ref, got = cand.Project(ref), cand.Project(got)
	}
	d := Compare(ref, got)
	if d.Empty() {
		return fails
	}
	reproduce := recordCommand(got.Meta)
	if cand.Stepped && reproduce != "" {
		reproduce += "  # the batch run; the candidate steps it in 300 s windows"
	}
	return append(fails, Failure{
		Case: name, Candidate: cand.Name,
		Report:    d.Format(ref, got, window),
		Reproduce: reproduce,
		Ref:       ref, Got: got,
	})
}

// summaryOnly is st without its decision log — the part of a run that must
// not depend on whether the log was on.
func summaryOnly(st *Stream) *Stream {
	return &Stream{Version: st.Version, Meta: st.Meta, Summary: st.Summary}
}

// simShapes are the workload shapes every sim cell sweeps: steady arrivals,
// deep same-instant backlogs, the two demand-skewed composites that stress
// the work-balanced epoch planner, and a time-varying cluster under every
// built-in capacity profile (availability: maintenance drains to 32 of 64
// slots), each with full capacity restored at the horizon — the traces
// elasticsim's -availability builds.
var simShapes = []Ref{
	{"uniform", RunSpec{Scenario: "uniform", Jobs: 60, Gap: 45}},
	{"burst", RunSpec{Scenario: "burst", Jobs: 120, Waves: 3, Gap: 4000}},
	{"availability", RunSpec{Scenario: "burst", Jobs: 90, Waves: 3, Gap: 5000, Availability: "drain"}},
	{"head-heavy", RunSpec{Scenario: "head-heavy"}},
	{"tail-heavy", RunSpec{Scenario: "tail-heavy"}},
	{"spot", RunSpec{Scenario: "burst", Jobs: 90, Waves: 3, Gap: 5000, Availability: "spot"}},
	{"failures", RunSpec{Scenario: "burst", Jobs: 90, Waves: 3, Gap: 5000, Availability: "failures"}},
	{"tides", RunSpec{Scenario: "burst", Jobs: 90, Waves: 3, Gap: 5000, Availability: "tides"}},
}

// Cases is the matrix, one table of cells:
//   - sim, per seed × policy over every shape in simShapes: the logged
//     sequential run against the streaming mode, every shard width, the
//     widest streaming, and the stepping surface — all logged, held to the
//     decision stream and the bit-exact summary — plus one unlogged run that
//     must leave the same summary, per-job digest included (observing a run
//     does not change it). What the scheduler decides is core's oracle's to
//     check, not the matrix's;
//   - sim-streaming-scale: streaming over a workload large and bursty enough
//     for a real multi-epoch plan with draining boundaries (sim's
//     TestPlanEpochsStreamingScaleWorkload asserts its shape), the widest
//     shard width against the sequential loop;
//   - federation, per route × policy, rebalancer off and on: a 16/40/64-slot
//     fleet whose round-robin backs up member 0 and whose last member runs
//     the drain profile, so both donor kinds are exercised — the sequential members
//     against the parallel worker pool and a repeat, member streams, the
//     migration log and every summary included;
//   - cluster: the emulation backend recorded twice.
func Cases(opt MatrixOptions) []Case {
	top := 8
	if n := len(opt.Shards); n > 0 {
		top = opt.Shards[n-1]
	}
	sharded := func(n int, streaming bool) Candidate {
		name := fmt.Sprintf("shards%d", n)
		if streaming {
			name += "/streaming"
		}
		return Candidate{Name: name, Change: func(s *RunSpec) { s.Shards, s.Streaming = n, streaming }}
	}
	repeat := Candidate{Name: "repeat"}

	simCandidates := []Candidate{{Name: "streaming", Change: func(s *RunSpec) { s.Streaming = true }}}
	for _, n := range opt.Shards {
		simCandidates = append(simCandidates, sharded(n, false))
	}
	if len(opt.Shards) > 0 {
		simCandidates = append(simCandidates, sharded(top, true))
	}
	simCandidates = append(simCandidates,
		Candidate{Name: "stepped", Stepped: true},
		Candidate{Name: "unlogged", Change: func(s *RunSpec) { s.Log = false }, Project: summaryOnly})

	var cases []Case
	for _, seed := range opt.Seeds {
		for _, p := range opt.Policies {
			c := Case{Name: fmt.Sprintf("sim/%s/seed%d", p, seed), Candidates: simCandidates}
			for _, shape := range simShapes {
				spec := shape.Spec
				spec.Backend, spec.Seed, spec.Policy = "sim", seed, p
				spec.Log, spec.Shards = true, 1
				c.Refs = append(c.Refs, Ref{Name: c.Name + "/" + shape.Name, Spec: spec})
			}
			cases = append(cases, c)
		}
	}
	for _, p := range opt.Policies {
		cases = append(cases, single("sim-streaming-scale/"+p.String(), RunSpec{Backend: "sim", Scenario: "burst",
			Jobs: 1200, Waves: 12, Gap: 20000, Seed: 5, Policy: p, Streaming: true, Shards: 1},
			Candidate{Name: fmt.Sprintf("shards%d", top), Change: func(s *RunSpec) { s.Shards = top }}))
	}
	for _, route := range opt.Routes {
		for _, p := range opt.Policies {
			for _, every := range []float64{0, 300} {
				mode := "batch"
				if every > 0 {
					mode = "rebalance"
				}
				cases = append(cases, single(fmt.Sprintf("federation/%s/%s/%s", route, p, mode), RunSpec{
					Backend: "sim", Scenario: "burst", Jobs: 96, Waves: 6, Gap: 1200, Seed: 3,
					Policy: p, Capacity: 16, Clusters: 3, Skew: 1.5, Availability: "drain", Route: route,
					RebalanceEvery: every, MigrateRunning: every > 0, Parallel: 1, Log: true,
				}, Candidate{Name: "parallel", Change: func(s *RunSpec) { s.Parallel = 0 }}, repeat))
			}
		}
	}
	if opt.Cluster {
		for _, p := range opt.Policies {
			cases = append(cases, single("cluster/"+p.String(), RunSpec{Backend: "cluster",
				Scenario: "uniform", Jobs: 12, Gap: 90, Seed: 4, Policy: p, Log: true}, repeat))
		}
	}
	return cases
}

// single is a case with one reference run, named as the case.
func single(name string, ref RunSpec, candidates ...Candidate) Case {
	return Case{Name: name, Refs: []Ref{{Name: name, Spec: ref}}, Candidates: candidates}
}
