package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// SchemaVersion is the report format generation New writes and the only one
// Validate accepts. Version 2 added the resilience aggregates (capacity
// events, preemptions survived, requeues, work lost, goodput) to Run;
// version 3 added the federation fields (route, imbalance, and per-cluster
// member sub-runs); version 4 added the rebalancer activity (migration and
// round counts). No producer of an older generation remains.
const SchemaVersion = 4

// Kind classifies what a report contains.
type Kind string

// Report kinds.
const (
	// KindRun is one or more single experiment runs (Runs populated).
	KindRun Kind = "run"
	// KindSweep is one or more parameter sweeps (Sweeps populated).
	KindSweep Kind = "sweep"
	// KindBench is the timed cells of a benchmark command, such as
	// charmbench (Benchmarks populated).
	KindBench Kind = "bench"
)

// Report is the top-level experiment report.
type Report struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool,omitempty"` // producing command, e.g. "elasticsim"
	Kind   Kind   `json:"kind"`
	// Params records the run configuration (flag values, workload shape).
	Params     map[string]string `json:"params,omitempty"`
	Runs       []Run             `json:"runs,omitempty"`
	Sweeps     []Sweep           `json:"sweeps,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks,omitempty"`
}

// Run is one experiment outcome: the paper's four metrics for one policy on
// one workload (or averaged over Seeds workloads).
type Run struct {
	Name               string  `json:"name,omitempty"` // scenario/workload label
	Policy             string  `json:"policy"`
	Seeds              int     `json:"seeds,omitempty"` // >1 when averaged
	Jobs               int     `json:"jobs,omitempty"`
	TotalTime          float64 `json:"total_time_s"`
	Utilization        float64 `json:"utilization"`
	WeightedResponse   float64 `json:"weighted_response_s"`
	WeightedCompletion float64 `json:"weighted_completion_s"`
	// Resilience aggregates (schema v2; absent from fixed-capacity runs).
	// Counts are float64 so seed-averaged sweep
	// cells keep their fractional means.
	CapacityEvents   float64 `json:"capacity_events,omitempty"`
	PreemptsSurvived float64 `json:"preempts_survived,omitempty"` // capacity losses absorbed by shrinking
	Requeued         float64 `json:"requeued,omitempty"`          // checkpoint-requeued jobs
	WorkLostSec      float64 `json:"work_lost_s,omitempty"`
	Goodput          float64 `json:"goodput,omitempty"` // productive fraction of delivered replica-seconds
	// Federation fields (schema v3; absent from single-cluster runs). A
	// federated run's fleet row names its routing policy, the utilization
	// spread between its busiest and idlest member, and carries one member
	// sub-run per cluster (members never nest further).
	Route     string  `json:"route,omitempty"`
	Imbalance float64 `json:"imbalance,omitempty"`
	Members   []Run   `json:"members,omitempty"`
	// Rebalancer activity (schema v4; absent unless the elastic federation
	// ran with rebalancing on). Counts are float64 so seed-averaged sweep
	// cells keep their fractional means.
	Migrations      float64 `json:"migrations,omitempty"`
	RebalanceRounds float64 `json:"rebalance_rounds,omitempty"`
}

// Sweep is one parameter sweep: per-policy metrics at each x.
type Sweep struct {
	Name   string  `json:"name"` // e.g. "submission_gap", "scenario"
	X      string  `json:"x"`    // x-axis meaning
	Points []Point `json:"points"`
}

// Point is one x-coordinate of a sweep.
type Point struct {
	X     float64 `json:"x"`
	Label string  `json:"label,omitempty"` // scenario name for scenario sweeps
	Runs  []Run   `json:"runs"`
}

// Benchmark is one timed cell.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Custom     map[string]float64 `json:"custom,omitempty"` // e.g. "lb_s", "bytes"
}

// New starts a report of the given kind.
func New(tool string, kind Kind) Report {
	return Report{Schema: SchemaVersion, Tool: tool, Kind: kind}
}

// Validate checks structural integrity: schema generation, a known kind, and
// that the populated section matches the kind.
func (r Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("metrics: schema %d, this build reads %d", r.Schema, SchemaVersion)
	}
	switch r.Kind {
	case KindRun:
		if len(r.Runs) == 0 {
			return fmt.Errorf("metrics: run report with no runs")
		}
	case KindSweep:
		if len(r.Sweeps) == 0 {
			return fmt.Errorf("metrics: sweep report with no sweeps")
		}
	case KindBench:
		if len(r.Benchmarks) == 0 {
			return fmt.Errorf("metrics: bench report with no benchmarks")
		}
	default:
		return fmt.Errorf("metrics: unknown report kind %q", r.Kind)
	}
	return nil
}

// Write marshals the report to path as indented JSON. A regular file already
// there is replaced, not rewritten in place (workload.CreateFresh).
func Write(path string, r Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	f, err := workload.CreateFresh(path)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read loads and validates a report.
func Read(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("metrics: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return Report{}, fmt.Errorf("metrics: %s: %w", path, err)
	}
	return r, nil
}

// FromResult converts one simulation (or emulation) result. Jobs is taken
// from the result when retained, so streaming results pass their job count
// via the name-labelled Run only if the caller sets it afterwards.
func FromResult(name string, res sim.Result) Run {
	return Run{
		Name:               name,
		Policy:             res.Policy.String(),
		Jobs:               len(res.Jobs),
		TotalTime:          res.TotalTime,
		Utilization:        res.Utilization,
		WeightedResponse:   res.WeightedResponse,
		WeightedCompletion: res.WeightedCompletion,
		CapacityEvents:     float64(res.CapacityEvents),
		PreemptsSurvived:   float64(res.ForcedShrinks),
		Requeued:           float64(res.Requeues),
		WorkLostSec:        res.WorkLostSec,
		Goodput:            res.GoodputFrac,
	}
}

// FromFederation converts a federation run: the fleet-wide metrics as the
// top-level Run with its route, imbalance, and one member sub-run per
// cluster (named cluster0..clusterN-1, in member order).
func FromFederation(name string, res federation.Result) Run {
	run := Run{
		Name:               name,
		Policy:             res.Policy.String(),
		TotalTime:          res.TotalTime,
		Utilization:        res.Utilization,
		WeightedResponse:   res.WeightedResponse,
		WeightedCompletion: res.WeightedCompletion,
		CapacityEvents:     float64(res.CapacityEvents),
		PreemptsSurvived:   float64(res.ForcedShrinks),
		Requeued:           float64(res.Requeues),
		WorkLostSec:        res.WorkLostSec,
		Goodput:            res.GoodputFrac,
		Route:              res.Route.String(),
		Imbalance:          res.Imbalance,
		Migrations:         float64(len(res.Migrations)),
		RebalanceRounds:    float64(res.RebalanceRounds),
	}
	for i, m := range res.Members {
		member := FromResult(fmt.Sprintf("cluster%d", i), m)
		member.Jobs = res.JobsPerMember[i]
		run.Jobs += member.Jobs
		run.Members = append(run.Members, member)
	}
	return run
}

// FromAverage converts one per-policy seed-averaged cell.
func FromAverage(name string, avg sim.AverageResult) Run {
	return Run{
		Name:               name,
		Policy:             avg.Policy.String(),
		Seeds:              avg.Runs,
		TotalTime:          avg.TotalTime,
		Utilization:        avg.Utilization,
		WeightedResponse:   avg.WeightedResponse,
		WeightedCompletion: avg.WeightedCompletion,
		CapacityEvents:     avg.CapacityEvents,
		PreemptsSurvived:   avg.ForcedShrinks,
		Requeued:           avg.Requeues,
		WorkLostSec:        avg.WorkLostSec,
		Goodput:            avg.GoodputFrac,
		Imbalance:          avg.Imbalance,
	}
}

// FromSweep converts a Figure 7/8-style sweep, expanding each point's
// policies in the paper's presentation order.
func FromSweep(name, xLabel string, pts []sim.SweepPoint) Sweep {
	sw := Sweep{Name: name, X: xLabel, Points: make([]Point, 0, len(pts))}
	for _, pt := range pts {
		p := Point{X: pt.X, Runs: make([]Run, 0, len(pt.ByPolicy))}
		for _, pol := range core.AllPolicies() {
			if avg, ok := pt.ByPolicy[pol]; ok {
				p.Runs = append(p.Runs, FromAverage("", avg))
			}
		}
		sw.Points = append(sw.Points, p)
	}
	return sw
}

// FromScenarios converts a scenario sweep, one labelled point per scenario.
func FromScenarios(results []sim.ScenarioResult) Sweep {
	sw := Sweep{Name: "scenario", X: "scenario index", Points: make([]Point, 0, len(results))}
	for i, sr := range results {
		p := Point{X: float64(i), Label: sr.Name, Runs: make([]Run, 0, len(sr.ByPolicy))}
		for _, pol := range core.AllPolicies() {
			if avg, ok := sr.ByPolicy[pol]; ok {
				p.Runs = append(p.Runs, FromAverage(sr.Name, avg))
			}
		}
		sw.Points = append(sw.Points, p)
	}
	return sw
}

// WritePolicyTable prints runs, one per policy, as the fixed-width table of
// an elasticsim run on either backend; resilience adds the availability
// columns.
func WritePolicyTable(w io.Writer, runs []Run, resilience bool) {
	fmt.Fprintf(w, "%-14s %12s %12s %16s %18s", "Scheduler", "Total (s)", "Utilization", "W. response (s)", "W. completion (s)")
	if resilience {
		fmt.Fprintf(w, " %9s %8s %8s %12s", "Goodput", "Shrinks", "Requeues", "Lost (r·s)")
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		fmt.Fprintf(w, "%-14s %12.0f %11.2f%% %16.2f %18.2f",
			r.Policy, r.TotalTime, 100*r.Utilization, r.WeightedResponse, r.WeightedCompletion)
		if resilience {
			fmt.Fprintf(w, " %8.2f%% %8.0f %8.0f %12.1f", 100*r.Goodput, r.PreemptsSurvived, r.Requeued, r.WorkLostSec)
		}
		fmt.Fprintln(w)
	}
}

// csvColumns are the per-run columns WriteCSV can print.
var csvColumns = map[string]struct {
	verb string
	of   func(Run) float64
}{
	"utilization":           {"%.4f", func(r Run) float64 { return r.Utilization }},
	"goodput":               {"%.4f", func(r Run) float64 { return r.Goodput }},
	"imbalance":             {"%.4f", func(r Run) float64 { return r.Imbalance }},
	"total_time_s":          {"%.1f", func(r Run) float64 { return r.TotalTime }},
	"weighted_response_s":   {"%.2f", func(r Run) float64 { return r.WeightedResponse }},
	"weighted_completion_s": {"%.2f", func(r Run) float64 { return r.WeightedCompletion }},
	"shrinks":               {"%.1f", func(r Run) float64 { return r.PreemptsSurvived }},
	"requeues":              {"%.1f", func(r Run) float64 { return r.Requeued }},
	"work_lost_s":           {"%.1f", func(r Run) float64 { return r.WorkLostSec }},
}

// PaperColumns are the paper's four metrics, the columns of a plain sweep.
var PaperColumns = []string{"utilization", "total_time_s", "weighted_response_s", "weighted_completion_s"}

// WriteCSV prints a sweep as CSV, one row per point and policy: the point's
// label (its x when unlabelled) under the key header, the policy, then the
// named csvColumns.
func WriteCSV(w io.Writer, key string, sw Sweep, cols []string) {
	fmt.Fprintf(w, "%s,policy,%s\n", key, strings.Join(cols, ","))
	for _, pt := range sw.Points {
		label := pt.Label
		if label == "" {
			label = strconv.FormatFloat(pt.X, 'f', 0, 64)
		}
		for _, r := range pt.Runs {
			fmt.Fprintf(w, "%s,%s", label, r.Policy)
			for _, c := range cols {
				fmt.Fprintf(w, ","+csvColumns[c].verb, csvColumns[c].of(r))
			}
			fmt.Fprintln(w)
		}
	}
}
