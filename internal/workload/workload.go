package workload

import (
	"fmt"
	"math"
	"math/rand"

	"elastichpc/internal/model"
)

// JobSpec is one job submission: what runs, how urgent, and when it arrives.
//
// A generated or loaded job's ID is a substring of one buffer its workload
// shares: the ID buffer the generator or the trace decoder fills (a loaded
// trace's IDs are copied out of the file, which is not kept). A JobSpec kept
// after the rest of its workload is dropped keeps that whole buffer alive;
// strings.Clone the ID to keep it alone.
type JobSpec struct {
	ID       string
	Class    model.Class
	Priority int
	SubmitAt float64 // seconds from experiment start
}

// Workload is a reproducible job-submission stream.
type Workload struct {
	Jobs []JobSpec
}

// Clone returns an independent deep copy: mutating the copy's jobs never
// aliases the original.
func (w Workload) Clone() Workload {
	if w.Jobs == nil {
		return Workload{}
	}
	jobs := make([]JobSpec, len(w.Jobs))
	copy(jobs, w.Jobs)
	return Workload{Jobs: jobs}
}

// Span is the time of the last submission.
func (w Workload) Span() float64 {
	last := 0.0
	for _, j := range w.Jobs {
		if j.SubmitAt > last {
			last = j.SubmitAt
		}
	}
	return last
}

// InSubmitOrder reports whether no job is submitted before the job ahead of
// it, the order the trace loaders return and the simulator replays. A NaN
// submission time compares false, so it makes the answer false.
func (w Workload) InSubmitOrder() bool {
	for i := 1; i < len(w.Jobs); i++ {
		if !(w.Jobs[i-1].SubmitAt <= w.Jobs[i].SubmitAt) {
			return false
		}
	}
	return true
}

// Generator produces a workload from a seed. Implementations must be
// deterministic: the same seed always yields an identical workload, which is
// what makes parallel sweep execution bit-identical to sequential.
type Generator interface {
	// Name identifies the scenario (used by the CLIs' -scenario flag and
	// sweep output).
	Name() string
	// Generate builds the workload for one seed.
	Generate(seed int64) (Workload, error)
}

// Mix is a weighted class distribution for generators. Weights need not sum
// to 1; zero-weight classes are never drawn. A nil Mix means uniform.
type Mix map[model.Class]float64

// mixTable is a Mix resolved once per Generate: its weights in
// model.AllClasses order and their total, summed in that order.
type mixTable struct {
	classes []model.Class
	weights []float64
	total   float64
}

// resolve checks m's weights and tables them. A weight must be finite and not
// negative, and at least one must be positive.
func (m Mix) resolve() (mixTable, error) {
	t := mixTable{classes: model.AllClasses()}
	t.weights = make([]float64, len(t.classes))
	for i, c := range t.classes {
		w := 1.0
		if m != nil {
			w = m[c]
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return mixTable{}, fmt.Errorf("workload: non-finite weight for %v", c)
		}
		if w < 0 {
			return mixTable{}, fmt.Errorf("workload: negative weight for %v", c)
		}
		t.weights[i] = w
		t.total += w
	}
	if t.total <= 0 {
		return mixTable{}, fmt.Errorf("workload: mix has no positive weights")
	}
	if math.IsInf(t.total, 1) {
		return mixTable{}, fmt.Errorf("workload: mix weights sum past the float64 range")
	}
	return t, nil
}

// draw picks one class, consuming exactly one rng.Float64.
func (t *mixTable) draw(rng *rand.Rand) model.Class {
	x := rng.Float64() * t.total
	for i, w := range t.weights {
		x -= w
		if x < 0 {
			return t.classes[i]
		}
	}
	return t.classes[len(t.classes)-1]
}
