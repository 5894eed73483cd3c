package workload

import (
	"fmt"
	"math/rand"

	"elastichpc/internal/model"
)

// JobSpec is one job submission: what runs, how urgent, and when it arrives.
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

// UniformMix draws all four classes equally (the paper's setup).
func UniformMix() Mix {
	m := Mix{}
	for _, c := range model.AllClasses() {
		m[c] = 1
	}
	return m
}

// draw picks one class, consuming exactly one rng.Float64.
func (m Mix) draw(rng *rand.Rand) (model.Class, error) {
	var total float64
	classes := model.AllClasses()
	for _, c := range classes {
		if m[c] < 0 {
			return 0, fmt.Errorf("workload: negative weight for %v", c)
		}
		total += m[c]
	}
	if total <= 0 {
		return 0, fmt.Errorf("workload: mix has no positive weights")
	}
	x := rng.Float64() * total
	for _, c := range classes {
		x -= m[c]
		if x < 0 {
			return c, nil
		}
	}
	return classes[len(classes)-1], nil
}

// orUniform resolves a nil mix to the uniform one.
func (m Mix) orUniform() Mix {
	if m == nil {
		return UniformMix()
	}
	return m
}
