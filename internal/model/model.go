// Package model provides the performance models the paper's scheduling
// simulator is built on (§4.3.1): a strong-scaling model for job runtime as
// a function of replica count, and a four-phase rescaling-overhead model.
// Both are continuous functions the simulator and the emulation evaluate
// directly, where the paper interpolated measurements ("We use strong scaling
// performance measurements ... to model the runtime of a job for a given
// number of replicas using a piecewise linear function").
package model

import (
	"fmt"
	"math"
	"time"
)

// Class identifies one of the paper's four job size classes.
type Class int

// The four Jacobi2D job classes of §4.3.1.
const (
	Small Class = iota
	Medium
	Large
	XLarge
)

// String returns the class name used in traces and reports.
func (c Class) String() string {
	switch c {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	case XLarge:
		return "xlarge"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// AllClasses lists the job classes in increasing size order.
func AllClasses() []Class { return []Class{Small, Medium, Large, XLarge} }

// Spec describes a job class: grid size, timestep count, and replica bounds
// (paper §4.3.1 bullet list).
type Spec struct {
	Class       Class
	Grid        int // one dimension of the square grid
	Steps       int
	MinReplicas int
	MaxReplicas int
}

// Specs returns the paper's class table.
func Specs() map[Class]Spec {
	return map[Class]Spec{
		Small:  {Class: Small, Grid: 512, Steps: 40000, MinReplicas: 2, MaxReplicas: 8},
		Medium: {Class: Medium, Grid: 2048, Steps: 40000, MinReplicas: 4, MaxReplicas: 16},
		Large:  {Class: Large, Grid: 8192, Steps: 40000, MinReplicas: 8, MaxReplicas: 32},
		XLarge: {Class: XLarge, Grid: 16384, Steps: 10000, MinReplicas: 16, MaxReplicas: 64},
	}
}

// Machine holds the calibration constants of the performance model,
// representing the paper's c6g.4xlarge EKS nodes. The defaults are fitted so
// the per-iteration times and rescale overheads land in the ranges of the
// paper's Figures 4 and 5.
type Machine struct {
	// CellRate is stencil throughput per replica, cells/second.
	CellRate float64
	// MsgLatency is the per-message halo-exchange latency, seconds.
	MsgLatency float64
	// NetBandwidth is per-replica network bandwidth, bytes/second.
	NetBandwidth float64
	// ShmBandwidth is per-replica checkpoint bandwidth to /dev/shm.
	ShmBandwidth float64
	// RestartBase and RestartPerRank model mpirun+MPI_Init restart cost.
	RestartBase    float64
	RestartPerRank float64
	// LBBase and LBPerByte model the load-balance step: a flat
	// synchronization cost plus a size-proportional migration term
	// (Fig. 5a/5b show LB flat in replicas; Fig. 5c shows it growing with
	// problem size).
	LBBase    float64
	LBPerByte float64
}

// DefaultMachine returns the calibrated machine model. CellRate is fitted
// so the four job classes reproduce the paper's Table 1 scale (a 16-job,
// 90 s-gap workload completes in ~1800–2700 s depending on the policy, with
// the paper's policy ordering on every metric) and per-iteration times land
// in Figure 4a's band. See internal/sim's TestCalibrationScan for the
// fitting harness.
func DefaultMachine() Machine {
	return Machine{
		CellRate:       1.6e8,
		MsgLatency:     60e-6,
		NetBandwidth:   1.2e9,
		ShmBandwidth:   2.0e9,
		RestartBase:    0.35,
		RestartPerRank: 0.045,
		LBBase:         0.08,
		LBPerByte:      2.0e-10,
	}
}

// IterTime returns the modelled time for one Jacobi iteration of an n×n grid
// on p replicas: perfectly parallel compute plus a halo-exchange term whose
// volume shrinks as sqrt(p) and whose latency is fixed per message.
func (m Machine) IterTime(n, p int) float64 {
	if p < 1 {
		p = 1
	}
	cells := float64(n) * float64(n)
	compute := cells / (float64(p) * m.CellRate)
	haloCells := float64(n) / math.Sqrt(float64(p))
	comm := 4 * (m.MsgLatency + haloCells*8/m.NetBandwidth)
	if p == 1 {
		comm = 0
	}
	return compute + comm
}

// JobRuntime returns the modelled wall time of a whole job (steps
// iterations) on p replicas.
func (m Machine) JobRuntime(spec Spec, p int) float64 {
	return float64(spec.Steps) * m.IterTime(spec.Grid, p)
}

// CheckpointBytes is the serialized state size of an n×n grid job: one
// float64 per cell plus ~3% metadata.
func CheckpointBytes(n int) float64 {
	return float64(n) * float64(n) * 8 * 1.03
}

// RescalePhases is the per-phase overhead breakdown (paper §4.2).
type RescalePhases struct {
	LoadBalance float64
	Checkpoint  float64
	Restart     float64
	Restore     float64
}

// Total sums the phases.
func (r RescalePhases) Total() float64 {
	return r.LoadBalance + r.Checkpoint + r.Restart + r.Restore
}

// RescaleOverhead models one shrink or expand of an n×n-grid job from pOld
// to pNew replicas:
//
//   - checkpoint/restore move the whole state through shm, in parallel
//     across the replicas holding it (checkpoint on pOld, restore on pNew) —
//     so per-replica time falls as replicas grow (Fig. 5a/5b);
//   - restart grows linearly with the new rank count (Fig. 5a/5b);
//   - load balance is flat in replicas and proportional to state size
//     (Fig. 5a/5b flat curves; Fig. 5c growth).
func (m Machine) RescaleOverhead(n, pOld, pNew int) RescalePhases {
	bytes := CheckpointBytes(n)
	return RescalePhases{
		LoadBalance: m.LBBase + m.LBPerByte*bytes,
		Checkpoint:  bytes / (float64(pOld) * m.ShmBandwidth),
		Restart:     m.RestartBase + m.RestartPerRank*float64(pNew),
		Restore:     bytes / (float64(pNew) * m.ShmBandwidth),
	}
}

// MaxSeconds bounds every span of model seconds a run takes in: a submission
// instant or gap, a capacity event's instant, a rescale gap. Duration turns
// seconds into time.Duration nanoseconds, whose int64 range ends near 9.2e9 s;
// past it Go leaves the conversion implementation-defined (amd64 gives
// MinInt64) and the scheduler's clock wraps. 1e9 s (about 32 years) keeps
// room for the spans a run adds on top and sits far above the longest
// benchmark span (1.6e7 s).
const MaxSeconds = 1e9

// Duration converts model seconds to a time.Duration.
func Duration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
