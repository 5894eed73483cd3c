package apps

import (
	"fmt"
	"time"

	"elastichpc/internal/ccs"
	"elastichpc/internal/charm"
	"elastichpc/internal/pup"
)

// IterationRecord captures one iteration's timing for timeline plots
// (paper Figure 6).
type IterationRecord struct {
	Iter      int
	PEs       int
	Elapsed   time.Duration // wall time of this iteration
	Timestamp time.Duration // time since run start when it finished
}

// RescaleEvent records an in-run rescale for timeline plots.
type RescaleEvent struct {
	Iter      int
	FromPEs   int
	ToPEs     int
	Timestamp time.Duration
	Stats     charm.RescaleStats
}

// RunResult is the outcome of an application run.
type RunResult struct {
	Iterations []IterationRecord
	Rescales   []RescaleEvent
	Total      time.Duration
	FinalValue float64 // last reduction value (residual / kinetic energy)
}

// TimePerIteration returns the mean iteration time over the steady-state
// iterations (excluding the first, which pays warm-up costs).
func (r RunResult) TimePerIteration() time.Duration {
	if len(r.Iterations) <= 1 {
		if len(r.Iterations) == 1 {
			return r.Iterations[0].Elapsed
		}
		return 0
	}
	var sum time.Duration
	for _, it := range r.Iterations[1:] {
		sum += it.Elapsed
	}
	return sum / time.Duration(len(r.Iterations)-1)
}

// Runner drives an application's iteration loop on a charm runtime,
// servicing rescale requests at load-balancing boundaries (paper §2.2) and
// recording the per-iteration timeline.
type Runner struct {
	RT *charm.Runtime
	// LBPeriod is the number of iterations between load-balancing steps
	// (and hence rescale opportunities). Defaults to 10.
	LBPeriod int
	// BalanceOnLB controls whether a Balance() runs at LB steps even
	// without a pending rescale. The paper's experimental runs only
	// balance when rescaling ("Since there is no load imbalance in this
	// example, we only load balance when a job has to be rescaled").
	BalanceOnLB bool
	// Evolve, if non-nil, makes this an *evolving* job (paper §6): at
	// every LB step the application itself decides its target PE count
	// from its own progress, with no external trigger. Returning the
	// current PE count (or <= 0) keeps the allocation unchanged.
	Evolve func(status ccs.StatusReply) int

	array     int
	epIterate int
	iter      int
	total     int
	reduceCh  chan []float64
}

// ChareGrid factors n chares into the near-square bx×by block decomposition
// NewJacobiRunner takes; callers overdecompose, passing a multiple of the PE
// count.
func ChareGrid(n int) (bx, by int) {
	bx = 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			bx = f
		}
	}
	return bx, n / bx
}

// NewJacobiRunner creates an N×N Jacobi2D instance decomposed into bx×by
// blocks on rt and waits for initialization to complete.
func NewJacobiRunner(rt *charm.Runtime, n, bx, by int) (*Runner, error) {
	if bx <= 0 || by <= 0 || n < bx || n < by {
		return nil, fmt.Errorf("apps: invalid jacobi decomposition %dx%d for grid %d", bx, by, n)
	}
	r := &Runner{RT: rt, LBPeriod: 10, array: -1, epIterate: jacobiEpIterate, reduceCh: make(chan []float64, 1)}
	aid, err := rt.CreateArray(JacobiTypeName, bx*by)
	if err != nil {
		return nil, err
	}
	r.array = aid
	rt.SetReductionClient(aid, func(vals []float64) { r.reduceCh <- vals })
	rt.Broadcast(aid, jacobiEpInit, mustPack(&jacobiInitPayload{N: n, BX: bx, BY: by, Boundary: 1.0}))
	if err := r.waitReduction(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewLeanMDRunner creates a kx×ky×kz-cell LeanMD instance with
// atomsPerCell atoms per cell on rt.
func NewLeanMDRunner(rt *charm.Runtime, kx, ky, kz, atomsPerCell int, seed int64) (*Runner, error) {
	if kx <= 0 || ky <= 0 || kz <= 0 || atomsPerCell <= 0 {
		return nil, fmt.Errorf("apps: invalid leanmd config %dx%dx%d, %d atoms", kx, ky, kz, atomsPerCell)
	}
	r := &Runner{RT: rt, LBPeriod: 10, array: -1, epIterate: mdEpIterate, reduceCh: make(chan []float64, 1)}
	aid, err := rt.CreateArray(LeanMDTypeName, kx*ky*kz)
	if err != nil {
		return nil, err
	}
	r.array = aid
	rt.SetReductionClient(aid, func(vals []float64) { r.reduceCh <- vals })
	rt.Broadcast(aid, mdEpInit, mustPack(&mdInitPayload{
		KX: kx, KY: ky, KZ: kz, AtomsPerCell: atomsPerCell,
		CellSize: ljCutoff, Seed: seed,
	}))
	if err := r.waitReduction(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Runner) waitReduction() error {
	select {
	case <-r.reduceCh:
		return nil
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("apps: reduction timed out")
	}
}

// Status returns application progress for CCS queries.
func (r *Runner) Status() ccs.StatusReply {
	return ccs.StatusReply{
		NumPEs:     r.RT.NumPEs(),
		Iteration:  r.iter,
		TotalIters: r.total,
		DoneFraction: func() float64 {
			if r.total == 0 {
				return 0
			}
			return float64(r.iter) / float64(r.total)
		}(),
		RescaleEvents: len(r.RT.Stats()),
	}
}

// Run executes iters iterations, recording per-iteration timings and
// servicing pending rescale requests every LBPeriod iterations.
func (r *Runner) Run(iters int) (RunResult, error) {
	var res RunResult
	r.total = iters
	lbPeriod := r.LBPeriod
	if lbPeriod <= 0 {
		lbPeriod = 10
	}
	runStart := time.Now()
	for r.iter = 0; r.iter < iters; r.iter++ {
		iterStart := time.Now()
		r.RT.Broadcast(r.array, r.epIterate, nil)
		vals := <-r.reduceCh
		elapsed := time.Since(iterStart)
		res.Iterations = append(res.Iterations, IterationRecord{
			Iter:      r.iter,
			PEs:       r.RT.NumPEs(),
			Elapsed:   elapsed,
			Timestamp: time.Since(runStart),
		})
		if len(vals) > 0 {
			res.FinalValue = vals[0]
		}
		// Load-balancing step: the rescale opportunity (paper: "The
		// application then triggers rescaling during the next
		// load-balancing step after receiving the signal").
		if (r.iter+1)%lbPeriod == 0 {
			if r.Evolve != nil && r.RT.PendingRescale() == 0 {
				if target := r.Evolve(r.Status()); target > 0 && target != r.RT.NumPEs() {
					// Internally triggered rescale: same path
					// as an external signal. Register now,
					// drain the ack asynchronously.
					done := r.RT.RequestRescale(target)
					go func() { <-done }()
				}
			}
			if pending := r.RT.PendingRescale(); pending > 0 {
				from := r.RT.NumPEs()
				if _, err := r.RT.ServicePendingRescale(); err != nil {
					return res, fmt.Errorf("apps: rescale at iter %d: %w", r.iter, err)
				}
				stats := r.RT.Stats()
				var last charm.RescaleStats
				if len(stats) > 0 {
					last = stats[len(stats)-1]
				}
				res.Rescales = append(res.Rescales, RescaleEvent{
					Iter:      r.iter,
					FromPEs:   from,
					ToPEs:     r.RT.NumPEs(),
					Timestamp: time.Since(runStart),
					Stats:     last,
				})
			} else if r.BalanceOnLB {
				if _, err := r.RT.Balance(); err != nil {
					return res, fmt.Errorf("apps: balance at iter %d: %w", r.iter, err)
				}
			}
		}
	}
	res.Total = time.Since(runStart)
	return res, nil
}

// RunWithRescale is Run with an external rescale to `to` PEs requested before
// the first iteration, so even a run with a single load-balancing step
// services it. A refused rescale, or a run too short to reach a
// load-balancing step, is an error.
func (r *Runner) RunWithRescale(iters, to int) (RunResult, error) {
	done := r.RT.RequestRescale(to)
	res, err := r.Run(iters)
	if err != nil {
		return res, err
	}
	select {
	case err = <-done:
	default:
		err = fmt.Errorf("apps: no load-balancing step in %d iterations, rescale to %d PEs not serviced", iters, to)
	}
	return res, err
}

// Checkpoint writes a full application checkpoint under the given key
// prefix (paper §3.2.2: fault tolerance "by enabling checkpointing of chare
// data ... and restarting from a checkpoint"). Call at an iteration
// boundary.
func (r *Runner) Checkpoint(prefix string) (int64, error) {
	return r.RT.CheckpointTo(prefix)
}

// Restore rebuilds the application state from a checkpoint written by
// Checkpoint — the "restart with the extra restart parameter" path. The
// runner must have been constructed identically (same decomposition).
func (r *Runner) Restore(prefix string) error {
	return r.RT.RestoreFrom(prefix)
}

// CheckpointBytes estimates the application's checkpoint footprint by
// packing all chares (used by overhead analyses).
func (r *Runner) CheckpointBytes() (int64, error) {
	n, err := r.RT.CheckpointTo("probe/size")
	r.RT.Store().DeletePrefix("probe/size/")
	return n, err
}

// Verify that payload types round-trip; exercised by tests.
var (
	_ pup.Pupable = (*jacobiInitPayload)(nil)
	_ pup.Pupable = (*jacobiHaloPayload)(nil)
	_ pup.Pupable = (*mdInitPayload)(nil)
	_ pup.Pupable = (*mdAtomsPayload)(nil)
)
