package cluster

import (
	"fmt"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/model"
	"elastichpc/internal/operator"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// modelApps implements operator.AppRuntime with the calibrated performance
// model: each launched job progresses through its iterations at the modelled
// per-iteration rate, freezes for the four-phase overhead on every rescale,
// and fires a completion callback when the final iteration lands. This
// substitutes for real Charm++ binaries in the emulated EKS runs (the real
// runtime exists in internal/charm and is exercised by Figures 4–6; running
// 40,000-iteration production jobs through it would take the paper's
// wall-clock hours).
type modelApps struct {
	c    *Cluster
	apps map[string]*appState
	// checkpoints holds each job's last periodic-checkpoint iteration
	// (the paper's §3.2.2 fault-tolerance state; survives app restarts).
	checkpoints map[string]float64
}

// appState is one running application.
type appState struct {
	name        string
	grid        int
	steps       int
	ckptPeriod  int
	replicas    int
	itersDone   float64
	lastUpdate  time.Time
	frozenUntil time.Time
	seq         int64
	rescales    int
	overheadSec float64
}

func newModelApps(c *Cluster) *modelApps {
	return &modelApps{c: c, apps: make(map[string]*appState), checkpoints: make(map[string]float64)}
}

// progress credits iterations completed since the last update at the current
// replica count.
func (m *modelApps) progress(a *appState) {
	now := m.c.Loop.Now()
	from := a.lastUpdate
	if a.frozenUntil.After(from) {
		from = a.frozenUntil
	}
	if now.After(from) && a.replicas > 0 {
		iterTime := m.c.cfg.Machine.IterTime(a.grid, a.replicas)
		a.itersDone += now.Sub(from).Seconds() / iterTime
		if a.itersDone > float64(a.steps) {
			a.itersDone = float64(a.steps)
		}
	}
	a.lastUpdate = now
}

// rearm schedules the job's completion callback from its remaining work,
// charging overhead seconds of frozen time first.
func (m *modelApps) rearm(a *appState, overhead float64) {
	a.seq++
	seq := a.seq
	now := m.c.Loop.Now()
	a.frozenUntil = now.Add(time.Duration(overhead * float64(time.Second)))
	remaining := float64(a.steps) - a.itersDone
	iterTime := m.c.cfg.Machine.IterTime(a.grid, a.replicas)
	finish := overhead + remaining*iterTime
	m.c.Loop.At(time.Duration(finish*float64(time.Second)), func() {
		if a.seq != seq {
			return // superseded by a rescale
		}
		m.c.jobDone(a.name)
	})
}

// Launch implements operator.AppRuntime.
func (m *modelApps) Launch(job *operator.CharmJob, nodelist []string) error {
	if len(nodelist) != job.Spec.Replicas {
		return fmt.Errorf("cluster: launch %s with %d of %d workers", job.Name, len(nodelist), job.Spec.Replicas)
	}
	a := &appState{
		name:       job.Name,
		grid:       job.Spec.Workload.Grid,
		steps:      job.Spec.Workload.Steps,
		ckptPeriod: job.Spec.CheckpointPeriod,
		replicas:   job.Spec.Replicas,
		lastUpdate: m.c.Loop.Now(),
	}
	if a.grid <= 0 || a.steps <= 0 {
		return fmt.Errorf("cluster: job %s has no workload", job.Name)
	}
	overhead := 0.0
	if done, ok := m.checkpoints[job.Name]; ok && done > 0 {
		// Restarting after a failure: resume from the checkpoint and
		// pay the restart+restore cost of reading it back.
		a.itersDone = done
		ph := m.c.cfg.Machine.RescaleOverhead(a.grid, a.replicas, a.replicas)
		overhead = ph.Restart + ph.Restore
	}
	if overhead > 0 {
		m.c.overheadArea += overhead * float64(a.replicas)
	}
	if m.c.preempted[job.Name] {
		// The restart pays back a forced preemption: its frozen window
		// is part of what the availability event cost.
		delete(m.c.preempted, job.Name)
		m.c.workLost += overhead * float64(a.replicas)
	}
	m.apps[job.Name] = a
	m.rearm(a, overhead)
	return nil
}

// Shrink implements operator.AppRuntime: the application checkpoints to shm,
// restarts with fewer PEs, and acknowledges; the controller then deletes the
// surplus pods.
func (m *modelApps) Shrink(job *operator.CharmJob, newReplicas int) error {
	return m.rescale(job.Name, newReplicas)
}

// Expand implements operator.AppRuntime.
func (m *modelApps) Expand(job *operator.CharmJob, newReplicas int, nodelist []string) error {
	if len(nodelist) < newReplicas {
		return fmt.Errorf("cluster: expand %s: nodelist has %d of %d workers", job.Name, len(nodelist), newReplicas)
	}
	return m.rescale(job.Name, newReplicas)
}

func (m *modelApps) rescale(name string, to int) error {
	a, ok := m.apps[name]
	if !ok {
		return fmt.Errorf("cluster: app %s not running", name)
	}
	if to == a.replicas {
		return nil
	}
	m.progress(a)
	ph := m.c.cfg.Machine.RescaleOverhead(a.grid, a.replicas, to)
	forced := to < a.replicas && m.c.Mgr.TakeForcedRescale(name)
	a.replicas = to
	a.rescales++
	a.overheadSec += ph.Total()
	m.c.overheadArea += ph.Total() * float64(to)
	if forced {
		// Forced by a capacity loss, not chosen by the policy.
		m.c.workLost += ph.Total() * float64(to)
	}
	m.rearm(a, ph.Total())
	return nil
}

// Stop implements operator.AppRuntime. If periodic checkpointing is enabled
// the last completed checkpoint survives for a later restart. A stop during
// a forced capacity reclaim marks the job preempted and charges the
// progress past its last checkpoint as work the availability event lost —
// unlike the simulator's idealized instant checkpoint, the emulation only
// saves what the §3.2.2 periodic checkpointer actually wrote.
func (m *modelApps) Stop(job *operator.CharmJob) {
	if a, ok := m.apps[job.Name]; ok {
		a.seq++ // cancel any pending completion
		m.progress(a)
		saved := 0.0
		if a.ckptPeriod > 0 {
			period := float64(a.ckptPeriod)
			saved = float64(int(a.itersDone/period)) * period
			m.checkpoints[job.Name] = saved
		}
		if m.c.Mgr.Scheduler().Reclaiming() {
			m.c.preempted[job.Name] = true
			if lost := a.itersDone - saved; lost > 0 && a.replicas > 0 {
				iterTime := m.c.cfg.Machine.IterTime(a.grid, a.replicas)
				m.c.workLost += lost * iterTime * float64(a.replicas)
			}
		}
	}
	delete(m.apps, job.Name)
}

// RunExperiment builds a cluster, submits the workload, runs it to
// completion, and returns the metrics. It is the harness behind Table 1
// "Actual" and Figure 9. It consumes the same workload.Workload the
// discrete-event simulator does, so any scenario generator drives both
// backends.
func RunExperiment(cfg Config, w workload.Workload) (sim.Result, error) {
	res, _, err := RunRecorded(cfg, w)
	return res, err
}

// RunRecorded is RunExperiment plus the scheduler's decision log (nil
// unless Config.LogDecisions) — the cluster backend's entry point for the
// conformance harness.
func RunRecorded(cfg Config, w workload.Workload) (sim.Result, []core.Decision, error) {
	c, err := New(cfg)
	if err != nil {
		return sim.Result{}, nil, err
	}
	c.SubmitWorkload(w)
	if err := c.Run(len(w.Jobs), 10_000_000); err != nil {
		return sim.Result{}, nil, err
	}
	return c.Result(), c.Decisions(), nil
}

// SubmitWorkload schedules every job of the workload as a CharmJob of its
// class, at its submission time.
func (c *Cluster) SubmitWorkload(w workload.Workload) {
	specs := model.Specs()
	for _, js := range w.Jobs {
		spec := specs[js.Class]
		maxR := spec.MaxReplicas
		if maxR > c.cfg.Nodes*c.cfg.CPUPerNode {
			maxR = c.cfg.Nodes * c.cfg.CPUPerNode
		}
		job := &operator.CharmJob{
			ObjectMeta: k8s.ObjectMeta{Name: js.ID},
			Spec: operator.CharmJobSpec{
				MinReplicas:      spec.MinReplicas,
				MaxReplicas:      maxR,
				Priority:         js.Priority,
				CPUPerWorker:     1,
				ShmBytes:         1 << 30,
				Workload:         operator.WorkloadSpec{Grid: spec.Grid, Steps: spec.Steps},
				CheckpointPeriod: c.cfg.CheckpointPeriod,
			},
		}
		c.Submit(job, time.Duration(js.SubmitAt*float64(time.Second)))
	}
}

// Table1Actual runs the fixed Table 1 workload through the full emulation
// for every policy (the paper's "Actual" columns).
func Table1Actual() (map[core.Policy]sim.Result, error) {
	w := sim.Table1Workload()
	out := make(map[core.Policy]sim.Result, 4)
	for _, p := range core.AllPolicies() {
		res, err := RunExperiment(DefaultConfig(p), w)
		if err != nil {
			return nil, fmt.Errorf("policy %v: %w", p, err)
		}
		out[p] = res
	}
	return out, nil
}

// RunAvailability derives one seed of a workload scenario and an
// availability profile (nil = fixed capacity) with the recipe the simulator
// uses, sim.Inputs, and runs both through the full emulation — the
// cluster-backend twin of a sim run with Config.Availability set.
func RunAvailability(cfg Config, g workload.Generator, p workload.AvailabilityProfile, seed int64) (sim.Result, error) {
	w, tr, err := sim.Inputs(g, p, seed, cfg.Nodes*cfg.CPUPerNode)
	if err != nil {
		return sim.Result{}, err
	}
	cfg.Availability = tr
	return RunExperiment(cfg, w)
}
