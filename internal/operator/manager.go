package operator

import (
	"fmt"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
)

// Manager embeds the elastic scheduling policy into the operator, the way
// the paper integrates its scheduler (§3.2): policy decisions are actuated
// by creating CharmJob objects and mutating their Spec.Replicas, which the
// Controller then reconciles into pod churn and CCS signals.
type Manager struct {
	loop  k8s.Loop
	store *k8s.Store
	ctrl  *Controller
	sched *core.Scheduler

	jobs map[string]*managedJob
	// byRef interns job identities the same way the simulator does: the
	// scheduler's core.Job carries Ref = its index here, so actuator
	// callbacks resolve the managed record with an index load instead of
	// a map lookup per scheduling action.
	byRef  []*managedJob
	kickAt time.Time
	armed  bool
	// forced marks jobs whose latest shrink was ordered by a capacity
	// reclaim. Actuation is asynchronous (the controller reconciles the
	// spec change later, when Scheduler.Reclaiming is long false), so the
	// attribution travels with the job name until the app runtime
	// consumes it via TakeForcedRescale.
	forced map[string]bool
	// Submitted counts jobs accepted by the policy.
	Submitted int
}

// managedJob pairs the scheduler's job record with its CharmJob template.
type managedJob struct {
	core     *core.Job
	template *CharmJob
}

// NewManager creates a manager that schedules onto the given capacity.
func NewManager(loop k8s.Loop, store *k8s.Store, ctrl *Controller, cfg core.Config) (*Manager, error) {
	m := &Manager{
		loop: loop, store: store, ctrl: ctrl,
		jobs:   make(map[string]*managedJob),
		forced: make(map[string]bool),
	}
	sched, err := core.NewScheduler(cfg, (*managerActuator)(m), loop.Now)
	if err != nil {
		return nil, err
	}
	m.sched = sched
	return m, nil
}

// Scheduler exposes the embedded policy scheduler (read-only use).
func (m *Manager) Scheduler() *core.Scheduler { return m.sched }

// CoreJob returns the scheduler's record for a job.
func (m *Manager) CoreJob(name string) (*core.Job, bool) {
	mj, ok := m.jobs[name]
	if !ok {
		return nil, false
	}
	return mj.core, true
}

// Submit hands a CharmJob to the scheduling policy. The k8s object is only
// created once the policy starts the job; until then it waits in the
// scheduler's internal priority queue (§3.2.1).
func (m *Manager) Submit(job *CharmJob) error {
	if err := job.Validate(); err != nil {
		return err
	}
	if _, dup := m.jobs[job.Name]; dup {
		return fmt.Errorf("operator: job %q already submitted", job.Name)
	}
	cj := &core.Job{
		ID:          job.Name,
		Ref:         int32(len(m.byRef)),
		Priority:    job.Spec.Priority,
		MinReplicas: job.Spec.MinReplicas,
		MaxReplicas: job.Spec.MaxReplicas,
		SubmitTime:  m.loop.Now(),
	}
	mj := &managedJob{core: cj, template: job.DeepCopy().(*CharmJob)}
	m.jobs[job.Name] = mj
	m.byRef = append(m.byRef, mj)
	m.Submitted++
	if err := m.sched.Submit(cj); err != nil {
		delete(m.jobs, job.Name)
		m.byRef = m.byRef[:len(m.byRef)-1]
		return err
	}
	m.armKick()
	return nil
}

// SetCapacity applies a cluster capacity change (an availability event) to
// the policy scheduler. A shrink may forcibly rescale running CharmJobs or
// checkpoint-preempt them back to the queue; growth redistributes the new
// slots exactly as a completion would. A follow-up kick is armed so gap-
// blocked rescales re-run once eligible.
func (m *Manager) SetCapacity(n int) error {
	if err := m.sched.SetCapacity(n); err != nil {
		return err
	}
	m.armKick()
	return nil
}

// JobFinished is called when a job's application completes: the controller
// tears the job down and the policy redistributes the freed slots (Figure 3).
func (m *Manager) JobFinished(name string) error {
	mj, ok := m.jobs[name]
	if !ok {
		return fmt.Errorf("operator: unknown job %q", name)
	}
	if err := m.ctrl.Complete(name); err != nil {
		return err
	}
	m.sched.OnJobComplete(mj.core)
	m.armKick()
	return nil
}

// armKick schedules a Reschedule pass at the next rescale-gap expiry, the
// operator's requeue-driven equivalent of the simulator's kick events.
func (m *Manager) armKick() {
	at, ok := m.sched.NextGapExpiry()
	if !ok {
		return
	}
	if m.armed && !m.kickAt.After(at) {
		return // an earlier or equal kick is already armed
	}
	m.armed = true
	m.kickAt = at
	m.loop.At(at.Sub(m.loop.Now()), func() {
		if !m.kickAt.Equal(at) {
			return // superseded by an earlier kick
		}
		m.armed = false
		m.sched.Reschedule()
		m.armKick()
	})
}

// managerActuator implements core.Actuator by mutating CharmJob objects.
type managerActuator Manager

func (a *managerActuator) mgr() *Manager { return (*Manager)(a) }

// StartJob creates the CharmJob object with the granted replica count. A
// restart after a preemption reuses the existing object, carrying the
// restart/preemption counters forward.
func (a *managerActuator) StartJob(j *core.Job, replicas int) error {
	m := a.mgr()
	// The identity check (not just bounds) rejects jobs that never went
	// through Manager.Submit — their zero Ref would otherwise silently
	// resolve to the first managed job.
	if j.Ref < 0 || int(j.Ref) >= len(m.byRef) || m.byRef[j.Ref].core != j {
		return fmt.Errorf("operator: unknown job %q", j.ID)
	}
	mj := m.byRef[j.Ref]
	obj := mj.template.DeepCopy().(*CharmJob)
	obj.Spec.Replicas = replicas
	obj.Status = CharmJobStatus{Phase: JobPending}
	if prev, exists := m.store.View(k8s.KindCharmJob, obj.Key()); exists {
		ps := prev.(*CharmJob).Status
		obj.Status.Restarts = ps.Restarts
		obj.Status.Preemptions = ps.Preemptions
		return m.store.Update(obj)
	}
	return m.store.Create(obj)
}

// ShrinkJob lowers Spec.Replicas; the controller signals the app and removes
// pods after the ack. A shrink ordered during a capacity reclaim is marked
// forced so the app runtime can attribute its overhead to the availability
// event once the (asynchronous) rescale actually lands.
func (a *managerActuator) ShrinkJob(j *core.Job, to int) error {
	m := a.mgr()
	if m.sched.Reclaiming() {
		m.forced[j.ID] = true
	}
	return a.setReplicas(j.ID, to)
}

// TakeForcedRescale reports whether the job's pending rescale was forced by
// a capacity reclaim, clearing the mark.
func (m *Manager) TakeForcedRescale(name string) bool {
	if m.forced[name] {
		delete(m.forced, name)
		return true
	}
	return false
}

// ExpandJob raises Spec.Replicas; the controller adds pods, refreshes the
// nodelist, and signals the app.
func (a *managerActuator) ExpandJob(j *core.Job, to int) error {
	return a.setReplicas(j.ID, to)
}

func (a *managerActuator) setReplicas(name string, to int) error {
	m := a.mgr()
	obj, ok := m.store.Get(k8s.KindCharmJob, name)
	if !ok {
		return fmt.Errorf("operator: CharmJob %q not found", name)
	}
	job := obj.(*CharmJob)
	job.Spec.Replicas = to
	return m.store.Update(job)
}

// PreemptJob checkpoint-stops a job during a forced capacity reclaim. The
// paper's policy avoids voluntary preemption to stay shared-filesystem-free
// (§3.2.2), so outside a reclaim the call is still refused — losing the
// hardware is not a policy choice.
func (a *managerActuator) PreemptJob(j *core.Job) error {
	m := a.mgr()
	if !m.sched.Reclaiming() {
		return fmt.Errorf("operator: voluntary preemption not supported")
	}
	return m.ctrl.Preempt(j.ID)
}
