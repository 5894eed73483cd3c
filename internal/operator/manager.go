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
	loop  *k8s.EventLoop
	store *k8s.Store
	ctrl  *Controller
	sched *core.Scheduler

	// byRef interns job identities the same way the simulator does: the
	// scheduler's core.Job carries Ref = its index here, so actuator
	// callbacks resolve the managed record with an index load instead of
	// a map lookup per scheduling action. submitted holds the name of every
	// job in it, for Submit's duplicate check: the one read by name.
	byRef     []*managedJob
	submitted map[string]bool
	// kickAt is the armed kick's instant on the loop's clock (nanoseconds
	// since its start, Elapsed); startNs is that start in Unix nanoseconds,
	// the scheduler's instants, so turning a NextGapExpiry into the loop's
	// clock is one subtraction.
	kickAt  int64
	startNs int64
	armed   bool
	// kick is the one func every kick timer arms, made once in NewManager.
	kick func()
}

// managedJob pairs the scheduler's job record with its CharmJob template, the
// manager's own copy of what was submitted: one allocation a job. The
// scheduler keeps &core, so a record must never sit by value in a slice that
// grows.
type managedJob struct {
	core     core.Job
	template CharmJob
	// forced marks a job whose latest shrink was ordered by a capacity
	// reclaim. Actuation is asynchronous (the controller reconciles the spec
	// change later, when Scheduler.Reclaiming is long false), so the
	// attribution travels with the job until the app runtime consumes it via
	// TakeForcedRescale.
	forced bool
}

// NewManager creates a manager that schedules onto the given capacity.
func NewManager(loop *k8s.EventLoop, store *k8s.Store, ctrl *Controller, cfg core.Config) (*Manager, error) {
	m := &Manager{
		loop: loop, store: store, ctrl: ctrl,
		submitted: make(map[string]bool),
		startNs:   loop.Now().UnixNano() - int64(loop.Elapsed()),
	}
	sched, err := core.NewScheduler(cfg, (*managerActuator)(m), loop.Now)
	if err != nil {
		return nil, err
	}
	m.sched = sched
	m.kick = m.onKick
	return m, nil
}

// Scheduler exposes the embedded policy scheduler (read-only use).
func (m *Manager) Scheduler() *core.Scheduler { return m.sched }

// managed returns the record of the job with the Ref, or nil.
func (m *Manager) managed(ref int32) *managedJob {
	if ref < 0 || int(ref) >= len(m.byRef) {
		return nil
	}
	return m.byRef[ref]
}

// CoreJob returns the scheduler's record for the job with the Ref Submit
// returned.
func (m *Manager) CoreJob(ref int32) (*core.Job, bool) {
	mj := m.managed(ref)
	if mj == nil {
		return nil, false
	}
	return &mj.core, true
}

// Submit hands a CharmJob to the scheduling policy and returns the job's
// Ref, the number every later call takes it by: jobs are numbered from 0 in
// the order they are submitted. The k8s object is only created once the
// policy starts the job; until then it waits in the scheduler's internal
// priority queue (§3.2.1).
func (m *Manager) Submit(job *CharmJob) (int32, error) {
	if err := job.Validate(); err != nil {
		return 0, err
	}
	if m.submitted[job.Name] {
		return 0, fmt.Errorf("operator: job %q already submitted", job.Name)
	}
	ref := int32(len(m.byRef))
	mj := &managedJob{core: core.Job{
		ID:          job.Name,
		Ref:         ref,
		Priority:    job.Spec.Priority,
		MinReplicas: job.Spec.MinReplicas,
		MaxReplicas: job.Spec.MaxReplicas,
		SubmitTime:  m.loop.Now(),
	}}
	job.DeepCopyInto(&mj.template)
	mj.template.ref = ref + 1
	m.submitted[job.Name] = true
	m.byRef = append(m.byRef, mj)
	if err := m.sched.Submit(&mj.core); err != nil {
		delete(m.submitted, job.Name)
		m.byRef = m.byRef[:len(m.byRef)-1]
		return 0, err
	}
	m.armKick()
	return ref, nil
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

// JobFinished is called when the application of the job with the Ref
// completes: the controller tears the job down and the policy redistributes
// the freed slots (Figure 3).
func (m *Manager) JobFinished(ref int32) error {
	mj := m.managed(ref)
	if mj == nil {
		return fmt.Errorf("operator: unknown job %d", ref)
	}
	if err := m.ctrl.Complete(mj.core.ID); err != nil {
		return err
	}
	m.sched.OnJobComplete(&mj.core)
	m.armKick()
	return nil
}

// armKick schedules a Reschedule pass at the next rescale-gap expiry, the
// operator's requeue-driven equivalent of the simulator's kick events.
func (m *Manager) armKick() {
	atNs, ok := m.sched.NextGapExpiry()
	if !ok {
		return
	}
	at := atNs - m.startNs
	if m.armed && m.kickAt <= at {
		return // an earlier or equal kick is already armed
	}
	m.armed = true
	m.kickAt = at
	m.loop.At(time.Duration(at-int64(m.loop.Elapsed())), m.kick)
}

// onKick runs a kick timer armKick armed, unless an earlier kick superseded
// it. NextGapExpiry returns only instants after the scheduler's clock, which
// is the loop's, so every kick is armed with a positive delay and fires at
// exactly the instant it was armed for: the loop's Elapsed is that instant,
// and kickAt equals it just when kickAt is still what the timer was armed
// with.
func (m *Manager) onKick() {
	if m.kickAt != int64(m.loop.Elapsed()) {
		return // superseded by an earlier kick
	}
	m.armed = false
	m.sched.Reschedule()
	m.armKick()
}

// managerActuator implements core.Actuator by mutating CharmJob objects.
type managerActuator Manager

func (a *managerActuator) mgr() *Manager { return (*Manager)(a) }

// StartJob creates the CharmJob object with the granted replica count: the
// template, which Create copies. A restart after a preemption rewrites the
// existing object's spec and status instead, carrying the
// restart/preemption counters forward.
func (a *managerActuator) StartJob(j *core.Job, replicas int) error {
	m := a.mgr()
	// The identity check (not just bounds) rejects jobs that never went
	// through Manager.Submit — their zero Ref would otherwise silently
	// resolve to the first managed job.
	if j.Ref < 0 || int(j.Ref) >= len(m.byRef) || &m.byRef[j.Ref].core != j {
		return fmt.Errorf("operator: unknown job %q", j.ID)
	}
	tmpl := &m.byRef[j.Ref].template
	tmpl.Spec.Replicas = replicas
	tmpl.Status = CharmJobStatus{Phase: JobPending}
	h := m.store.Lookup(tmpl.Key())
	if _, exists := m.store.View(k8s.KindCharmJob, h); exists {
		return k8s.Modify(m.store, h, func(job *CharmJob) {
			job.Spec = tmpl.Spec
			job.Status = CharmJobStatus{
				Phase:       JobPending,
				Restarts:    job.Status.Restarts,
				Preemptions: job.Status.Preemptions,
			}
		})
	}
	return m.store.Create(tmpl)
}

// ShrinkJob lowers Spec.Replicas; the controller signals the app and removes
// pods after the ack. A shrink ordered during a capacity reclaim is marked
// forced so the app runtime can attribute its overhead to the availability
// event once the (asynchronous) rescale actually lands.
func (a *managerActuator) ShrinkJob(j *core.Job, to int) error {
	m := a.mgr()
	if m.sched.Reclaiming() {
		m.byRef[j.Ref].forced = true
	}
	return a.setReplicas(j.ID, to)
}

// TakeForcedRescale reports whether the pending rescale of the job with the
// Ref was forced by a capacity reclaim, clearing the mark.
func (m *Manager) TakeForcedRescale(ref int32) bool {
	mj := m.managed(ref)
	if mj == nil || !mj.forced {
		return false
	}
	mj.forced = false
	return true
}

// ExpandJob raises Spec.Replicas; the controller adds pods, refreshes the
// nodelist, and signals the app.
func (a *managerActuator) ExpandJob(j *core.Job, to int) error {
	return a.setReplicas(j.ID, to)
}

func (a *managerActuator) setReplicas(name string, to int) error {
	store := a.mgr().store
	return k8s.Modify(store, store.Lookup(name), func(job *CharmJob) { job.Spec.Replicas = to })
}

// PreemptJob checkpoint-stops a job. Only a forced capacity reclaim calls
// it: the paper's policy never preempts voluntarily, to stay
// shared-filesystem-free (§3.2.2), but losing the hardware is not a policy
// choice.
func (a *managerActuator) PreemptJob(j *core.Job) error { return a.mgr().ctrl.Preempt(j.ID) }
