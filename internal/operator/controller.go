package operator

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"elastichpc/internal/k8s"
)

// Controller reconciles CharmJob objects: it creates launcher and worker
// pods, writes the nodelist, launches the application once all pods run,
// and executes the shrink/expand protocol of §3.1 when Spec.Replicas moves
// away from the launched worker count.
type Controller struct {
	loop  k8s.Loop
	store *k8s.Store
	app   AppRuntime
	queue *k8s.Workqueue
	// pods is a reconcile pass's read of its job's pods, reused by the next.
	pods []k8s.OwnedPod

	// RequeueDelay spaces retries when a job is waiting on pods.
	RequeueDelay time.Duration

	// Reconciles counts reconcile passes (observability for tests).
	Reconciles int

	// OnLaunched, if set, runs after a job's application starts.
	OnLaunched func(job *CharmJob)
	// OnRescaled, if set, runs after a completed shrink/expand.
	OnRescaled func(job *CharmJob, from, to int)
	// OnRestarted, if set, runs after a failure-triggered restart begins.
	OnRestarted func(job *CharmJob)
}

// NewController wires a controller to the store and application runtime.
func NewController(loop k8s.Loop, store *k8s.Store, app AppRuntime) *Controller {
	c := &Controller{loop: loop, store: store, app: app, RequeueDelay: time.Second}
	c.queue = k8s.NewWorkqueue(loop, c.reconcile)
	store.OwnPodsBy(podOwner)
	store.Subscribe(k8s.KindCharmJob, func(ev k8s.Event) {
		if ev.Type == k8s.Deleted {
			return
		}
		c.queue.Add(ev.Object.Meta().Key())
	})
	// Pod events wake the owning job's reconcile (the informer pattern).
	store.Subscribe(k8s.KindPod, func(ev k8s.Event) {
		if owner := ev.Object.Meta().Labels["charmjob"]; owner != "" {
			c.queue.Add(owner)
		}
	})
	return c
}

// podOwner files a pod under the job its charmjob label names: a worker at
// the ordinal its name carries, anything else — the launcher, a pod that
// wears the worker labels under a name WorkerName does not produce — ahead
// of the workers with no ordinal.
func podOwner(p *k8s.Pod) (job string, ordinal int) {
	job = p.Labels["charmjob"]
	if job == "" || p.Labels["role"] != "worker" {
		return job, -1
	}
	return job, workerIndex(job, p.Key())
}

// workerIndex returns i when name is exactly WorkerName(job, i), or -1: the
// prefix is the job's, and "7x", "+7", "-7" and "07" are not 7.
func workerIndex(job, name string) int {
	suffix, ok := strings.CutPrefix(name, job)
	if ok {
		suffix, ok = strings.CutPrefix(suffix, "-worker-")
	}
	idx, err := strconv.Atoi(suffix)
	if !ok || err != nil || idx < 0 || strconv.Itoa(idx) != suffix {
		return -1
	}
	return idx
}

// reconcile drives one CharmJob toward its spec.
func (c *Controller) reconcile(key string) {
	c.Reconciles++
	obj, ok := c.store.View(k8s.KindCharmJob, key)
	if !ok {
		return
	}
	job := obj.(*CharmJob) // a view: whoever writes the job copies it first
	if job.Status.Phase == JobSucceeded || job.Status.Phase == JobPreempted {
		// Preempted jobs hold no pods and wait for the policy scheduler
		// to restart them; there is nothing to reconcile toward.
		return
	}

	// One read of the job's pods serves the whole pass: whatever has no
	// ordinal first, then the workers in ordinal order.
	c.pods = c.store.OwnedPods(c.pods[:0], job.Name)
	workers := c.pods
	for len(workers) > 0 && workers[0].Ordinal < 0 {
		workers = workers[1:]
	}
	desired := job.Spec.Replicas
	failed := false
	running, ready := 0, 0 // Running workers; those of them below desired
	for _, p := range c.pods {
		switch p.Pod.Status.Phase {
		case k8s.PodFailed:
			failed = true
		case k8s.PodRunning:
			if p.Ordinal >= 0 {
				running++
				if p.Ordinal < desired {
					ready++
				}
			}
		}
	}

	// Fault tolerance (§3.2.2): a failed pod means the application
	// crashed. Tear the job down and relaunch it; the application resumes
	// from its last checkpoint when Spec.CheckpointPeriod is set ("launch
	// with the extra restart parameter"). The pod deletions re-enqueue the
	// job.
	if failed {
		c.restart(job.DeepCopy().(*CharmJob))
		return
	}

	if job.Status.ReadyReplicas != running {
		// The update re-enqueues this key; continue there with fresh
		// state.
		job = job.DeepCopy().(*CharmJob)
		job.Status.ReadyReplicas = running
		_ = c.store.Update(job)
		return
	}

	// Ensure the launcher pod exists (runs mpirun/charmrun; requests one
	// slot, mirroring the MPI Operator layout).
	if _, ok := c.store.View(k8s.KindPod, LauncherName(job.Name)); !ok {
		launcher := &k8s.Pod{
			ObjectMeta: k8s.ObjectMeta{
				Name:   LauncherName(job.Name),
				Labels: map[string]string{"charmjob": job.Name, "role": "launcher"},
			},
			// The launcher is lightweight; it does not reserve a
			// worker slot (the paper's experiments size jobs up to
			// the full 64 vCPUs).
			Spec:   k8s.PodSpec{CPU: 0, AffinityKey: job.Name},
			Status: k8s.PodStatus{Phase: k8s.PodPending},
		}
		if err := c.store.Create(launcher); err != nil {
			return
		}
	}

	// Create missing worker pods up to Spec.Replicas; next walks the
	// workers beside the ordinals. The store keeps a copy of what Create is
	// given, so one pod, renamed, describes them all.
	var worker *k8s.Pod
	next := 0
	for i := 0; i < desired; i++ {
		for next < len(workers) && workers[next].Ordinal < i {
			next++
		}
		if next < len(workers) && workers[next].Ordinal == i {
			continue
		}
		if worker == nil {
			worker = &k8s.Pod{
				ObjectMeta: k8s.ObjectMeta{Labels: map[string]string{"charmjob": job.Name, "role": "worker"}},
				Spec: k8s.PodSpec{
					CPU:         job.Spec.CPUPerWorker,
					ShmBytes:    job.Spec.ShmBytes,
					AffinityKey: job.Name,
				},
				Status: k8s.PodStatus{Phase: k8s.PodPending},
			}
		}
		worker.Name = WorkerName(job.Name, i)
		if err := c.store.Create(worker); err != nil {
			return
		}
	}
	if worker != nil {
		return // pod events re-enqueue when they start running
	}

	// Wait for the desired workers to be running.
	if ready < desired {
		c.queue.AddAfter(key, c.RequeueDelay)
		return
	}

	pending := job.Status.Phase == JobPending || job.Status.Phase == ""
	if !pending && desired == job.Status.LaunchedReplicas {
		return // the application runs at the size the spec asks for
	}
	nodelist := runningNodelist(workers, desired)
	switch {
	case pending:
		// First launch: write the nodelist, start the application.
		if err := c.writeNodelist(job.Name, nodelist); err != nil {
			return
		}
		if err := c.app.Launch(job, nodelist); err != nil {
			c.queue.AddAfter(key, c.RequeueDelay)
			return
		}
		job = job.DeepCopy().(*CharmJob)
		job.Status.Phase = JobRunning
		job.Status.LaunchedReplicas = desired
		job.Status.Nodelist = nodelist
		if err := c.store.Update(job); err != nil {
			return
		}
		if c.OnLaunched != nil {
			c.OnLaunched(job)
		}

	case desired < job.Status.LaunchedReplicas:
		// Shrink (§3.1): signal first, remove pods only after the ack.
		if err := c.app.Shrink(job, desired); err != nil {
			c.queue.AddAfter(key, c.RequeueDelay)
			return
		}
		for _, w := range workers {
			if w.Ordinal >= desired && w.Ordinal < job.Status.LaunchedReplicas {
				_ = c.store.Delete(k8s.KindPod, w.Pod.Key()) // it was just read
			}
		}
		if err := c.writeNodelist(job.Name, nodelist); err != nil {
			return
		}
		c.rescaled(job, nodelist)

	default:
		// Expand (§3.1): pods were added above and are running; update
		// the nodelist, then signal the application.
		if err := c.writeNodelist(job.Name, nodelist); err != nil {
			return
		}
		if err := c.app.Expand(job, desired, nodelist); err != nil {
			c.queue.AddAfter(key, c.RequeueDelay)
			return
		}
		c.rescaled(job, nodelist)
	}
}

// rescaled records a shrink or expand the application has acknowledged in the
// job's status and reports it. view is not written.
func (c *Controller) rescaled(view *CharmJob, nodelist []string) {
	job := view.DeepCopy().(*CharmJob)
	from := job.Status.LaunchedReplicas
	job.Status.Phase = JobRunning
	job.Status.LaunchedReplicas = job.Spec.Replicas
	job.Status.Nodelist = nodelist
	job.Status.Rescales++
	if err := c.store.Update(job); err != nil {
		return
	}
	if c.OnRescaled != nil {
		c.OnRescaled(job, from, job.Spec.Replicas)
	}
}

// restart tears down a job one of whose pods failed and sends it back to
// Pending. job is the caller's own copy.
func (c *Controller) restart(job *CharmJob) {
	if job.Status.Phase == JobRunning || job.Status.Phase == JobRescaling {
		c.app.Stop(job)
	}
	k8s.DeletePods(c.store, map[string]string{"charmjob": job.Name})
	job.Status.Phase = JobPending
	job.Status.LaunchedReplicas = 0
	job.Status.ReadyReplicas = 0
	job.Status.Nodelist = nil
	job.Status.Restarts++
	_ = c.store.Update(job)
	if c.OnRestarted != nil {
		c.OnRestarted(job)
	}
}

// runningNodelist returns the DNS-style names of the Running workers below
// ordinal desired, in ordinal order.
func runningNodelist(workers []k8s.OwnedPod, desired int) []string {
	hosts := make([]string, 0, desired)
	for _, w := range workers {
		if w.Ordinal < desired && w.Pod.Status.Phase == k8s.PodRunning {
			hosts = append(hosts, w.Pod.Name)
		}
	}
	return hosts
}

// writeNodelist creates or updates the job's nodelist ConfigMap, which the
// Charm++ launcher mounts to find its workers (§3.1).
func (c *Controller) writeNodelist(job string, hosts []string) error {
	cm := &k8s.ConfigMap{
		ObjectMeta: k8s.ObjectMeta{
			Name:   NodelistName(job),
			Labels: map[string]string{"charmjob": job},
		},
		Data: map[string]string{"nodelist": strings.Join(hosts, "\n")},
	}
	if _, ok := c.store.View(k8s.KindConfigMap, cm.Name); ok {
		return c.store.Update(cm)
	}
	return c.store.Create(cm)
}

// Preempt checkpoint-stops a running job for a forced capacity reclaim: the
// application is stopped (persisting its periodic checkpoint, if enabled),
// every pod is deleted, and the job parks in the Preempted phase until the
// policy scheduler restarts it — the §3.2.2 fault-tolerance machinery turned
// into a first-class scheduling action.
func (c *Controller) Preempt(jobName string) error {
	obj, ok := c.store.Get(k8s.KindCharmJob, jobName)
	if !ok {
		return fmt.Errorf("operator: job %q not found", jobName)
	}
	job := obj.(*CharmJob)
	if job.Status.Phase == JobSucceeded || job.Status.Phase == JobPreempted {
		return fmt.Errorf("operator: job %q is %s, cannot preempt", jobName, job.Status.Phase)
	}
	c.app.Stop(job)
	job.Status.Phase = JobPreempted
	job.Status.LaunchedReplicas = 0
	job.Status.ReadyReplicas = 0
	job.Status.Nodelist = nil
	job.Status.Preemptions++
	if err := c.store.Update(job); err != nil {
		return err
	}
	k8s.DeletePods(c.store, map[string]string{"charmjob": jobName})
	return nil
}

// Complete stops the application, marks the job Succeeded and deletes its
// worker and launcher pods, which releases their slots.
func (c *Controller) Complete(jobName string) error {
	obj, ok := c.store.Get(k8s.KindCharmJob, jobName)
	if !ok {
		return fmt.Errorf("operator: job %q not found", jobName)
	}
	job := obj.(*CharmJob)
	if job.Status.Phase == JobSucceeded {
		return nil
	}
	c.app.Stop(job)
	job.Status.Phase = JobSucceeded
	if err := c.store.Update(job); err != nil {
		return err
	}
	k8s.DeletePods(c.store, map[string]string{"charmjob": jobName})
	return nil
}
