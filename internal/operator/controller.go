package operator

import (
	"fmt"
	"slices"
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
	loop  *k8s.EventLoop
	store *k8s.Store
	app   AppRuntime
	queue *k8s.Workqueue
	// pods is a reconcile pass's or a teardown's read of its job's pods,
	// reused by the next.
	pods []k8s.OwnedPod
	// names holds each job's name table, from its first reconcile until
	// Complete.
	names map[string]jobNames

	// Reconciles counts reconcile passes (observability for tests).
	Reconciles int
}

// requeueDelay spaces retries when a job is waiting on pods or the
// application refused a launch or rescale.
const requeueDelay = time.Second

// NewController wires a controller to the store and application runtime.
func NewController(loop *k8s.EventLoop, store *k8s.Store, app AppRuntime) *Controller {
	c := &Controller{loop: loop, store: store, app: app, names: make(map[string]jobNames)}
	c.queue = k8s.NewWorkqueue(loop, requeueDelay, c.reconcile)
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
		suffix, ok = strings.CutPrefix(suffix, workerInfix)
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
	job := obj.(*CharmJob) // a view: the job is written through Modify
	if job.Status.Phase == JobSucceeded || job.Status.Phase == JobPreempted {
		// Preempted jobs hold no pods and wait for the policy scheduler
		// to restart them; there is nothing to reconcile toward.
		return
	}
	names, ok := c.names[job.Name]
	if !ok {
		names = newJobNames(job.Name, c.tableSize(job))
		c.names[job.Name] = names
	}

	// One read of the job's pods serves the whole pass: whatever has no
	// ordinal first, then the workers in ordinal order.
	c.pods = c.store.OwnedPods(c.pods[:0], job.Name)
	workers := c.pods
	for len(workers) > 0 && workers[0].Ordinal < 0 {
		workers = workers[1:]
	}
	desired := max(job.Spec.Replicas, 0) // the store does not validate a spec
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
		c.restart(job)
		return
	}

	if job.Status.ReadyReplicas != running {
		// The write re-enqueues this key; continue there with fresh
		// state.
		_ = c.store.Modify(k8s.KindCharmJob, key, func(obj k8s.Object) {
			obj.(*CharmJob).Status.ReadyReplicas = running
		})
		return
	}

	// Ensure the launcher pod exists (runs mpirun/charmrun; requests one
	// slot, mirroring the MPI Operator layout).
	if _, ok := c.store.View(k8s.KindPod, names.launcher); !ok {
		launcher := &k8s.Pod{
			ObjectMeta: k8s.ObjectMeta{
				Name:   names.launcher,
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
		worker.Name = names.worker(job.Name, i)
		if err := c.store.Create(worker); err != nil {
			return
		}
	}
	if worker != nil {
		return // pod events re-enqueue when they start running
	}

	// Wait for the desired workers to be running.
	if ready < desired {
		c.queue.Requeue(key)
		return
	}

	pending := job.Status.Phase == JobPending || job.Status.Phase == ""
	if pending && desired == 0 {
		return // nothing to launch on; a spec write re-enqueues the job
	}
	if !pending && desired == job.Status.LaunchedReplicas {
		return // the application runs at the size the spec asks for
	}
	// Ordinals are unique, so ready == desired says workers 0 to desired-1
	// all run: the nodelist is the table's first desired workers.
	nodelist, text := names.hosts(job.Name, desired)
	switch {
	case pending:
		// First launch: write the nodelist, start the application.
		if err := c.writeNodelist(job.Name, names.nodelist, text); err != nil {
			return
		}
		if err := c.app.Launch(job, nodelist); err != nil {
			c.queue.Requeue(key)
			return
		}
		_ = c.store.Modify(k8s.KindCharmJob, key, func(obj k8s.Object) {
			st := &obj.(*CharmJob).Status
			st.Phase = JobRunning
			st.LaunchedReplicas = desired
		})

	case desired < job.Status.LaunchedReplicas:
		// Shrink (§3.1): signal first, remove pods only after the ack.
		if err := c.app.Shrink(job, desired); err != nil {
			c.queue.Requeue(key)
			return
		}
		for _, w := range workers {
			if w.Ordinal >= desired && w.Ordinal < job.Status.LaunchedReplicas {
				_ = c.store.Delete(k8s.KindPod, w.Pod.Key()) // it was just read
			}
		}
		if err := c.writeNodelist(job.Name, names.nodelist, text); err != nil {
			return
		}
		c.rescaled(key)

	default:
		// Expand (§3.1): pods were added above and are running; update
		// the nodelist, then signal the application.
		if err := c.writeNodelist(job.Name, names.nodelist, text); err != nil {
			return
		}
		if err := c.app.Expand(job, desired, nodelist); err != nil {
			c.queue.Requeue(key)
			return
		}
		c.rescaled(key)
	}
}

// rescaled records a shrink or expand the application has acknowledged in the
// status of the job under key.
func (c *Controller) rescaled(key string) {
	_ = c.store.Modify(k8s.KindCharmJob, key, func(obj k8s.Object) {
		job := obj.(*CharmJob)
		job.Status.Phase = JobRunning
		job.Status.LaunchedReplicas = job.Spec.Replicas
		job.Status.Rescales++
	})
}

// restart tears down a job one of whose pods failed and sends it back to
// Pending. view is not written.
func (c *Controller) restart(view *CharmJob) {
	if view.Status.Phase == JobRunning || view.Status.Phase == JobRescaling {
		c.app.Stop(view)
	}
	c.deletePods(view.Name)
	_ = c.store.Modify(k8s.KindCharmJob, view.Key(), func(obj k8s.Object) {
		st := &obj.(*CharmJob).Status
		st.Phase = JobPending
		st.LaunchedReplicas = 0
		st.ReadyReplicas = 0
		st.Restarts++
	})
}

// deletePods deletes every pod filed under the job, in key order: the order
// the pinned event digests record their Deleted events in.
func (c *Controller) deletePods(job string) {
	c.pods = c.store.OwnedPods(c.pods[:0], job)
	slices.SortFunc(c.pods, func(a, b k8s.OwnedPod) int { return strings.Compare(a.Pod.Key(), b.Pod.Key()) })
	for _, p := range c.pods {
		_ = c.store.Delete(k8s.KindPod, p.Pod.Key()) // it was just read
	}
}

// tableSize is how many worker names a job's table holds: as many workers
// as the job may run and the cluster's nodes can hold, so a spec the store
// did not validate cannot size it past what could ever run.
func (c *Controller) tableSize(job *CharmJob) int {
	fit := c.store.CapacityCPU() / max(job.Spec.CPUPerWorker, 1)
	return max(min(job.Spec.MaxReplicas, fit), 0)
}

// writeNodelist creates or updates the job's nodelist ConfigMap, named name,
// which the Charm++ launcher mounts to find its workers (§3.1): the text is
// their names, newline-separated.
func (c *Controller) writeNodelist(job, name, nodelist string) error {
	if _, ok := c.store.View(k8s.KindConfigMap, name); ok {
		return c.store.Modify(k8s.KindConfigMap, name, func(obj k8s.Object) {
			obj.(*k8s.ConfigMap).Data["nodelist"] = nodelist
		})
	}
	return c.store.Create(&k8s.ConfigMap{
		ObjectMeta: k8s.ObjectMeta{Name: name, Labels: map[string]string{"charmjob": job}},
		Data:       map[string]string{"nodelist": nodelist},
	})
}

// Preempt checkpoint-stops a running job for a forced capacity reclaim: the
// application is stopped (persisting its periodic checkpoint, if enabled),
// every pod is deleted, and the job parks in the Preempted phase until the
// policy scheduler restarts it — the §3.2.2 fault-tolerance machinery turned
// into a first-class scheduling action.
func (c *Controller) Preempt(jobName string) error {
	obj, ok := c.store.View(k8s.KindCharmJob, jobName)
	if !ok {
		return fmt.Errorf("operator: job %q not found", jobName)
	}
	job := obj.(*CharmJob)
	if job.Status.Phase == JobSucceeded || job.Status.Phase == JobPreempted {
		return fmt.Errorf("operator: job %q is %s, cannot preempt", jobName, job.Status.Phase)
	}
	c.app.Stop(job)
	err := c.store.Modify(k8s.KindCharmJob, jobName, func(obj k8s.Object) {
		st := &obj.(*CharmJob).Status
		st.Phase = JobPreempted
		st.LaunchedReplicas = 0
		st.ReadyReplicas = 0
		st.Preemptions++
	})
	if err != nil {
		return err
	}
	c.deletePods(jobName)
	return nil
}

// Complete stops the application, marks the job Succeeded, deletes its
// worker and launcher pods, which releases their slots, and drops its name
// table.
func (c *Controller) Complete(jobName string) error {
	obj, ok := c.store.View(k8s.KindCharmJob, jobName)
	if !ok {
		return fmt.Errorf("operator: job %q not found", jobName)
	}
	job := obj.(*CharmJob)
	if job.Status.Phase == JobSucceeded {
		return nil
	}
	c.app.Stop(job)
	err := c.store.Modify(k8s.KindCharmJob, jobName, func(obj k8s.Object) {
		obj.(*CharmJob).Status.Phase = JobSucceeded
	})
	if err != nil {
		return err
	}
	c.deletePods(jobName)
	delete(c.names, jobName)
	return nil
}
