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
	// names holds each job's name table by the job's handle, from its first
	// reconcile until Complete.
	names map[k8s.Handle]jobNames
	// launcher, worker and nodelist are the structs reconcile and
	// writeNodelist hand Create, overwritten for each: the store keeps a
	// copy of the struct (and the maps it holds), never the struct itself.
	launcher, worker k8s.Pod
	nodelist         k8s.ConfigMap

	// Reconciles counts reconcile passes (observability for tests).
	Reconciles int
}

// requeueDelay spaces retries when a job is waiting on pods or the
// application refused a launch or rescale.
const requeueDelay = time.Second

// NewController wires a controller to the store and application runtime.
func NewController(loop *k8s.EventLoop, store *k8s.Store, app AppRuntime) *Controller {
	c := &Controller{loop: loop, store: store, app: app, names: make(map[k8s.Handle]jobNames)}
	c.queue = k8s.NewWorkqueue(store, requeueDelay, c.reconcile)
	store.OwnPodsBy(podOwner)
	store.Subscribe(k8s.KindCharmJob, func(ev k8s.Event) {
		if ev.Type == k8s.Deleted {
			return
		}
		c.queue.Add(ev.Handle)
	})
	// Pod events wake the owning job's reconcile (the informer pattern): the
	// job the pod is filed under, its charmjob label's handle.
	store.Subscribe(k8s.KindPod, func(ev k8s.Event) {
		if owner := ev.Object.(*k8s.Pod).Owner(); owner != 0 {
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

// reconcile drives the CharmJob under h toward its spec.
func (c *Controller) reconcile(h k8s.Handle) {
	c.Reconciles++
	obj, ok := c.store.View(k8s.KindCharmJob, h)
	if !ok {
		return
	}
	job := obj.(*CharmJob) // a view: the job is written through Modify
	if job.Status.Phase == JobSucceeded || job.Status.Phase == JobPreempted {
		// Preempted jobs hold no pods and wait for the policy scheduler
		// to restart them; there is nothing to reconcile toward.
		return
	}
	names, ok := c.names[h]
	if !ok || names.job != job.Name {
		names = newJobNames(job.Name, c.tableSize(job))
		c.names[h] = names
	}

	// One read of the job's pods serves the whole pass: whatever has no
	// ordinal first, then the workers in ordinal order.
	c.pods = c.store.OwnedPods(c.pods[:0], h)
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
		c.restart(h, job)
		return
	}

	if job.Status.ReadyReplicas != running {
		// The write re-enqueues this key; continue there with fresh
		// state.
		_ = k8s.Modify(c.store, h, func(job *CharmJob) { job.Status.ReadyReplicas = running })
		return
	}

	// Ensure the launcher pod exists (runs mpirun/charmrun; requests one
	// slot, mirroring the MPI Operator layout).
	if _, ok := c.store.View(k8s.KindPod, c.store.Lookup(names.launcher)); !ok {
		c.launcher = k8s.Pod{
			ObjectMeta: k8s.ObjectMeta{Name: names.launcher, Labels: names.launcherLabels},
			// The launcher is lightweight; it does not reserve a
			// worker slot (the paper's experiments size jobs up to
			// the full 64 vCPUs).
			Spec:   k8s.PodSpec{CPU: 0, AffinityKey: job.Name},
			Status: k8s.PodStatus{Phase: k8s.PodPending},
		}
		if err := c.store.Create(&c.launcher); err != nil {
			return
		}
	}

	// Create missing worker pods up to Spec.Replicas; next walks the
	// workers beside the ordinals. The store keeps a copy of the struct
	// Create is given, so one pod, renamed, describes them all.
	created := false
	next := 0
	for i := 0; i < desired; i++ {
		for next < len(workers) && workers[next].Ordinal < i {
			next++
		}
		if next < len(workers) && workers[next].Ordinal == i {
			continue
		}
		if !created {
			created = true
			c.worker = k8s.Pod{
				ObjectMeta: k8s.ObjectMeta{Labels: names.workerLabels},
				Spec: k8s.PodSpec{
					CPU:         job.Spec.CPUPerWorker,
					ShmBytes:    job.Spec.ShmBytes,
					AffinityKey: job.Name,
				},
				Status: k8s.PodStatus{Phase: k8s.PodPending},
			}
		}
		c.worker.Name = names.worker(job.Name, i)
		if err := c.store.Create(&c.worker); err != nil {
			return
		}
	}
	if created {
		return // pod events re-enqueue when they start running
	}

	// Wait for the desired workers to be running.
	if ready < desired {
		c.queue.Requeue(h)
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
		if err := c.writeNodelist(&names, text); err != nil {
			return
		}
		if err := c.app.Launch(job, nodelist); err != nil {
			c.queue.Requeue(h)
			return
		}
		_ = k8s.Modify(c.store, h, func(job *CharmJob) {
			job.Status.Phase = JobRunning
			job.Status.LaunchedReplicas = desired
		})

	case desired < job.Status.LaunchedReplicas:
		// Shrink (§3.1): signal first, remove pods only after the ack.
		if err := c.app.Shrink(job, desired); err != nil {
			c.queue.Requeue(h)
			return
		}
		for _, w := range workers {
			if w.Ordinal >= desired && w.Ordinal < job.Status.LaunchedReplicas {
				_ = c.store.Delete(k8s.KindPod, w.Pod.Handle()) // it was just read
			}
		}
		if err := c.writeNodelist(&names, text); err != nil {
			return
		}
		c.rescaled(h)

	default:
		// Expand (§3.1): pods were added above and are running; update
		// the nodelist, then signal the application.
		if err := c.writeNodelist(&names, text); err != nil {
			return
		}
		if err := c.app.Expand(job, desired, nodelist); err != nil {
			c.queue.Requeue(h)
			return
		}
		c.rescaled(h)
	}
}

// rescaled records a shrink or expand the application has acknowledged in the
// status of the job under h.
func (c *Controller) rescaled(h k8s.Handle) {
	_ = k8s.Modify(c.store, h, func(job *CharmJob) {
		job.Status.Phase = JobRunning
		job.Status.LaunchedReplicas = job.Spec.Replicas
		job.Status.Rescales++
	})
}

// restart tears down the job under h, one of whose pods failed, and sends it
// back to Pending. view, the job's, is not written.
func (c *Controller) restart(h k8s.Handle, view *CharmJob) {
	if view.Status.Phase == JobRunning || view.Status.Phase == JobRescaling {
		c.app.Stop(view)
	}
	c.deletePods(h)
	_ = k8s.Modify(c.store, h, func(job *CharmJob) {
		st := &job.Status
		st.Phase = JobPending
		st.LaunchedReplicas = 0
		st.ReadyReplicas = 0
		st.Restarts++
	})
}

// deletePods deletes every pod filed under the job under h, in key order:
// the order the pinned event digests record their Deleted events in.
func (c *Controller) deletePods(h k8s.Handle) {
	c.pods = c.store.OwnedPods(c.pods[:0], h)
	slices.SortFunc(c.pods, func(a, b k8s.OwnedPod) int { return strings.Compare(a.Pod.Key(), b.Pod.Key()) })
	for _, p := range c.pods {
		_ = c.store.Delete(k8s.KindPod, p.Pod.Handle()) // it was just read
	}
}

// tableSize is how many worker names a job's table holds: as many workers
// as the job may run and the cluster's nodes can hold, so a spec the store
// did not validate cannot size it past what could ever run.
func (c *Controller) tableSize(job *CharmJob) int {
	fit := c.store.CapacityCPU() / max(job.Spec.CPUPerWorker, 1)
	return max(min(job.Spec.MaxReplicas, fit), 0)
}

// writeNodelist creates or updates the nodelist ConfigMap of the job whose
// name table names is, which the Charm++ launcher mounts to find its workers
// (§3.1): the text is their names, newline-separated. The store does not
// validate a ConfigMap, so one already there may have no data map. A created
// ConfigMap's data map is made afresh: the store keeps it.
func (c *Controller) writeNodelist(names *jobNames, nodelist string) error {
	h := c.store.Lookup(names.nodelist)
	if _, ok := c.store.View(k8s.KindConfigMap, h); ok {
		return k8s.Modify(c.store, h, func(cm *k8s.ConfigMap) {
			if cm.Data == nil {
				cm.Data = make(map[string]string, 1)
			}
			cm.Data["nodelist"] = nodelist
		})
	}
	c.nodelist = k8s.ConfigMap{
		ObjectMeta: k8s.ObjectMeta{Name: names.nodelist, Labels: names.nodelistLabels},
		Data:       map[string]string{"nodelist": nodelist},
	}
	return c.store.Create(&c.nodelist)
}

// Preempt checkpoint-stops a running job for a forced capacity reclaim: the
// application is stopped (persisting its periodic checkpoint, if enabled),
// every pod is deleted, and the job parks in the Preempted phase until the
// policy scheduler restarts it — the §3.2.2 fault-tolerance machinery turned
// into a first-class scheduling action.
func (c *Controller) Preempt(jobName string) error {
	h := c.store.Lookup(jobName)
	obj, ok := c.store.View(k8s.KindCharmJob, h)
	if !ok {
		return fmt.Errorf("operator: job %q not found", jobName)
	}
	job := obj.(*CharmJob)
	if job.Status.Phase == JobSucceeded || job.Status.Phase == JobPreempted {
		return fmt.Errorf("operator: job %q is %s, cannot preempt", jobName, job.Status.Phase)
	}
	c.app.Stop(job)
	err := k8s.Modify(c.store, h, func(job *CharmJob) {
		st := &job.Status
		st.Phase = JobPreempted
		st.LaunchedReplicas = 0
		st.ReadyReplicas = 0
		st.Preemptions++
	})
	if err != nil {
		return err
	}
	c.deletePods(h)
	return nil
}

// Complete stops the application, marks the job Succeeded, deletes its
// worker and launcher pods, which releases their slots, and drops its name
// table.
func (c *Controller) Complete(jobName string) error {
	h := c.store.Lookup(jobName)
	obj, ok := c.store.View(k8s.KindCharmJob, h)
	if !ok {
		return fmt.Errorf("operator: job %q not found", jobName)
	}
	job := obj.(*CharmJob)
	if job.Status.Phase == JobSucceeded {
		return nil
	}
	c.app.Stop(job)
	err := k8s.Modify(c.store, h, func(job *CharmJob) { job.Status.Phase = JobSucceeded })
	if err != nil {
		return err
	}
	c.deletePods(h)
	delete(c.names, h)
	return nil
}
