package operator

import (
	"fmt"
	"sort"
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

// workerPod is a view of one of a job's worker pods with the ordinal its
// name carries.
type workerPod struct {
	idx int
	pod *k8s.Pod
}

// workerPods lists the job's worker pods by ordinal. A pod that carries the
// worker labels under a name WorkerName does not produce is not one of them.
func (c *Controller) workerPods(job string) []workerPod {
	pods := c.store.Pods(map[string]string{"charmjob": job, "role": "worker"})
	workers := make([]workerPod, 0, len(pods))
	for _, p := range pods {
		if idx := workerIndex(p.Name); idx >= 0 {
			workers = append(workers, workerPod{idx, p})
		}
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].idx < workers[j].idx })
	return workers
}

// workerIndex returns the ordinal WorkerName put at the end of the name, or
// -1 when the suffix is not exactly what WorkerName writes ("7x", "+7" and
// "07" are not 7).
func workerIndex(name string) int {
	suffix := name[strings.LastIndex(name, "-")+1:]
	idx, err := strconv.Atoi(suffix)
	if err != nil || strconv.Itoa(idx) != suffix {
		return -1
	}
	return idx
}

// reconcile drives one CharmJob toward its spec.
func (c *Controller) reconcile(key string) {
	c.Reconciles++
	obj, ok := c.store.Get(k8s.KindCharmJob, key)
	if !ok {
		return
	}
	job := obj.(*CharmJob)
	if job.Status.Phase == JobSucceeded || job.Status.Phase == JobPreempted {
		// Preempted jobs hold no pods and wait for the policy scheduler
		// to restart them; there is nothing to reconcile toward.
		return
	}

	// Fault tolerance (§3.2.2): a failed worker means the application
	// crashed. Tear the job down and relaunch it; the application resumes
	// from its last checkpoint when Spec.CheckpointPeriod is set ("launch
	// with the extra restart parameter").
	if c.handleFailure(job) {
		return
	}

	workers := c.workerPods(job.Name)
	running := 0
	for _, w := range workers {
		if w.pod.Status.Phase == k8s.PodRunning {
			running++
		}
	}
	if job.Status.ReadyReplicas != running {
		job.Status.ReadyReplicas = running
		if err := c.store.Update(job); err != nil {
			return
		}
		// The update re-enqueues this key; continue there with fresh
		// state.
		return
	}

	// Ensure the launcher pod exists (runs mpirun/charmrun; requests one
	// slot, mirroring the MPI Operator layout).
	if _, ok := c.store.Get(k8s.KindPod, LauncherName(job.Name)); !ok {
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

	// Create missing worker pods up to Spec.Replicas.
	created := false
	have := make(map[int]bool, len(workers))
	for _, w := range workers {
		have[w.idx] = true
	}
	for i := 0; i < job.Spec.Replicas; i++ {
		if have[i] {
			continue
		}
		worker := &k8s.Pod{
			ObjectMeta: k8s.ObjectMeta{
				Name:   WorkerName(job.Name, i),
				Labels: map[string]string{"charmjob": job.Name, "role": "worker"},
			},
			Spec: k8s.PodSpec{
				CPU:         job.Spec.CPUPerWorker,
				ShmBytes:    job.Spec.ShmBytes,
				AffinityKey: job.Name,
			},
			Status: k8s.PodStatus{Phase: k8s.PodPending},
		}
		if err := c.store.Create(worker); err != nil {
			return
		}
		created = true
	}
	if created {
		return // pod events re-enqueue when they start running
	}

	// Wait for the desired workers to be running.
	desired := job.Spec.Replicas
	runningSet := runningNodelist(workers, desired)
	if len(runningSet) < desired {
		c.queue.AddAfter(key, c.RequeueDelay)
		return
	}

	switch {
	case job.Status.Phase == JobPending || job.Status.Phase == "":
		// First launch: write the nodelist, start the application.
		if err := c.writeNodelist(job.Name, runningSet); err != nil {
			return
		}
		if err := c.app.Launch(job, runningSet); err != nil {
			c.queue.AddAfter(key, c.RequeueDelay)
			return
		}
		job.Status.Phase = JobRunning
		job.Status.LaunchedReplicas = desired
		job.Status.Nodelist = runningSet
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
		for i := desired; i < job.Status.LaunchedReplicas; i++ {
			_ = c.store.Delete(k8s.KindPod, WorkerName(job.Name, i))
		}
		if err := c.writeNodelist(job.Name, runningSet); err != nil {
			return
		}
		c.rescaled(job, runningSet)

	case desired > job.Status.LaunchedReplicas:
		// Expand (§3.1): pods were added above and are running; update
		// the nodelist, then signal the application.
		if err := c.writeNodelist(job.Name, runningSet); err != nil {
			return
		}
		if err := c.app.Expand(job, desired, runningSet); err != nil {
			c.queue.AddAfter(key, c.RequeueDelay)
			return
		}
		c.rescaled(job, runningSet)
	}
}

// rescaled records a shrink or expand the application has acknowledged in the
// job's status and reports it.
func (c *Controller) rescaled(job *CharmJob, nodelist []string) {
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

// handleFailure restarts a job whose pods failed. It reports whether a
// restart was initiated (the reconcile pass should stop; the pod deletions
// re-enqueue the job).
func (c *Controller) handleFailure(job *CharmJob) bool {
	failed := false
	for _, p := range c.store.Pods(map[string]string{"charmjob": job.Name}) {
		if p.Status.Phase == k8s.PodFailed {
			failed = true
			break
		}
	}
	if !failed {
		return false
	}
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
	return true
}

// runningNodelist returns the DNS-style names of the first `desired` worker
// pods that are Running.
func runningNodelist(workers []workerPod, desired int) []string {
	var hosts []string
	for _, w := range workers {
		if w.idx < desired && w.pod.Status.Phase == k8s.PodRunning {
			hosts = append(hosts, w.pod.Name)
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
	if _, ok := c.store.Get(k8s.KindConfigMap, NodelistName(job)); ok {
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

// Complete marks a job Succeeded, marks its pods Succeeded (releasing their
// slots), stops the application, and deletes its worker/launcher pods.
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
