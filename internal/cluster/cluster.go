package cluster

import (
	"fmt"
	"math"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/model"
	"elastichpc/internal/operator"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// Config parameterizes the emulated cluster.
type Config struct {
	// Nodes and CPUPerNode describe the node group (4 × c6g.4xlarge with
	// 16 vCPUs in the paper).
	Nodes      int
	CPUPerNode int
	Policy     core.Policy
	// RescaleGap is T_rescale_gap.
	RescaleGap time.Duration
	// Availability is the capacity timeline applied to the emulation —
	// the same workload.AvailabilityTrace the discrete-event simulator
	// consumes, so one profile drives both backends. Nodes×CPUPerNode is
	// the base capacity; extra nodes are provisioned up front when the
	// trace bursts above it. At equal virtual-clock instants, capacity
	// events fire before submissions (both are scheduled in New/Submit
	// registration order), mirroring the simulator's documented ordering.
	Availability workload.AvailabilityTrace
	// CheckpointPeriod (iterations) enables periodic checkpointing for
	// every submitted job, bounding the work a forced preemption loses
	// (§3.2.2). 0 means preempted jobs restart from scratch.
	CheckpointPeriod int
	// LogDecisions enables the policy scheduler's decision log
	// (core.Config.EnableLog), retrievable via Decisions after a run —
	// the cluster backend's hook into the conformance harness.
	LogDecisions bool
}

// DefaultConfig matches the paper's cluster.
func DefaultConfig(p core.Policy) Config {
	return Config{Nodes: 4, CPUPerNode: 16, Policy: p, RescaleGap: 180 * time.Second}
}

// podStartupDelay is the kubelet's bind→Running latency.
const podStartupDelay = 2 * time.Second

// Cluster is one emulated cluster instance.
type Cluster struct {
	cfg      Config
	machine  model.Machine // the calibrated model every emulated job runs on
	Loop     *k8s.EventLoop
	Store    *k8s.Store
	PodSched *k8s.PodScheduler
	Kubelet  *k8s.Kubelet
	Ctrl     *operator.Controller
	Mgr      *operator.Manager

	apps *modelApps

	// The kinds of the cluster's timers. One carries an index into subs, the
	// availability trace's events or crashes; a completion, the job's Ref.
	submitKind, capacityKind, crashKind, doneKind k8s.TimerKind
	subs                                          []submission
	crashes                                       []string

	// jobs holds every submitted job's record by its core.Job.Ref, the
	// number the manager gives it at Submit; finished counts those done.
	jobs     []jobRecord
	finished int

	// Utilization accounting over bound worker pods: the integral's open
	// term runs from utilLast, on the loop's clock, at usedCPU slots.
	usedCPU  int
	utilTL   []sim.UtilSample
	utilLast time.Duration

	// Per-job replica timelines (Figure 9b): replicaLog holds every job's
	// samples in event order, each with its job's Ref.
	replicaLog []replicaSample

	// ledger is the accountant the simulator keeps too, fed in event order
	// with the utilization integral's terms, the overhead and work-lost
	// areas and the applied capacity steps; Result folds the jobs' terms onto
	// a copy.
	ledger sim.Ledger

	// runErr is the first error raised inside an event-loop callback
	// (capacity events, submissions, completion plumbing). Callbacks cannot
	// return errors across the loop boundary and panicking would cross the
	// library boundary, so the error is captured here and surfaced by Run.
	runErr error
}

// New builds a cluster with its control plane.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 || cfg.CPUPerNode < 1 {
		return nil, fmt.Errorf("cluster: bad node group %dx%d", cfg.Nodes, cfg.CPUPerNode)
	}
	if err := cfg.Availability.Validate(); err != nil {
		return nil, err
	}
	loop := k8s.NewEventLoop(sim.Origin)
	store := k8s.NewStore(loop)
	c := &Cluster{cfg: cfg, machine: model.DefaultMachine(), Loop: loop, Store: store}
	c.PodSched = k8s.NewPodScheduler(loop, store)
	c.Kubelet = k8s.NewKubelet(loop, store, podStartupDelay)
	c.apps = newModelApps(c)
	c.submitKind, c.capacityKind = loop.Handler(c.submit), loop.Handler(c.capacityEvent)
	c.crashKind, c.doneKind = loop.Handler(c.crash), loop.Handler(c.apps.complete)
	c.Ctrl = operator.NewController(loop, store, c.apps)

	mgr, err := operator.NewManager(loop, store, c.Ctrl, core.Config{
		Policy:     cfg.Policy,
		Capacity:   cfg.Nodes * cfg.CPUPerNode,
		RescaleGap: cfg.RescaleGap,
		EnableLog:  cfg.LogDecisions,
	})
	if err != nil {
		return nil, err
	}
	c.Mgr = mgr

	// Provision nodes to the availability trace's burst ceiling: the
	// policy scheduler's time-varying Capacity is what enforces the
	// availability curve, so nodes beyond the current capacity simply
	// stay idle until a burst event hands them out.
	nodes := cfg.Nodes
	if maxCap := cfg.Availability.MaxCapacity(cfg.Nodes * cfg.CPUPerNode); maxCap > cfg.Nodes*cfg.CPUPerNode {
		nodes = int(math.Ceil(float64(maxCap) / float64(cfg.CPUPerNode)))
	}
	for i := 0; i < nodes; i++ {
		node := &k8s.Node{
			ObjectMeta:  k8s.ObjectMeta{Name: fmt.Sprintf("node-%d", i)},
			CapacityCPU: cfg.CPUPerNode,
		}
		if err := store.Create(node); err != nil {
			return nil, err
		}
	}

	// Utilization: integrate bound worker-pod CPU over time.
	store.Subscribe(k8s.KindPod, func(ev k8s.Event) { c.onPodEvent(ev) })
	// Replica timelines: sample on job status updates.
	store.Subscribe(k8s.KindCharmJob, func(ev k8s.Event) { c.onJobEvent(ev) })

	loop.RunUntilIdle()

	// Schedule the availability events — after the control plane settles
	// (RunUntilIdle drains every armed timer) but before any Submit call,
	// so at equal virtual-clock instants a capacity event's timer fires
	// ahead of a submission's, matching the simulator's documented
	// capacity-before-submission ordering.
	for i, ev := range cfg.Availability.Events {
		loop.Arm(model.Duration(ev.At), c.capacityKind, int32(i))
	}
	return c, nil
}

// fail records the first error raised inside an event-loop callback; Run
// surfaces it. Later errors are dropped — they are almost always cascade
// damage from the first one.
func (c *Cluster) fail(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
}

// Decisions returns the policy scheduler's decision log, oldest first
// (empty unless Config.LogDecisions). The slice is the scheduler's own
// (core's Scheduler.Log), not a copy: read-only.
func (c *Cluster) Decisions() []core.Decision {
	return c.Mgr.Scheduler().Log()
}

// capacityEvent applies the availability trace's event i, keeping its exact
// float timestamp for the delivered-capacity integral.
func (c *Cluster) capacityEvent(i int32, _ int64) {
	ev := c.cfg.Availability.Events[i]
	if err := c.Mgr.SetCapacity(ev.Capacity); err != nil {
		c.fail(fmt.Errorf("cluster: capacity event at t=%.1f: %w", ev.At, err))
		return
	}
	c.ledger.CapacityStep(ev.At, ev.Capacity)
}

func (c *Cluster) onPodEvent(ev k8s.Event) {
	// Read used CPU from the store, not from the event (events may
	// coalesce). The store's total is over all bound pods; the only ones
	// that are not workers are the launchers, which request no CPU. Most
	// events leave it as it was, so it is compared before the label is read.
	used := c.Store.BoundCPU()
	if used == c.usedCPU || ev.Object.(*k8s.Pod).Labels["role"] != "worker" {
		return
	}
	now := c.Loop.Elapsed()
	c.ledger.Use(float64(c.usedCPU) * (now - c.utilLast).Seconds())
	c.utilLast = now
	c.usedCPU = used
	c.utilTL = append(c.utilTL, sim.UtilSample{At: now.Seconds(), Used: used})
}

// jobRecord is what the emulation keeps of a job beside the manager's
// record: its class, whether it is done, its running application and
// checkpoint (§3.2.2), the rescale overhead charged to it, and its share of
// the replica log.
type jobRecord struct {
	// class is SubmitWorkload's; a job submitted on its own reads as the
	// zero class.
	class model.Class
	done  bool
	// preempted marks a job stopped by a reclaim, so its restart overhead is
	// attributed to the availability event.
	preempted bool
	// app is the running application, nil when none; checkpoint is the
	// iteration of its last periodic checkpoint, which survives app
	// restarts; overheadSec sums the rescale overhead charged to the job,
	// across its app restarts and past its Stop: its JobMetrics.OverheadSec.
	app         *appState
	checkpoint  float64
	overheadSec float64
	// samples is how many samples the job has in the replica log, last the
	// replica count of the latest.
	samples, last int
}

// record is the record of the job with the Ref.
func (c *Cluster) record(ref int32) *jobRecord {
	if n := int(ref) + 1 - len(c.jobs); n > 0 {
		c.jobs = append(c.jobs, make([]jobRecord, n)...)
	}
	return &c.jobs[ref]
}

// refOf is the job's Ref, refusing a CharmJob the manager did not submit:
// one created in the store directly has none, and so no record.
func refOf(job *operator.CharmJob) (int32, error) {
	ref, ok := job.Ref()
	if !ok {
		return 0, fmt.Errorf("cluster: job %s was not submitted through the manager", job.Name)
	}
	return ref, nil
}

// replicaSample is a replica-log entry: a sample of the job with the Ref.
type replicaSample struct {
	ref    int32
	sample sim.ReplicaSample
}

func (c *Cluster) onJobEvent(ev k8s.Event) {
	if ev.Type == k8s.Deleted {
		return
	}
	job := ev.Object.(*operator.CharmJob)
	cur := job.Status.LaunchedReplicas
	if job.Status.Phase == operator.JobSucceeded {
		cur = 0
	}
	ref, err := refOf(job)
	if err != nil {
		c.fail(err)
		return
	}
	r := c.record(ref)
	if r.samples > 0 && r.last == cur {
		return
	}
	r.samples++
	r.last = cur
	c.replicaLog = append(c.replicaLog, replicaSample{ref, sim.ReplicaSample{
		At: c.Loop.Elapsed().Seconds(), Replicas: cur,
	}})
}

// replicaTimelines copies the replica log's samples and their Refs apart and
// buckets the copy by Ref in place (sim.BucketSamples, as the simulator's
// collection does): the job with Ref r's timeline is
// samples[bounds[r]:bounds[r+1]]. The copy is the caller's, so the log's
// later samples never reach a timeline handed out earlier.
func (c *Cluster) replicaTimelines() (samples []sim.ReplicaSample, bounds []int32) {
	samples = make([]sim.ReplicaSample, len(c.replicaLog))
	refs := make([]int32, len(c.replicaLog))
	for i, x := range c.replicaLog {
		samples[i], refs[i] = x.sample, x.ref
	}
	bounds = make([]int32, len(c.jobs)+1)
	sim.BucketSamples(samples, refs, bounds)
	return samples, bounds
}

// submission is a job a submission's timer hands the manager, and its class.
type submission struct {
	job   *operator.CharmJob
	class model.Class
}

// Submit schedules a CharmJob submission at the given offset from the loop's
// current instant (the start, before Run). A submission the manager rejects
// (duplicate name, invalid spec) surfaces as an error from Run.
func (c *Cluster) Submit(job *operator.CharmJob, at time.Duration) {
	c.subs = append(c.subs, submission{job: job})
	c.Loop.Arm(at, c.submitKind, int32(len(c.subs)-1))
}

// submit hands the job of submission i to the manager and files its class
// under the Ref the manager gives it.
func (c *Cluster) submit(i int32, _ int64) {
	s := &c.subs[i]
	ref, err := c.Mgr.Submit(s.job)
	if err != nil {
		c.fail(fmt.Errorf("cluster: submit %s: %w", s.job.Name, err))
		return
	}
	c.record(ref).class = s.class
}

// FailNode schedules a simulated node crash at the given offset: every pod
// bound to the node fails, triggering the operator's §3.2.2 restart path
// for the affected jobs. The node itself recovers immediately (a reboot),
// so cluster capacity is unchanged.
func (c *Cluster) FailNode(node string, at time.Duration) {
	c.crashes = append(c.crashes, node)
	c.Loop.Arm(at, c.crashKind, int32(len(c.crashes)-1))
}

// crash fails the pods of node crash i.
func (c *Cluster) crash(i int32, _ int64) { k8s.FailPodsOnNode(c.Store, c.crashes[i]) }

// jobDone is called by the modelled application when the final iteration of
// the job with the Ref completes.
func (c *Cluster) jobDone(ref int32, name string) {
	r := c.record(ref)
	if r.done {
		return
	}
	r.done = true
	c.finished++
	if err := c.Mgr.JobFinished(ref); err != nil {
		c.fail(fmt.Errorf("cluster: finish %s: %w", name, err))
	}
}

// Run drives the emulation until every submitted job completes, a callback
// error is captured, or no progress is possible. maxSteps bounds runaway
// reconcile loops.
func (c *Cluster) Run(expectJobs int, maxSteps int) error {
	steps := 0
	ok := c.Loop.RunUntil(func() bool {
		steps++
		if steps > maxSteps || c.runErr != nil {
			return true
		}
		return c.finished >= expectJobs
	})
	if c.runErr != nil {
		return c.runErr
	}
	if !ok || c.finished < expectJobs {
		return fmt.Errorf("cluster: only %d of %d jobs completed after %d steps",
			c.finished, expectJobs, steps)
	}
	return nil
}

// Result computes the experiment metrics in the paper's four-metric form.
// It is side-effect-free and idempotent — the open utilization tail and the
// jobs' terms are folded onto a copy of the ledger — so observing a running
// emulation never changes what it reports later. What it returns is the
// caller's — each completed job's replica timeline is built afresh, the
// utilization timeline is capped — so the run going on never changes a
// Result taken earlier. Jobs is sorted by (SubmitAt, ID), matching the
// simulator's submission ordering, so JSON reports diff cleanly run to run.
func (c *Cluster) Result() sim.Result {
	samples, bounds := c.replicaTimelines()
	var jobs []sim.JobMetrics
	for ref := range c.jobs {
		r := &c.jobs[ref]
		cj, ok := c.Mgr.CoreJob(int32(ref))
		if !r.done || !ok {
			continue
		}
		m := sim.JobMetrics{
			ID:             cj.ID,
			Class:          r.class,
			Priority:       cj.Priority,
			SubmitAt:       cj.SubmitTime.Sub(sim.Origin).Seconds(),
			StartAt:        cj.StartTime.Sub(sim.Origin).Seconds(),
			EndAt:          cj.EndTime.Sub(sim.Origin).Seconds(),
			Rescales:       cj.Rescales,
			OverheadSec:    r.overheadSec,
			ResponseTime:   cj.ResponseTime().Seconds(),
			CompletionTime: cj.CompletionTime().Seconds(),
		}
		if r.samples > 0 {
			// Capped, so an append to one timeline cannot overwrite the next.
			lo, hi := bounds[ref], bounds[ref+1]
			m.Timeline = samples[lo:hi:hi]
		}
		for _, s := range m.Timeline {
			if s.Replicas > m.Replicas {
				m.Replicas = s.Replicas
			}
		}
		jobs = append(jobs, m)
	}
	sim.SortJobs(jobs)
	l := c.ledger
	l.Use(float64(c.usedCPU) * (c.Loop.Elapsed() - c.utilLast).Seconds())
	// Fold the jobs in sorted order, not the done map's: float addition is
	// order-sensitive, so a map-order walk would leave the weighted means
	// nondeterministic in the last ulp.
	for _, m := range jobs {
		l.Started(m.StartAt)
		l.Finished(float64(m.Priority), m.ResponseTime, m.CompletionTime, m.EndAt)
	}
	// The emulation's accounting window can extend marginally past the last
	// job completion: teardown pod events advance utilLast a hair beyond it.
	// Used/DeliveredSlotSec both cover the wider window — self-consistent
	// with each other and with Utilization, slightly wider than the
	// simulator's [0, LastEnd].
	sched := c.Mgr.Scheduler()
	res := l.Result(c.cfg.Policy, c.cfg.Nodes*c.cfg.CPUPerNode, c.utilLast.Seconds(),
		sched.CapacityStats(), sched.Capacity())
	res.Jobs = jobs
	res.UtilTimeline = c.utilTL[:len(c.utilTL):len(c.utilTL)]
	return res
}
