package cluster

import (
	"fmt"
	"math"
	"sort"
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
	// Machine calibrates the modelled application performance.
	Machine model.Machine
	// PodStartupDelay is the kubelet bind→Running latency.
	PodStartupDelay time.Duration
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
	return Config{
		Nodes: 4, CPUPerNode: 16, Policy: p,
		RescaleGap:      180 * time.Second,
		Machine:         model.DefaultMachine(),
		PodStartupDelay: 2 * time.Second,
	}
}

// Cluster is one emulated cluster instance.
type Cluster struct {
	cfg      Config
	Loop     *k8s.EventLoop
	Store    *k8s.Store
	PodSched *k8s.PodScheduler
	Kubelet  *k8s.Kubelet
	Ctrl     *operator.Controller
	Mgr      *operator.Manager

	apps  *modelApps
	start time.Time

	// Utilization accounting over bound worker pods.
	usedCPU  int
	utilTL   []sim.UtilSample
	utilArea float64
	utilLast time.Time

	// Per-job replica timelines (Figure 9b).
	replicaTL map[string][]sim.ReplicaSample

	done map[string]bool

	// Availability accounting, mirroring the simulator's: capSteps is
	// the applied capacity curve (for the delivered-capacity utilization
	// denominator), preempted marks jobs stopped by a reclaim so their
	// restart overhead is attributed to the availability event, workLost
	// and overheadArea are replica-seconds (forced-only and total).
	capSteps     []sim.UtilSample
	capEvents    int
	preempted    map[string]bool
	workLost     float64
	overheadArea float64

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
	start := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	loop := k8s.NewEventLoop(start)
	store := k8s.NewStore(loop)
	c := &Cluster{
		cfg: cfg, Loop: loop, Store: store, start: start,
		utilLast:  start,
		replicaTL: make(map[string][]sim.ReplicaSample),
		done:      make(map[string]bool),
		preempted: make(map[string]bool),
	}
	c.PodSched = k8s.NewPodScheduler(loop, store)
	c.Kubelet = k8s.NewKubelet(loop, store, cfg.PodStartupDelay)
	c.apps = newModelApps(c)
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
	for _, ev := range cfg.Availability.Events {
		c.scheduleCapacity(ev.At, ev.Capacity)
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

// Err returns the first error captured from an event-loop callback, or nil.
func (c *Cluster) Err() error { return c.runErr }

// Decisions returns the policy scheduler's decision log, oldest first
// (empty unless Config.LogDecisions).
func (c *Cluster) Decisions() []core.Decision {
	return c.Mgr.Scheduler().Log()
}

// SetCapacityAt schedules a cluster-capacity change at the given offset from
// start — the same path availability-trace events take. Unlike the trace
// handed to New, the change is not pre-validated; an invalid capacity (or a
// reclaim the actuator refuses) surfaces as an error from Run.
func (c *Cluster) SetCapacityAt(at time.Duration, capacity int) {
	c.scheduleCapacity(at.Seconds(), capacity)
}

// scheduleCapacity arms one capacity event at atSec seconds from start,
// keeping the trace's exact float timestamp for the delivered-capacity
// integral.
func (c *Cluster) scheduleCapacity(atSec float64, capacity int) {
	c.Loop.At(time.Duration(atSec*float64(time.Second)), func() {
		if err := c.Mgr.SetCapacity(capacity); err != nil {
			c.fail(fmt.Errorf("cluster: capacity event at t=%.1f: %w", atSec, err))
			return
		}
		c.capEvents++
		c.capSteps = append(c.capSteps, sim.UtilSample{At: atSec, Used: capacity})
	})
}

func (c *Cluster) onPodEvent(ev k8s.Event) {
	pod := ev.Object.(*k8s.Pod)
	if pod.Labels["role"] != "worker" {
		return
	}
	// Read used CPU from the store, not from the event (events may
	// coalesce). The store's total is over all bound pods; the only ones
	// that are not workers are the launchers, which request no CPU.
	used := c.Store.BoundCPU()
	if used == c.usedCPU {
		return
	}
	now := c.Loop.Now()
	c.utilArea += float64(c.usedCPU) * now.Sub(c.utilLast).Seconds()
	c.utilLast = now
	c.usedCPU = used
	c.utilTL = append(c.utilTL, sim.UtilSample{At: now.Sub(c.start).Seconds(), Used: used})
}

func (c *Cluster) onJobEvent(ev k8s.Event) {
	if ev.Type == k8s.Deleted {
		return
	}
	job := ev.Object.(*operator.CharmJob)
	tl := c.replicaTL[job.Name]
	cur := job.Status.LaunchedReplicas
	if job.Status.Phase == operator.JobSucceeded {
		cur = 0
	}
	if len(tl) > 0 && tl[len(tl)-1].Replicas == cur {
		return
	}
	c.replicaTL[job.Name] = append(tl, sim.ReplicaSample{
		At: c.Loop.Now().Sub(c.start).Seconds(), Replicas: cur,
	})
}

// Submit schedules a CharmJob submission at the given offset from start. A
// submission the manager rejects (duplicate name, invalid spec) surfaces as
// an error from Run.
func (c *Cluster) Submit(job *operator.CharmJob, at time.Duration) {
	c.Loop.At(at, func() {
		if err := c.Mgr.Submit(job); err != nil {
			c.fail(fmt.Errorf("cluster: submit %s: %w", job.Name, err))
		}
	})
}

// FailNode schedules a simulated node crash at the given offset: every pod
// bound to the node fails, triggering the operator's §3.2.2 restart path
// for the affected jobs. The node itself recovers immediately (a reboot),
// so cluster capacity is unchanged.
func (c *Cluster) FailNode(node string, at time.Duration) {
	c.Loop.At(at, func() {
		k8s.FailPodsOnNode(c.Store, node)
	})
}

// jobDone is called by the modelled application when a job's final
// iteration completes.
func (c *Cluster) jobDone(name string) {
	if c.done[name] {
		return
	}
	c.done[name] = true
	if err := c.Mgr.JobFinished(name); err != nil {
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
		return len(c.done) >= expectJobs
	})
	if c.runErr != nil {
		return c.runErr
	}
	if !ok || len(c.done) < expectJobs {
		return fmt.Errorf("cluster: only %d of %d jobs completed after %d steps",
			len(c.done), expectJobs, steps)
	}
	return nil
}

// Result computes the experiment metrics in the paper's four-metric form.
// It is side-effect-free and idempotent: the open tail of the utilization
// integral is folded into locals, so consecutive calls return deep-equal
// results, and Jobs is sorted by (SubmitAt, ID) — matching the simulator's
// submission ordering — so JSON reports diff cleanly run to run.
func (c *Cluster) Result() sim.Result {
	res := sim.Result{
		Policy:           c.cfg.Policy,
		UtilTimeline:     c.utilTL,
		ReplicaTimelines: c.replicaTL,
	}
	capacity := float64(c.cfg.Nodes * c.cfg.CPUPerNode)
	for name := range c.done { //lint:deterministic res.Jobs is sorted below, before anything folds over it
		cj, ok := c.Mgr.CoreJob(name)
		if !ok {
			continue
		}
		m := sim.JobMetrics{
			ID:             name,
			Priority:       cj.Priority,
			SubmitAt:       cj.SubmitTime.Sub(c.start).Seconds(),
			StartAt:        cj.StartTime.Sub(c.start).Seconds(),
			EndAt:          cj.EndTime.Sub(c.start).Seconds(),
			Rescales:       cj.Rescales,
			ResponseTime:   cj.ResponseTime().Seconds(),
			CompletionTime: cj.CompletionTime().Seconds(),
		}
		for _, s := range c.replicaTL[name] {
			if s.Replicas > m.Replicas {
				m.Replicas = s.Replicas
			}
		}
		res.Jobs = append(res.Jobs, m)
	}
	sort.Slice(res.Jobs, func(a, b int) bool {
		if res.Jobs[a].SubmitAt != res.Jobs[b].SubmitAt {
			return res.Jobs[a].SubmitAt < res.Jobs[b].SubmitAt
		}
		return res.Jobs[a].ID < res.Jobs[b].ID
	})
	// Accumulate the aggregates over the sorted slice, not the done map:
	// float addition is order-sensitive, so a map-order walk would leave
	// the weighted means nondeterministic in the last ulp.
	var firstStart, lastEnd float64
	first := true
	var wSum, wResp, wComp float64
	for _, m := range res.Jobs {
		if first || m.StartAt < firstStart {
			firstStart, first = m.StartAt, false
		}
		if m.EndAt > lastEnd {
			lastEnd = m.EndAt
		}
		w := float64(m.Priority)
		wSum += w
		wResp += w * m.ResponseTime
		wComp += w * m.CompletionTime
	}
	res.TotalTime = lastEnd - firstStart
	res.FirstStart = firstStart
	res.LastEnd = lastEnd
	res.WeightSum = wSum
	res.EndCapacity = c.Mgr.Scheduler().Capacity()
	// The emulation's accounting window can extend marginally past the last
	// job completion: teardown pod events advance utilLast a hair beyond
	// lastEnd. Used/DeliveredSlotSec both cover [0, end] — self-consistent
	// with each other and with Utilization, slightly wider than the
	// simulator's documented [0, LastEnd] window.
	end := c.utilLast.Sub(c.start).Seconds()
	if lastEnd > end {
		end = lastEnd
	}
	// Fold the open tail interval [utilLast, now] into a local instead of
	// mutating the accumulator: Result must not change what a later Result
	// (or a still-running experiment) observes.
	utilArea := c.utilArea + float64(c.usedCPU)*c.Loop.Now().Sub(c.utilLast).Seconds()
	res.UsedSlotSec = utilArea
	if end > 0 {
		if len(c.capSteps) == 0 {
			res.DeliveredSlotSec = capacity * end
		} else {
			// Time-varying capacity: divide by what was deliverable,
			// through the exact integral the simulator uses.
			res.DeliveredSlotSec = sim.CapacityArea(capacity, c.capSteps, end)
		}
		res.Utilization = utilArea / res.DeliveredSlotSec
	}
	if wSum > 0 {
		res.WeightedResponse = wResp / wSum
		res.WeightedCompletion = wComp / wSum
	}
	cs := c.Mgr.Scheduler().CapacityStats()
	res.CapacityEvents = c.capEvents
	res.ForcedShrinks = cs.ForcedShrinks
	res.Requeues = cs.Requeues
	res.WorkLostSec = c.workLost
	res.GoodputFrac = 1
	if utilArea > 0 {
		res.GoodputFrac = 1 - c.overheadArea/utilArea
	}
	return res
}
