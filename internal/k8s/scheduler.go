package k8s

import (
	"slices"
	"strings"
)

// PodScheduler is the kube-scheduler analogue: it watches for pending pods
// and binds them to nodes using a filter/score pipeline. The paper uses the
// default kube-scheduler with pod affinity added by the operator for
// locality-aware placement (§3.1); the scoring below models that pipeline:
// feasibility filtering on CPU, then affinity packing (prefer nodes already
// hosting pods of the same job) with bin-packing as the tie-break.
type PodScheduler struct {
	store *Store
	queue *Workqueue
	// FailedBindings counts pods that could not be placed on any node;
	// they stay Pending and are retried on the next cluster change.
	FailedBindings int
	// unschedulable holds the pods that failed to place, each handle held
	// in the store while it is here.
	unschedulable map[Handle]bool
}

// NewPodScheduler creates the scheduler and subscribes it to pod and node
// events.
func NewPodScheduler(loop *EventLoop, store *Store) *PodScheduler {
	ps := &PodScheduler{store: store, unschedulable: make(map[Handle]bool)}
	ps.queue = NewWorkqueue(store, 0, ps.schedule) // it never requeues
	store.Subscribe(KindPod, func(ev Event) {
		pod := ev.Object.(*Pod)
		switch ev.Type {
		case Added, Modified:
			if pod.Spec.NodeName == "" && pod.Status.Phase == PodPending {
				ps.queue.Add(ev.Handle)
			}
			// A pod reaching a terminal phase releases capacity.
			if pod.terminal() {
				ps.retryUnschedulable()
			}
		case Deleted:
			ps.forget(ev.Handle)
			ps.retryUnschedulable()
		}
	})
	store.Subscribe(KindNode, func(ev Event) { ps.retryUnschedulable() })
	return ps
}

// mark files a pod as unschedulable; forget takes it out.
func (ps *PodScheduler) mark(h Handle) {
	if !ps.unschedulable[h] {
		ps.unschedulable[h] = true
		ps.store.retain(h)
	}
}

func (ps *PodScheduler) forget(h Handle) {
	if ps.unschedulable[h] {
		delete(ps.unschedulable, h)
		ps.store.release(h)
	}
}

// retryUnschedulable requeues pods that previously failed to place, in key
// order; capacity may have been freed.
func (ps *PodScheduler) retryUnschedulable() {
	if len(ps.unschedulable) == 0 {
		return
	}
	handles := make([]Handle, 0, len(ps.unschedulable))
	for h := range ps.unschedulable { //lint:deterministic sorted by key below
		handles = append(handles, h)
	}
	slices.SortFunc(handles, func(a, b Handle) int { return strings.Compare(ps.store.entry(a).key, ps.store.entry(b).key) })
	for _, h := range handles {
		ps.queue.Add(h)
	}
}

// schedule runs the filter/score pipeline for one pending pod.
func (ps *PodScheduler) schedule(h Handle) {
	pod := ps.store.pod(h)
	if pod == nil || pod.Spec.NodeName != "" || pod.Status.Phase != PodPending {
		ps.forget(h)
		return
	}

	// Filter on CPU, then rank: affinity dominates (pods of the same job
	// pack together for communication locality), then bin-packing (prefer
	// fuller nodes so large jobs find whole free nodes), then name. The
	// three are compared in turn, so no amount of free CPU outweighs one
	// pod of affinity.
	var best *Node
	var bestAt Handle
	bestAffinity, bestFree := 0, 0
	for i, n := range ps.store.Nodes() {
		at := ps.store.nodeHandles[i]
		free := n.CapacityCPU - ps.store.NodeBoundCPU(at)
		if free < pod.Spec.CPU {
			continue
		}
		affinity := ps.store.AffinityCount(pod.affinity, at)
		if best == nil || affinity > bestAffinity ||
			affinity == bestAffinity && (free < bestFree || free == bestFree && n.Name < best.Name) {
			best, bestAt, bestAffinity, bestFree = n, at, affinity, free
		}
	}
	if best == nil {
		ps.mark(h)
		ps.FailedBindings++
		return
	}
	ps.forget(h)

	if err := ps.store.Bind(h, bestAt); err != nil {
		// The pod vanished since it was looked at; it will be retried
		// if it reappears.
		ps.mark(h)
	}
}
