package k8s

import (
	"sort"
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
	unschedulable  map[string]bool
}

// NewPodScheduler creates the scheduler and subscribes it to pod and node
// events.
func NewPodScheduler(loop *EventLoop, store *Store) *PodScheduler {
	ps := &PodScheduler{store: store, unschedulable: make(map[string]bool)}
	ps.queue = NewWorkqueue(loop, 0, ps.schedule) // it never requeues
	store.Subscribe(KindPod, func(ev Event) {
		pod := ev.Object.(*Pod)
		switch ev.Type {
		case Added, Modified:
			if pod.Spec.NodeName == "" && pod.Status.Phase == PodPending {
				ps.queue.Add(pod.Key())
			}
			// A pod reaching a terminal phase releases capacity.
			if pod.terminal() {
				ps.retryUnschedulable()
			}
		case Deleted:
			delete(ps.unschedulable, pod.Key())
			ps.retryUnschedulable()
		}
	})
	store.Subscribe(KindNode, func(ev Event) { ps.retryUnschedulable() })
	return ps
}

// retryUnschedulable requeues pods that previously failed to place; capacity
// may have been freed.
func (ps *PodScheduler) retryUnschedulable() {
	keys := make([]string, 0, len(ps.unschedulable))
	for k := range ps.unschedulable {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ps.queue.Add(k)
	}
}

// schedule runs the filter/score pipeline for one pending pod.
func (ps *PodScheduler) schedule(key string) {
	obj, ok := ps.store.View(KindPod, key)
	if !ok {
		delete(ps.unschedulable, key)
		return
	}
	pod := obj.(*Pod)
	if pod.Spec.NodeName != "" || pod.Status.Phase != PodPending {
		delete(ps.unschedulable, key)
		return
	}

	// Filter on CPU, then rank: affinity dominates (pods of the same job
	// pack together for communication locality), then bin-packing (prefer
	// fuller nodes so large jobs find whole free nodes), then name. The
	// three are compared in turn, so no amount of free CPU outweighs one
	// pod of affinity.
	var best *Node
	bestAffinity, bestFree := 0, 0
	for _, n := range ps.store.Nodes() {
		free := n.CapacityCPU - ps.store.NodeBoundCPU(n.Name)
		if free < pod.Spec.CPU {
			continue
		}
		affinity := ps.store.AffinityCount(pod.Spec.AffinityKey, n.Name)
		if best == nil || affinity > bestAffinity ||
			affinity == bestAffinity && (free < bestFree || free == bestFree && n.Name < best.Name) {
			best, bestAffinity, bestFree = n, affinity, free
		}
	}
	if best == nil {
		ps.unschedulable[key] = true
		ps.FailedBindings++
		return
	}
	delete(ps.unschedulable, key)

	if err := ps.store.Bind(key, best.Name); err != nil {
		// The pod vanished since it was looked at; it will be retried
		// if it reappears.
		ps.unschedulable[key] = true
	}
}
