package k8s

import "time"

// Kubelet models the node agents: once the scheduler binds a pod, the
// kubelet pulls the image, creates the container, and reports Running after
// a startup delay. Deleting a pod's object releases its resources
// immediately (we fold graceful termination into the startup budget).
type Kubelet struct {
	store *Store
	// startupDelay is bind→Running latency (image pull + container
	// create). The paper excludes operator/pod startup from simulation
	// but the emulation pays it, as the real EKS runs did.
	startupDelay time.Duration
	// starting are the bound pods whose start is due, each with a timer
	// armed. One delay serves every pod, so the timers fire in this order.
	starting fifo[podStart]
	// Started counts pods this kubelet transitioned to Running.
	Started int
}

// podStart is a pod as the kubelet saw it bound.
type podStart struct {
	key     string
	version int64
}

// NewKubelet creates the kubelet and subscribes it to pod events.
func NewKubelet(loop *EventLoop, store *Store, startupDelay time.Duration) *Kubelet {
	k := &Kubelet{store: store, startupDelay: startupDelay}
	startOldest := func() { k.start(k.starting.pop()) }
	store.Subscribe(KindPod, func(ev Event) {
		if ev.Type == Deleted {
			return
		}
		pod := ev.Object.(*Pod)
		if pod.Spec.NodeName != "" && pod.Status.Phase == PodPending {
			k.starting.push(podStart{pod.Key(), pod.ResourceVersion})
			loop.At(k.startupDelay, startOldest)
		}
	})
	return k
}

// start transitions a bound pod to Running unless it changed or vanished in
// the meantime.
func (k *Kubelet) start(seen podStart) {
	obj, ok := k.store.View(KindPod, seen.key)
	if !ok {
		return
	}
	pod := obj.(*Pod)
	if pod.Status.Phase != PodPending || pod.Spec.NodeName == "" || pod.ResourceVersion != seen.version {
		return
	}
	_ = k.store.SetPodStatus(seen.key, PodStatus{Phase: PodRunning}) // the pod was just seen
	k.Started++
}

// setPhase moves the pod a view shows to the phase.
func setPhase(store *Store, view *Pod, phase PodPhase) bool {
	status := view.Status
	status.Phase = phase
	return store.SetPodStatus(view.Key(), status) == nil
}

// FailPodsOnNode marks every non-terminal pod bound to the node as Failed,
// simulating a node crash. Returns the number of pods failed.
func FailPodsOnNode(store *Store, node string) int {
	n := 0
	for _, pod := range store.Pods(nil) {
		if pod.Spec.NodeName == node && !pod.terminal() && setPhase(store, pod, PodFailed) {
			n++
		}
	}
	return n
}
