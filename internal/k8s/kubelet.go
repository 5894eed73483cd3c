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
	// startFn is start, made once: every bound pod's timer arms it with the
	// pod's view.
	startFn func(any)
	// Started counts pods this kubelet transitioned to Running.
	Started int
}

// NewKubelet creates the kubelet and subscribes it to pod events.
func NewKubelet(loop *EventLoop, store *Store, startupDelay time.Duration) *Kubelet {
	k := &Kubelet{store: store, startupDelay: startupDelay}
	k.startFn = k.start
	store.Subscribe(KindPod, func(ev Event) {
		if ev.Type == Deleted {
			return
		}
		pod := ev.Object.(*Pod)
		if pod.Spec.NodeName != "" && pod.Status.Phase == PodPending {
			loop.AtArg(k.startupDelay, k.startFn, pod)
		}
	})
	return k
}

// start transitions a bound pod to Running unless it changed or vanished in
// the meantime. seen is the view of the pod as the kubelet saw it bound; a
// view never changes, so its handle and resource version are those of then.
// Resource versions are never reused, so whatever the handle stands for now
// — the pod, a pod re-created under its name, another key — only the pod
// as it was seen carries that version.
func (k *Kubelet) start(seen any) {
	bound := seen.(*Pod)
	now := k.store.pod(bound.handle)
	if now == nil || now.ResourceVersion != bound.ResourceVersion {
		return
	}
	_ = k.store.SetPodStatus(bound.handle, PodStatus{Phase: PodRunning}) // the pod was just seen
	k.Started++
}

// setPhase moves the pod a view shows to the phase. The view must be of
// the pod stored now.
func setPhase(store *Store, view *Pod, phase PodPhase) bool {
	status := view.Status
	status.Phase = phase
	return store.SetPodStatus(view.handle, status) == nil
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
