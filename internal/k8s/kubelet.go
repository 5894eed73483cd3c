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
	// startKind's timers, one a bound pod, carry its handle; bound holds by
	// handle the seq of the latest and the resource version it saw bound,
	// in chunks that never move, as the store keeps its entries: a table
	// grown by append would leave each outgrown array as garbage.
	startKind TimerKind
	bound     []*[boundChunk]boundPod
	// Started counts pods this kubelet transitioned to Running.
	Started int
}

type boundPod struct{ seq, version int64 }

// boundChunk is how many bound-table slots one allocation holds: 4 KiB.
const boundChunk = 256

// NewKubelet creates the kubelet and subscribes it to pod events.
func NewKubelet(loop *EventLoop, store *Store, startupDelay time.Duration) *Kubelet {
	k := &Kubelet{store: store, startupDelay: startupDelay}
	k.startKind = loop.Handler(k.start)
	store.Subscribe(KindPod, func(ev Event) {
		if ev.Type == Deleted {
			return
		}
		pod := ev.Object.(*Pod)
		if pod.Spec.NodeName != "" && pod.Status.Phase == PodPending {
			for int(pod.handle) >= len(k.bound)*boundChunk {
				k.bound = append(k.bound, new([boundChunk]boundPod))
			}
			*k.at(pod.handle) = boundPod{loop.Arm(k.startupDelay, k.startKind, int32(pod.handle)), pod.ResourceVersion}
		}
	})
	return k
}

// start transitions the pod under h to Running if the timer with the seq is
// the latest armed under h and the pod is as it was seen bound then. A pod's
// events come in write order, each with a version of its own, so a timer the
// latest superseded cannot find its version there. Resource versions are
// never reused, so whatever h stands for now — the pod, a pod re-created
// under its name, another key — only the pod as it was seen carries that
// version.
func (k *Kubelet) start(h int32, seq int64) {
	seen, now := *k.at(Handle(h)), k.store.pod(Handle(h))
	if seen.seq == seq && now != nil && now.ResourceVersion == seen.version {
		_ = k.store.SetPodStatus(Handle(h), PodStatus{Phase: PodRunning}) // the pod was just seen
		k.Started++
	}
}

// at is the bound-table slot of h, which must be in the table.
func (k *Kubelet) at(h Handle) *boundPod {
	return &k.bound[uint32(h)/boundChunk][uint32(h)%boundChunk]
}

// FailPodsOnNode marks every non-terminal pod bound to the node as Failed,
// simulating a node crash. Returns the number of pods failed.
func FailPodsOnNode(store *Store, node string) int {
	n := 0
	for _, pod := range store.Pods(nil) {
		status := pod.Status
		status.Phase = PodFailed
		if pod.Spec.NodeName == node && !pod.terminal() && store.SetPodStatus(pod.handle, status) == nil {
			n++
		}
	}
	return n
}
