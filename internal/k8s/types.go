// Package k8s implements a self-contained Kubernetes substrate: a versioned
// object store with watches, a pod scheduler with resource filtering and
// affinity-aware scoring, a kubelet state machine with pod startup latency,
// and a controller/workqueue framework. It stands in for the EKS cluster and
// kube machinery of the paper's evaluation (§2.3, §4) so the Charm operator
// (internal/operator) runs against the same control-plane concepts it would
// in a real cluster: CRDs, reconcile loops, pod lifecycle, and nodelists.
//
// The substrate is single-threaded by design: every component is driven by a
// EventLoop (the emulation's event loop on a virtual clock), which makes full
// scheduling experiments deterministic and replayable. A component registers
// a handler for each kind of timer it arms (EventLoop.Handler), and a timer
// carries its kind and an int32, a handle or an index: the heap of timers
// holds no pointer.
//
// Names are the API's edges; handles are its inside. Create, Update and Pods
// take objects and selectors by name, Lookup turns a key into its Handle,
// and FailPodsOnNode takes a node's name. Every other call — View, Modify,
// Delete, Bind, SetPodStatus, OwnedPods, NodeBoundCPU, AffinityCount and the
// Workqueue — takes handles, and the store keys every index it keeps on
// write by them: a write hashes no name.
package k8s

import (
	"fmt"
	"maps"
)

// Kind identifies an object type in the store: a small number, so the store
// keeps what it holds of a kind in an array slot rather than a map entry.
type Kind uint8

// Object kinds used by the cluster emulation.
const (
	KindNode Kind = iota
	KindPod
	KindCharmJob
	KindConfigMap
	kindCount // how many kinds there are: every per-kind array's length
)

var kindNames = [kindCount]string{"Node", "Pod", "CharmJob", "ConfigMap"}

// String returns the kind's name.
func (k Kind) String() string {
	if k < kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Handle is the store's dense number for a key (an object's namespace/name,
// or a name a stored pod refers to: its owner, its node, its affinity key).
// The zero Handle stands for nothing. A handle stands for its key for as long
// as anything the store tracks refers to it — an object of any kind stored
// under the key, a stored pod naming it, an undelivered event or a workqueue
// entry holding it — and may then stand for another key.
type Handle int32

// ObjectMeta is the standard object metadata subset we model.
type ObjectMeta struct {
	Name            string
	Namespace       string
	ResourceVersion int64
	Labels          map[string]string
}

// Key returns the namespace/name key.
func (m *ObjectMeta) Key() string {
	if m.Namespace == "" {
		return m.Name
	}
	return m.Namespace + "/" + m.Name
}

// Object is any resource stored in the API store.
type Object interface {
	Meta() *ObjectMeta
	Kind() Kind
	DeepCopy() Object
}

// PodPhase is the pod lifecycle phase.
type PodPhase string

// Pod phases we model.
const (
	PodPending   PodPhase = "Pending"
	PodRunning   PodPhase = "Running"
	PodSucceeded PodPhase = "Succeeded"
	PodFailed    PodPhase = "Failed"
)

// PodSpec is the scheduling-relevant subset of a pod spec.
type PodSpec struct {
	// NodeName is set by the scheduler when the pod is bound.
	NodeName string
	// CPU is the requested vCPU count (1 worker slot = 1 vCPU, matching
	// the paper's one-PE-per-worker non-SMP configuration).
	CPU int
	// ShmBytes is the size of the memory-backed emptyDir mounted at
	// /dev/shm (the operator's workaround for the 64MB default, §3.1).
	ShmBytes int64
	// AffinityKey requests co-location: the scheduler prefers nodes that
	// already run pods with the same key (the operator sets it to the job
	// name for locality-aware placement, §3.1).
	AffinityKey string
}

// PodStatus is the observed pod state.
type PodStatus struct {
	Phase PodPhase
}

// Pod is a kubernetes pod.
type Pod struct {
	ObjectMeta
	Spec   PodSpec
	Status PodStatus
	// The store sets the rest on every version it keeps: handle is the
	// pod's own; owner and ordinal are what Store.OwnPodsBy's function made
	// of the pod, the owner's name as a handle; node and affinity are the
	// handles of Spec.NodeName and Spec.AffinityKey (0 for "").
	handle, owner, node, affinity Handle
	ordinal                       int
}

// Handle returns the handle the pod is stored under; 0 for a pod the store
// did not hand out.
func (p *Pod) Handle() Handle { return p.handle }

// Owner returns the handle of the owner Store.OwnPodsBy's function names for
// the pod, 0 for none.
func (p *Pod) Owner() Handle { return p.owner }

// Meta implements Object.
func (p *Pod) Meta() *ObjectMeta { return &p.ObjectMeta }

// Kind implements Object.
func (p *Pod) Kind() Kind { return KindPod }

// terminal reports whether the pod has run to an end, either way; a terminal
// pod holds no node resources.
func (p *Pod) terminal() bool {
	return p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed
}

// DeepCopyInto copies p into out, labels map and all.
func (p *Pod) DeepCopyInto(out *Pod) {
	*out = *p
	out.Labels = maps.Clone(p.Labels)
}

// DeepCopy implements Object.
func (p *Pod) DeepCopy() Object {
	cp := new(Pod)
	p.DeepCopyInto(cp)
	return cp
}

// Node is a schedulable node.
type Node struct {
	ObjectMeta
	// CapacityCPU is the node's allocatable vCPU count (16 for the
	// paper's c6g.4xlarge instances).
	CapacityCPU int
}

// Meta implements Object.
func (n *Node) Meta() *ObjectMeta { return &n.ObjectMeta }

// Kind implements Object.
func (n *Node) Kind() Kind { return KindNode }

// DeepCopyInto copies n into out, labels map and all.
func (n *Node) DeepCopyInto(out *Node) {
	*out = *n
	out.Labels = maps.Clone(n.Labels)
}

// DeepCopy implements Object.
func (n *Node) DeepCopy() Object {
	cp := new(Node)
	n.DeepCopyInto(cp)
	return cp
}

// ConfigMap stores small configuration payloads (the operator's nodelist).
type ConfigMap struct {
	ObjectMeta
	Data map[string]string
}

// Meta implements Object.
func (c *ConfigMap) Meta() *ObjectMeta { return &c.ObjectMeta }

// Kind implements Object.
func (c *ConfigMap) Kind() Kind { return KindConfigMap }

// DeepCopyInto copies c into out, labels and data maps and all.
func (c *ConfigMap) DeepCopyInto(out *ConfigMap) {
	*out = *c
	out.Labels = maps.Clone(c.Labels)
	out.Data = maps.Clone(c.Data)
}

// DeepCopy implements Object.
func (c *ConfigMap) DeepCopy() Object {
	cp := new(ConfigMap)
	c.DeepCopyInto(cp)
	return cp
}

// EventType describes a store change.
type EventType int

// Store event types.
const (
	Added EventType = iota
	Modified
	Deleted
)

// String returns the event type's display name.
func (t EventType) String() string {
	switch t {
	case Added:
		return "Added"
	case Modified:
		return "Modified"
	case Deleted:
		return "Deleted"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// Event is a store change notification. Handle is the object's: the store
// holds it for the event until the event is delivered.
type Event struct {
	Type   EventType
	Object Object
	Handle Handle
}
