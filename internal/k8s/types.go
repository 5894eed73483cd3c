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
// scheduling experiments deterministic and replayable.
package k8s

import (
	"fmt"
	"maps"
	"time"
)

// Kind identifies an object type in the store.
type Kind string

// Object kinds used by the cluster emulation.
const (
	KindNode      Kind = "Node"
	KindPod       Kind = "Pod"
	KindCharmJob  Kind = "CharmJob"
	KindConfigMap Kind = "ConfigMap"
)

// ObjectMeta is the standard object metadata subset we model.
type ObjectMeta struct {
	Name              string
	Namespace         string
	UID               int64
	ResourceVersion   int64
	Labels            map[string]string
	CreationTimestamp time.Time
	DeletionTimestamp *time.Time
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
	Phase     PodPhase
	StartTime time.Time // when the pod became Running
}

// Pod is a kubernetes pod.
type Pod struct {
	ObjectMeta
	Spec   PodSpec
	Status PodStatus
	// owner and ordinal are what Store.OwnPodsBy's function made of the
	// pod, set on the copy the store keeps by the Create or Update that
	// stored it.
	owner   string
	ordinal int
}

// Meta implements Object.
func (p *Pod) Meta() *ObjectMeta { return &p.ObjectMeta }

// Kind implements Object.
func (p *Pod) Kind() Kind { return KindPod }

// terminal reports whether the pod has run to an end, either way; a terminal
// pod holds no node resources.
func (p *Pod) terminal() bool {
	return p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed
}

// DeepCopy implements Object.
func (p *Pod) DeepCopy() Object { return p.withLabels(maps.Clone(p.Labels)) }

// withLabels is a deep copy of the pod but for its labels: the copy carries
// labels instead.
func (p *Pod) withLabels(labels map[string]string) *Pod {
	cp := *p
	cp.Labels = labels
	if p.DeletionTimestamp != nil {
		ts := *p.DeletionTimestamp
		cp.DeletionTimestamp = &ts
	}
	return &cp
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

// DeepCopy implements Object.
func (n *Node) DeepCopy() Object {
	cp := *n
	cp.Labels = maps.Clone(n.Labels)
	return &cp
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

// DeepCopy implements Object.
func (c *ConfigMap) DeepCopy() Object {
	cp := *c
	cp.Labels = maps.Clone(c.Labels)
	cp.Data = maps.Clone(c.Data)
	return &cp
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

// Event is a store change notification.
type Event struct {
	Type   EventType
	Object Object
}
