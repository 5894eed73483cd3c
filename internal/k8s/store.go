package k8s

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"
)

// Store is the API server's object store: versioned CRUD plus watch
// subscriptions. Subscribers are notified via EventLoop.Defer, so handlers
// always run after the mutation that triggered them completes — the same
// eventual-consistency shape informers give real controllers.
//
// It reads like an informer cache. A stored object is immutable: Create and
// Update store a private copy of their argument and Update swaps the old
// copy out rather than writing into it. So the scans (Pods, OwnedPods, Nodes)
// and the event payloads hand out the stored objects themselves as read-only
// views that stay valid, and unchanged, for as long as the caller holds them.
// A caller that wants to change an object takes its own copy — Get returns
// one, DeepCopy makes one from a view — and hands it to Update. A pod's
// binding and status have their own writes, Bind and SetPodStatus, which
// need no copy from the caller and store a copy that shares the old
// version's labels.
//
// Every pod version the store keeps is a slot of a slab of podSlabSize pods,
// allocated together. A slot is handed out once, written only before the
// write that stores it, and never reused, so pod views behave as any other
// view. The price is retention: a version anyone still holds keeps its whole
// slab reachable, so the memory a store pins is bounded by its live versions
// times one slab (about 12 KiB), not by its history.
type Store struct {
	loop *EventLoop
	// pods holds the pods by key, apart from the other kinds so that no pod
	// read or write hashes its kind; items holds every other kind.
	pods  map[string]*Pod
	items map[Kind]map[string]Object
	// podSlab is what remains of the slab the next pod version comes from.
	podSlab []Pod
	// nodeCPU, boundCPU and affinity aggregate the pods that hold node
	// resources (bound and not terminal): their CPU per node and in total,
	// and their count per affinity key and node.
	nodeCPU  map[string]int
	boundCPU int
	affinity map[affinityAt]int
	// ownerOf files every pod under an owner, none until OwnPodsBy sets it;
	// owned holds each owner's pods by (ordinal, key).
	ownerOf func(*Pod) (owner string, ordinal int)
	owned   map[string][]OwnedPod
	// nodes is what Nodes returns, in key order. A node write builds a fresh
	// slice, so one handed out earlier stays as it was.
	nodes   []*Node
	version int64
	uid     int64
	subs    map[Kind][]func(Event)
	// undelivered are the watch events written and not yet delivered; each
	// has one deliver call deferred on the loop.
	undelivered fifo[queuedEvent]
	deliver     func()
	stats       StoreStats
}

// queuedEvent is a watch event with the subscribers it goes to: the kind's
// list as it stood at the write, so a later subscriber does not see it.
type queuedEvent struct {
	ev   Event
	subs []func(Event)
}

// OwnedPod is a read-only view of a pod with the ordinal OwnPodsBy's
// function gave it.
type OwnedPod struct {
	Ordinal int
	Pod     *Pod
}

type affinityAt struct{ key, node string }

// podSlabSize is how many pod versions one allocation holds: 63 pods of 192
// bytes and the 8-byte header Go puts on a pointerful object above 512 bytes
// come to 12,104 bytes, inside the 12,288-byte size class. A 64th slot would
// round the slab up to the next class, 13,568 bytes.
const podSlabSize = 63

// StoreStats counts what the store has done. Every field is a pure function
// of the calls made, so a run's counters repeat exactly on any host.
type StoreStats struct {
	// Writes counts successful Create, Update, Bind, SetPodStatus and
	// Delete calls.
	Writes int
	// Scans counts Pods, OwnedPods and Nodes calls, Visited the objects
	// they examined.
	Scans   int
	Visited int
	// Copied counts the deep copies the store made (Create, Update, Get):
	// the copies that clone a labels map. Bind and SetPodStatus make none,
	// nor does a Create whose pod shares its labels; their versions are
	// slab slots that share the labels they were given.
	Copied int
}

// NewStore creates an empty store bound to the loop.
func NewStore(loop *EventLoop) *Store {
	s := &Store{
		loop:     loop,
		pods:     make(map[string]*Pod),
		items:    make(map[Kind]map[string]Object),
		nodeCPU:  make(map[string]int),
		affinity: make(map[affinityAt]int),
		ownerOf:  func(*Pod) (string, int) { return "", 0 },
		subs:     make(map[Kind][]func(Event)),
	}
	s.deliver = s.deliverOldest
	return s
}

// Subscribe registers fn for all changes to the kind. Events fire in
// mutation order. The event's object is a read-only view.
func (s *Store) Subscribe(kind Kind, fn func(Event)) {
	s.subs[kind] = append(s.subs[kind], fn)
}

// notify queues the event and defers one delivery, so events reach the
// subscribers in write order and interleave with the loop's other deferred
// work exactly where their writes did.
func (s *Store) notify(kind Kind, ev Event) {
	subs := s.subs[kind]
	if len(subs) == 0 {
		return
	}
	s.undelivered.push(queuedEvent{ev, subs})
	s.loop.Defer(s.deliver)
}

// deliverOldest hands the oldest undelivered event to its subscribers.
func (s *Store) deliverOldest() {
	next := s.undelivered.pop()
	for _, fn := range next.subs {
		fn(next.ev)
	}
}

// copyOf and podCopy are the store's deep-copy sites: podCopy makes the
// pod version a write stores, copyOf every other copy.
func (s *Store) copyOf(obj Object) Object {
	s.stats.Copied++
	return obj.DeepCopy()
}

func (s *Store) podCopy(p *Pod) *Pod {
	s.stats.Copied++
	v := s.newVersion(p)
	v.Labels = maps.Clone(p.Labels)
	return v
}

// newVersion is a fresh slab slot holding a copy of p, labels map shared: the
// pod version a write is about to store.
func (s *Store) newVersion(p *Pod) *Pod {
	if len(s.podSlab) == 0 {
		s.podSlab = make([]Pod, podSlabSize)
	}
	v := &s.podSlab[0]
	s.podSlab = s.podSlab[1:]
	*v = *p
	return v
}

// put stores now under key in place of was — was is nil on Create, now on
// Delete — and brings the owner index, the resource aggregates and the node
// list up to date.
func (s *Store) put(kind Kind, key string, was, now Object) {
	if kind == KindPod {
		if p, ok := was.(*Pod); ok {
			s.hold(p, -1)
			s.disown(key, p)
		}
		if p, ok := now.(*Pod); ok {
			s.pods[key] = p
			s.hold(p, +1)
			s.own(key, p)
		} else {
			delete(s.pods, key)
		}
		return
	}
	b, ok := s.items[kind]
	if !ok {
		b = make(map[string]Object)
		s.items[kind] = b
	}
	if now != nil {
		b[key] = now
	} else {
		delete(b, key)
	}
	if kind == KindNode {
		nodes := make([]*Node, 0, len(b))
		for _, obj := range b {
			nodes = append(nodes, obj.(*Node))
		}
		slices.SortFunc(nodes, func(x, y *Node) int { return strings.Compare(x.Key(), y.Key()) })
		s.nodes = nodes
	}
}

// hold adds (sign +1) or withdraws (sign -1) a pod's share of the
// resource aggregates. Only a bound, non-terminal pod has one.
func (s *Store) hold(p *Pod, sign int) {
	if p.Spec.NodeName == "" || p.terminal() {
		return
	}
	s.nodeCPU[p.Spec.NodeName] += sign * p.Spec.CPU
	s.boundCPU += sign * p.Spec.CPU
	if p.Spec.AffinityKey != "" {
		at := affinityAt{p.Spec.AffinityKey, p.Spec.NodeName}
		if s.affinity[at] += sign; s.affinity[at] == 0 {
			delete(s.affinity, at)
		}
	}
}

// OwnPodsBy makes the store keep every owner's pods in ordinal order for
// OwnedPods, StatefulSet fashion. fn names the owner a pod belongs to ("" for
// none) and the pod's ordinal among that owner's pods, negative for a pod
// that has no place in the sequence; it must depend only on the pod's name,
// namespace and labels. Pods already stored are filed at once.
func (s *Store) OwnPodsBy(fn func(*Pod) (owner string, ordinal int)) {
	s.ownerOf = fn
	s.owned = make(map[string][]OwnedPod)
	for key, p := range s.pods { //lint:deterministic own puts each pod in its sorted place, whatever order they come in
		filed := s.newVersion(p) // a stored pod is never written: file a copy
		filed.owner, filed.ordinal = fn(p)
		s.pods[key] = filed
		s.own(key, filed)
	}
}

// slot is where the pod under key with the ordinal sits, or would sit, in
// list, an owner's pods ordered by ordinal, then key.
func slot(list []OwnedPod, key string, ordinal int) int {
	return sort.Search(len(list), func(i int) bool {
		return list[i].Ordinal > ordinal || list[i].Ordinal == ordinal && list[i].Pod.Key() >= key
	})
}

// own files a pod just stored under its owner; disown takes out one just
// replaced or deleted.
func (s *Store) own(key string, p *Pod) {
	if p.owner != "" {
		list := s.owned[p.owner]
		s.owned[p.owner] = slices.Insert(list, slot(list, key, p.ordinal), OwnedPod{p.ordinal, p})
	}
}

func (s *Store) disown(key string, p *Pod) {
	if p.owner == "" {
		return
	}
	list := s.owned[p.owner]
	at := slot(list, key, p.ordinal)
	if list = slices.Delete(list, at, at+1); len(list) > 0 {
		s.owned[p.owner] = list
	} else {
		delete(s.owned, p.owner)
	}
}

// created is the pod Create stores for p: a copy filed under p's owner that
// shares its labels map with a pod already filed there whose labels are equal
// — all of a job's workers carry one set — and is a deep copy otherwise.
func (s *Store) created(p *Pod) *Pod {
	owner, ordinal := s.ownerOf(p)
	var cp *Pod
	list := s.owned[owner]
	for i := len(list) - 1; i >= 0 && cp == nil; i-- {
		if maps.Equal(list[i].Pod.Labels, p.Labels) {
			cp = s.newVersion(p)
			cp.Labels = list[i].Pod.Labels
		}
	}
	if cp == nil {
		cp = s.podCopy(p)
	}
	cp.owner, cp.ordinal = owner, ordinal
	return cp
}

// Create inserts a new object. The stored copy gets a fresh UID, resource
// version, and creation timestamp.
func (s *Store) Create(obj Object) error {
	kind, key := obj.Kind(), obj.Meta().Key()
	if _, exists := s.View(kind, key); exists {
		return fmt.Errorf("k8s: %s %q already exists", kind, key)
	}
	s.version++
	s.uid++
	var cp Object
	if p, ok := obj.(*Pod); ok {
		cp = s.created(p)
	} else {
		cp = s.copyOf(obj)
	}
	m := cp.Meta()
	m.UID = s.uid
	m.ResourceVersion = s.version
	m.CreationTimestamp = s.loop.Now()
	s.put(kind, key, nil, cp)
	s.stats.Writes++
	s.notify(kind, Event{Type: Added, Object: cp})
	return nil
}

// Update replaces an existing object with a copy of obj, bumping its
// resource version. obj may be a view: the stored object is swapped out, not
// written into.
func (s *Store) Update(obj Object) error {
	kind, key := obj.Kind(), obj.Meta().Key()
	old, exists := s.View(kind, key)
	if !exists {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	s.version++
	var cp Object
	if p, ok := obj.(*Pod); ok {
		stored := s.podCopy(p)
		stored.owner, stored.ordinal = s.ownerOf(stored)
		cp = stored
	} else {
		cp = s.copyOf(obj)
	}
	m := cp.Meta()
	m.UID = old.Meta().UID
	m.CreationTimestamp = old.Meta().CreationTimestamp
	m.ResourceVersion = s.version
	s.put(kind, key, old, cp)
	s.stats.Writes++
	s.notify(kind, Event{Type: Modified, Object: cp})
	return nil
}

// Delete removes the object with the given kind and key.
func (s *Store) Delete(kind Kind, key string) error {
	old, exists := s.View(kind, key)
	if !exists {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	s.version++
	s.put(kind, key, old, nil)
	s.stats.Writes++
	s.notify(kind, Event{Type: Deleted, Object: old})
	return nil
}

// Bind is the pods/binding write: it places the pod on the node.
func (s *Store) Bind(key, node string) error {
	old, err := s.storedPod(key)
	if err != nil {
		return err
	}
	bound := s.newVersion(old)
	bound.Spec.NodeName = node
	s.swapPod(key, old, bound)
	return nil
}

// SetPodStatus is the pods/status write: it replaces the pod's status.
func (s *Store) SetPodStatus(key string, status PodStatus) error {
	old, err := s.storedPod(key)
	if err != nil {
		return err
	}
	reported := s.newVersion(old)
	reported.Status = status
	s.swapPod(key, old, reported)
	return nil
}

func (s *Store) storedPod(key string) (*Pod, error) {
	p, exists := s.pods[key]
	if !exists {
		return nil, fmt.Errorf("k8s: %s %q not found", KindPod, key)
	}
	return p, nil
}

// swapPod stores now, a copy of the stored pod old that differs in binding
// or status, in old's place, with everything else an Update does:
// a new resource version, the aggregates moved, a Modified event. The two
// share their labels — safe because a stored object is never written — and
// their filing, so the pod keeps its place under its owner. The aggregates
// move only when the binding or terminal-ness changed: nothing else they
// count can differ between the two.
func (s *Store) swapPod(key string, old, now *Pod) {
	s.version++
	now.ResourceVersion = s.version
	s.pods[key] = now
	if old.Spec.NodeName != now.Spec.NodeName || old.terminal() != now.terminal() {
		s.hold(old, -1)
		s.hold(now, +1)
	}
	if old.owner != "" {
		list := s.owned[old.owner]
		list[slot(list, key, old.ordinal)].Pod = now
	}
	s.stats.Writes++
	s.notify(KindPod, Event{Type: Modified, Object: now})
}

// Get fetches a private copy of the object, reporting whether it exists. It
// is the entry to mutate-then-Update, which is why it copies.
func (s *Store) Get(kind Kind, key string) (Object, bool) {
	obj, ok := s.View(kind, key)
	if !ok {
		return nil, false
	}
	return s.copyOf(obj), true
}

// View fetches the object as a read-only view, reporting whether it exists:
// the entry for a caller that only looks.
func (s *Store) View(kind Kind, key string) (Object, bool) {
	if kind == KindPod {
		p, ok := s.pods[key]
		if !ok {
			return nil, false
		}
		return p, true
	}
	obj, ok := s.items[kind][key]
	return obj, ok
}

// Pods returns read-only views of the pods carrying every label of the
// selector (all pods when it is empty), in key order. It examines every pod
// and sorts what it keeps: no emulation path reads by selector, so the store
// keeps no index for it.
func (s *Store) Pods(selector map[string]string) []*Pod {
	s.stats.Scans++
	s.stats.Visited += len(s.pods)
	var out []*Pod
	for _, p := range s.pods {
		if hasLabels(p.Labels, selector) {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *Pod) int { return strings.Compare(a.Key(), b.Key()) })
	return out
}

// OwnedPods appends to dst read-only views of the pods OwnPodsBy's function
// files under the owner, ordered by ordinal (then key): whatever has no
// ordinal first, then the sequence. The result is the caller's; it does not
// move when the store is written.
func (s *Store) OwnedPods(dst []OwnedPod, owner string) []OwnedPod {
	list := s.owned[owner]
	s.stats.Scans++
	s.stats.Visited += len(list)
	return append(dst, list...)
}

// Nodes returns read-only views of all nodes, in key order. The slice is a
// view too.
func (s *Store) Nodes() []*Node {
	s.stats.Scans++
	s.stats.Visited += len(s.nodes)
	return s.nodes
}

// BoundCPU is the CPU held by bound, non-terminal pods across all nodes.
func (s *Store) BoundCPU() int { return s.boundCPU }

// NodeBoundCPU is the CPU held by bound, non-terminal pods on the node.
func (s *Store) NodeBoundCPU(node string) int { return s.nodeCPU[node] }

// AffinityCount is the number of bound, non-terminal pods on the node that
// carry the affinity key.
func (s *Store) AffinityCount(key, node string) int { return s.affinity[affinityAt{key, node}] }

func hasLabels(labels, selector map[string]string) bool {
	for k, v := range selector { //lint:deterministic a conjunction: any order gives the same answer
		if got, ok := labels[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// Workqueue is a deduplicating FIFO of reconcile keys, the controller
// pattern's core data structure.
type Workqueue struct {
	loop    *EventLoop
	pending map[string]bool
	order   fifo[string]
	handler func(key string)
	armed   bool
	drainFn func() // q.drain, made once
	// requeued are the keys Requeue has armed a timer for, oldest first.
	// Every timer runs the queue's one delay, so they fire in this order
	// and each runs readdFn (q.readdOldest, made once).
	delay    time.Duration
	requeued fifo[string]
	readdFn  func()
}

// NewWorkqueue creates a queue that feeds keys to handler on the loop and
// holds a requeued key back for delay.
func NewWorkqueue(loop *EventLoop, delay time.Duration, handler func(key string)) *Workqueue {
	q := &Workqueue{loop: loop, pending: make(map[string]bool), handler: handler, delay: delay}
	q.drainFn = q.drain
	q.readdFn = q.readdOldest
	return q
}

// Add enqueues a key; duplicates collapse while queued.
func (q *Workqueue) Add(key string) {
	if q.pending[key] {
		return
	}
	q.pending[key] = true
	q.order.push(key)
	q.arm()
}

// Requeue enqueues the key once the queue's delay has passed
// (requeue-with-backoff analogue). A key still queued then collapses into
// that entry, as with Add.
func (q *Workqueue) Requeue(key string) {
	q.requeued.push(key)
	q.loop.At(q.delay, q.readdFn)
}

func (q *Workqueue) readdOldest() { q.Add(q.requeued.pop()) }

func (q *Workqueue) arm() {
	if q.armed || q.Len() == 0 {
		return
	}
	q.armed = true
	q.loop.Defer(q.drainFn)
}

func (q *Workqueue) drain() {
	q.armed = false
	for q.order.len() > 0 {
		key := q.order.pop()
		delete(q.pending, key)
		q.handler(key)
	}
}

// Len reports queued keys.
func (q *Workqueue) Len() int { return q.order.len() }
