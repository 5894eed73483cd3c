package k8s

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
	"unsafe"
)

// Store is the API server's object store: versioned CRUD plus watch
// subscriptions. Subscribers are notified via EventLoop.Defer, so handlers
// always run after the mutation that triggered them completes — the same
// eventual-consistency shape informers give real controllers.
//
// It reads like an informer cache. A stored object is immutable: every write
// stores a fresh version and swaps the old one out rather than writing into
// it. So the scans (Pods, OwnedPods, Nodes), View and the event payloads hand
// out the stored objects themselves as read-only views that stay valid, and
// unchanged, for as long as the caller holds them. A caller that wants to
// change an object calls Modify, which copies the stored object once and
// hands that copy to the caller's function to change before it is stored;
// the caller takes no copy of its own. Update stores a deep copy of whatever
// it is given, a view included. Create stores a copy of the object's struct
// that shares its maps (its labels, a ConfigMap's data): the caller must not
// write those maps once it has handed them over, the contract client-go's
// informer cache sets. A pod's binding and status have their own writes,
// Bind and SetPodStatus, which store a copy that shares the old version's
// labels.
//
// Every version a Create, Modify, Bind or SetPodStatus stores, of any kind,
// is a slot of a slab of versions of that kind, allocated together (slab);
// Update, which the emulation never calls, stores the object's DeepCopy. A
// slot is handed out once, written only before the write that stores it, and
// never reused, so a view is a view whatever slab it sits in. The price is
// retention: a version anyone still holds keeps its whole slab reachable, so
// the memory a store pins is bounded by its live versions times one slab (at
// most about 12 KiB), not by its history.
type Store struct {
	loop *EventLoop
	// pods holds the pods by key, apart from the other kinds so that no pod
	// read or write hashes its kind; items holds every other kind.
	pods  map[string]*Pod
	items map[Kind]map[string]Object
	// podSlab holds the slots of the next pod versions; slabs every other
	// kind's, each made at the kind's first Create from its scheme entry.
	podSlab slab[Pod]
	slabs   map[Kind]versions
	// nodeCPU, boundCPU and affinity aggregate the pods that hold node
	// resources (bound and not terminal): their CPU per node and in total,
	// and their count per affinity key and node. capacityCPU sums the
	// nodes' CPU.
	nodeCPU     map[string]int
	boundCPU    int
	affinity    map[affinityAt]int
	capacityCPU int
	// ownerOf files every pod under an owner, none until OwnPodsBy sets it;
	// owned holds each owner's pods by (ordinal, key). spare holds the
	// arrays of lists disown emptied, cleared, for the next new owner.
	ownerOf func(*Pod) (owner string, ordinal int)
	owned   map[string][]OwnedPod
	spare   [][]OwnedPod
	// nodes is what Nodes returns, in key order; nil after a node write
	// until the next Nodes call builds a fresh slice, so one handed out
	// earlier stays as it was and provisioning n nodes sorts once, not n
	// times.
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
// bytes and the 8-byte header come to 12,104 bytes, inside slabBytes. A 64th
// slot would round the slab up to the next size class, 13,568 bytes.
const podSlabSize = (slabBytes - 8) / unsafe.Sizeof(Pod{})

// StoreStats counts what the store has done. Every field is a pure function
// of the calls made, so a run's counters repeat exactly on any host.
type StoreStats struct {
	// Writes counts successful Create, Update, Modify, Bind, SetPodStatus
	// and Delete calls.
	Writes int
	// Scans counts Pods, OwnedPods and Nodes calls, Visited the objects
	// they examined.
	Scans   int
	Visited int
	// Copied counts the deep copies the store made (Update, Modify, and
	// the tests' Get): the copies that clone an object's maps. Create, Bind
	// and SetPodStatus make none: their versions are slab slots that share
	// the maps they were given.
	Copied int
}

// NewStore creates an empty store bound to the loop.
func NewStore(loop *EventLoop) *Store {
	s := &Store{
		loop:     loop,
		pods:     make(map[string]*Pod),
		items:    make(map[Kind]map[string]Object),
		podSlab:  slab[Pod]{next: int(podSlabSize)},
		slabs:    make(map[Kind]versions),
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

// newVersion is a fresh slab slot holding a copy of p, labels map shared: the
// pod version a write is about to store.
func (s *Store) newVersion(p *Pod) *Pod {
	v := s.podSlab.slot()
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
		s.nodes = nil
		if n, ok := was.(*Node); ok {
			s.capacityCPU -= n.CapacityCPU
		}
		if n, ok := now.(*Node); ok {
			s.capacityCPU += n.CapacityCPU
		}
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
// replaced or deleted. A list disown empties leaves the index and its array,
// cleared, goes on the spare stack, where own builds the next new owner's
// list: the emulation's jobs come and go, so one job's array serves the next.
func (s *Store) own(key string, p *Pod) {
	if p.owner == "" {
		return
	}
	list, ok := s.owned[p.owner]
	if n := len(s.spare); !ok && n > 0 {
		list = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	}
	s.owned[p.owner] = slices.Insert(list, slot(list, key, p.ordinal), OwnedPod{p.ordinal, p})
}

func (s *Store) disown(key string, p *Pod) {
	if p.owner == "" {
		return
	}
	list := s.owned[p.owner]
	at := slot(list, key, p.ordinal)
	// Delete zeroes the element it drops, so an emptied array holds no pod.
	if list = slices.Delete(list, at, at+1); len(list) > 0 {
		s.owned[p.owner] = list
	} else {
		delete(s.owned, p.owner)
		s.spare = append(s.spare, list)
	}
}

// Create inserts a new object: a slab slot holding a copy of obj's struct,
// which shares obj's maps — the caller must not write them afterwards — and
// gets a fresh UID, resource version, and creation timestamp. The kind must
// be one the scheme holds.
func (s *Store) Create(obj Object) error {
	kind, key := obj.Kind(), obj.Meta().Key()
	if _, exists := s.View(kind, key); exists {
		return fmt.Errorf("k8s: %s %q already exists", kind, key)
	}
	var cp Object
	if p, ok := obj.(*Pod); ok {
		v := s.newVersion(p)
		v.owner, v.ordinal = s.ownerOf(p)
		cp = v
	} else {
		slab, ok := s.slabs[kind]
		if !ok {
			made, known := scheme[kind]
			if !known {
				return fmt.Errorf("k8s: no kind %q registered", kind)
			}
			slab = made()
			s.slabs[kind] = slab
		}
		cp = slab.shallow(obj)
	}
	s.version++
	s.uid++
	m := cp.Meta()
	m.UID = s.uid
	m.ResourceVersion = s.version
	m.CreationTimestamp = s.loop.Now()
	s.put(kind, key, nil, cp)
	s.stats.Writes++
	s.notify(kind, Event{Type: Added, Object: cp})
	return nil
}

// Update replaces an existing object with obj's DeepCopy, bumping its
// resource version. obj may be a view: the stored object is swapped out, not
// written into. Its version is the one a slab does not hold: only tests and
// the store's benchmark probe call Update, never the emulation.
func (s *Store) Update(obj Object) error {
	kind, key := obj.Kind(), obj.Meta().Key()
	old, exists := s.View(kind, key)
	if !exists {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	s.stats.Copied++
	s.replace(kind, key, old, obj.DeepCopy())
	return nil
}

// Modify changes the object under key through fn and stores the result,
// bumping its resource version: the store copies what it holds once, hands
// that copy to fn, and swaps it in. fn may change the copy and every map or
// slice it holds, but not its name or namespace; a Modify whose fn does is
// refused, and nothing is stored.
func (s *Store) Modify(kind Kind, key string, fn func(Object)) error {
	old, exists := s.View(kind, key)
	if !exists {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	cp := s.private(old)
	fn(cp)
	if m, was := cp.Meta(), old.Meta(); m.Name != was.Name || m.Namespace != was.Namespace {
		return fmt.Errorf("k8s: modifying %s %q renamed it %q", kind, key, m.Key())
	}
	s.replace(kind, key, old, cp)
	return nil
}

// Modify is Store.Modify for the kind of T, whose copy fn receives as a *T.
func Modify[T any, P Versioned[T]](s *Store, key string, fn func(P)) error {
	return s.Modify(P(nil).Kind(), key, func(obj Object) { fn(obj.(P)) })
}

// private is the copy of obj, a stored object, that Modify hands its function:
// a slab slot with maps of its own.
func (s *Store) private(obj Object) Object {
	s.stats.Copied++
	if p, ok := obj.(*Pod); ok {
		v := s.podSlab.slot()
		p.DeepCopyInto(v)
		return v
	}
	return s.slabs[obj.Kind()].deep(obj)
}

// replace is the tail of Update and Modify: it stores cp, the caller's
// private copy, in place of old under a new resource version, keeping old's
// UID and creation timestamp, files a pod under its owner afresh, and
// queues a Modified event.
func (s *Store) replace(kind Kind, key string, old, cp Object) {
	s.version++
	if p, ok := cp.(*Pod); ok {
		p.owner, p.ordinal = s.ownerOf(p)
	}
	m := cp.Meta()
	m.UID = old.Meta().UID
	m.CreationTimestamp = old.Meta().CreationTimestamp
	m.ResourceVersion = s.version
	s.put(kind, key, old, cp)
	s.stats.Writes++
	s.notify(kind, Event{Type: Modified, Object: cp})
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
	if s.nodes == nil {
		b := s.items[KindNode]
		nodes := make([]*Node, 0, len(b))
		for _, obj := range b {
			nodes = append(nodes, obj.(*Node))
		}
		slices.SortFunc(nodes, func(x, y *Node) int { return strings.Compare(x.Key(), y.Key()) })
		s.nodes = nodes
	}
	s.stats.Scans++
	s.stats.Visited += len(s.nodes)
	return s.nodes
}

// CapacityCPU is the CPU of every node together.
func (s *Store) CapacityCPU() int { return s.capacityCPU }

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
