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
	// handles is the store's one name→handle map: the handle of every key
	// it tracks. chunks hold, by handle, what the store keeps under each, in
	// the first used entries; entry 0 is never used, so the zero Handle
	// stands for nothing. free holds the handles released for reuse, the
	// last released on top.
	handles map[string]Handle
	chunks  []*[entryChunk]entry
	used    Handle
	free    []Handle
	// others holds an object stored under a key that already holds one of
	// another kind; nil until then, which the emulation never reaches.
	others map[kindAt]Object
	pods   int // how many pods are stored
	// podSlab holds the slots of the next pod versions; slabs every other
	// kind's, each made at the kind's first Create from its scheme entry.
	podSlab slab[Pod]
	slabs   [kindCount]versions
	// boundCPU and affinity aggregate the pods that hold node resources
	// (bound and not terminal): their CPU in total, and their count per
	// affinity key and node; each node's CPU is its entry's. capacityCPU
	// sums the nodes' CPU.
	boundCPU    int
	affinity    map[affinityAt]int
	capacityCPU int
	// ownerOf files every pod under an owner, none until OwnPodsBy sets it;
	// each owner's pods are listed on its entry. spare holds the arrays of
	// lists disown emptied, cleared, for the next new owner.
	ownerOf func(*Pod) (owner string, ordinal int)
	spare   [][]OwnedPod
	// nodes is what Nodes returns, in key order, and nodeHandles their
	// handles; nil after a node write until the next Nodes call builds fresh
	// slices, so one handed out earlier stays as it was and provisioning n
	// nodes sorts once, not n times.
	nodes       []*Node
	nodeHandles []Handle
	version     int64
	subs        [kindCount][]func(Event)
	// undelivered are the watch events written and not yet delivered; each
	// has one deliver call deferred on the loop.
	undelivered fifo[queuedEvent]
	deliver     func()
	stats       StoreStats
}

// entry is what the store keeps under a handle: the key it stands for and
// how many references hold it, an object stored under the key and its kind,
// the pods filed under it as their owner, by (ordinal, key), and the CPU the
// pods bound to the node it names hold.
type entry struct {
	key   string
	refs  int32
	kind  Kind
	obj   Object
	owned []OwnedPod
	cpu   int
}

// entryChunk is how many entries one allocation holds. An entry never moves:
// the table grows by a chunk, copying nothing and leaving no garbage, where a
// slice grown by append would allocate about three times what it ends up
// holding.
const entryChunk = 64

// entry is the entry of h, which must be below s.used.
func (s *Store) entry(h Handle) *entry {
	return &s.chunks[uint32(h)/entryChunk][uint32(h)%entryChunk]
}

// kindAt is a kind and a handle.
type kindAt struct {
	h    Handle
	kind Kind
}

// object is the object of the kind stored under h, nil for none.
func (s *Store) object(kind Kind, h Handle) Object {
	if h <= 0 || h >= s.used {
		return nil
	}
	if e := s.entry(h); e.kind == kind && e.obj != nil {
		return e.obj
	}
	return s.others[kindAt{h, kind}]
}

// setObject stores obj, of the kind, under h in place of the object of that
// kind stored there, or removes that object when obj is nil. An object's
// versions stay where its first was stored: in the entry when the entry held
// no object then, in others when it held one of another kind.
func (s *Store) setObject(kind Kind, h Handle, obj Object) {
	e := s.entry(h)
	if e.kind == kind && e.obj != nil || e.obj == nil && s.others[kindAt{h, kind}] == nil {
		e.kind, e.obj = kind, obj
		return
	}
	if obj == nil {
		delete(s.others, kindAt{h, kind})
		return
	}
	if s.others == nil {
		s.others = make(map[kindAt]Object)
	}
	s.others[kindAt{h, kind}] = obj
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

// affinityAt is an affinity key's handle and a node's.
type affinityAt struct{ key, node Handle }

// podSlabSize is how many pod versions one allocation holds: 90 pods of 136
// bytes and the 8-byte header come to 12,248 bytes, inside slabBytes. A 91st
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
		handles:  make(map[string]Handle),
		used:     1,
		podSlab:  slab[Pod]{next: int(podSlabSize)},
		affinity: make(map[affinityAt]int),
		ownerOf:  func(*Pod) (string, int) { return "", 0 },
	}
	s.deliver = s.deliverOldest
	return s
}

// Lookup returns the handle of the key, 0 when the store tracks no such key:
// the name→handle read for callers that start from a name.
func (s *Store) Lookup(key string) Handle { return s.handles[key] }

// intern returns the key's handle and takes a reference to it. h and ok are
// the key's entry in the name→handle map, read by the caller; a key with
// none gets a handle, a freed one if there is one.
func (s *Store) intern(key string, h Handle, ok bool) Handle {
	if !ok {
		if n := len(s.free); n > 0 {
			h = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			if int(s.used) >= len(s.chunks)*entryChunk {
				s.chunks = append(s.chunks, new([entryChunk]entry))
			}
			h = s.used
			s.used++
		}
		s.entry(h).key = key
		s.handles[key] = h
	}
	s.entry(h).refs++
	return h
}

// refer is intern for a name a pod refers to, where "" names nothing.
func (s *Store) refer(name string) Handle {
	if name == "" {
		return 0
	}
	h, ok := s.handles[name]
	return s.intern(name, h, ok)
}

// retain takes another reference to a handle; release drops one, and frees
// the handle when it was the last.
func (s *Store) retain(h Handle) {
	if h != 0 {
		s.entry(h).refs++
	}
}

func (s *Store) release(h Handle) {
	if h == 0 {
		return
	}
	e := s.entry(h)
	if e.refs--; e.refs > 0 {
		return
	}
	delete(s.handles, e.key)
	*e = entry{}
	s.free = append(s.free, h)
}

// file gives a pod version about to be stored the handles it refers to:
// its owner and ordinal, its node and its affinity key, taking a reference
// to each. unfile drops those of a version no longer stored.
func (s *Store) file(p *Pod) {
	owner, ordinal := s.ownerOf(p)
	p.owner, p.ordinal = s.refer(owner), ordinal
	p.node = s.refer(p.Spec.NodeName)
	if p.Spec.AffinityKey == owner && owner != "" { // a job's pods: one name, one lookup
		p.affinity = p.owner
		s.retain(p.affinity)
	} else {
		p.affinity = s.refer(p.Spec.AffinityKey)
	}
}

func (s *Store) unfile(p *Pod) {
	s.release(p.owner)
	s.release(p.node)
	s.release(p.affinity)
}

// Subscribe registers fn for all changes to the kind. Events fire in
// mutation order. The event's object is a read-only view.
func (s *Store) Subscribe(kind Kind, fn func(Event)) {
	s.subs[kind] = append(s.subs[kind], fn)
}

// notify queues the event and defers one delivery, so events reach the
// subscribers in write order and interleave with the loop's other deferred
// work exactly where their writes did. Until it is delivered, the event holds
// the object's handle, and a pod's owner, so neither stands for another key
// by then.
func (s *Store) notify(kind Kind, h Handle, typ EventType, obj Object) {
	subs := s.subs[kind]
	if len(subs) == 0 {
		return
	}
	s.retain(h)
	if p, ok := obj.(*Pod); ok {
		s.retain(p.owner)
	}
	s.undelivered.push(queuedEvent{Event{typ, obj, h}, subs})
	s.loop.Defer(s.deliver)
}

// deliverOldest hands the oldest undelivered event to its subscribers.
func (s *Store) deliverOldest() {
	next := s.undelivered.pop()
	for _, fn := range next.subs {
		fn(next.ev)
	}
	s.release(next.ev.Handle)
	if p, ok := next.ev.Object.(*Pod); ok {
		s.release(p.owner)
	}
}

// newVersion is a fresh slab slot holding a copy of p, labels map shared: the
// pod version a write is about to store.
func (s *Store) newVersion(p *Pod) *Pod {
	v := s.podSlab.slot()
	*v = *p
	return v
}

// pod is the pod stored under h, nil for none.
func (s *Store) pod(h Handle) *Pod {
	p, _ := s.object(KindPod, h).(*Pod)
	return p
}

// put stores now under h in place of was — was is nil on Create, now on
// Delete — and brings the owner index, the resource aggregates and the node
// list up to date.
func (s *Store) put(kind Kind, h Handle, was, now Object) {
	s.setObject(kind, h, now)
	if kind == KindPod {
		if p, ok := was.(*Pod); ok {
			s.hold(p, -1)
			s.disown(p)
			s.pods--
		}
		if p, ok := now.(*Pod); ok {
			s.hold(p, +1)
			s.own(p)
			s.pods++
		}
		return
	}
	if kind == KindNode {
		s.nodes, s.nodeHandles = nil, nil
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
	if p.node == 0 || p.terminal() {
		return
	}
	s.entry(p.node).cpu += sign * p.Spec.CPU
	s.boundCPU += sign * p.Spec.CPU
	if p.affinity != 0 {
		at := affinityAt{p.affinity, p.node}
		if s.affinity[at] += sign; s.affinity[at] == 0 {
			delete(s.affinity, at)
		}
	}
}

// OwnPodsBy makes the store keep every owner's pods in ordinal order for
// OwnedPods, StatefulSet fashion. fn names the owner a pod belongs to ("" for
// none) and the pod's ordinal among that owner's pods, negative for a pod
// that has no place in the sequence; it must depend only on the pod's name,
// namespace and labels. It runs once for each pod a Create, Update or Modify
// stores, and the owner's handle is filed with the pod. Pods already stored
// are filed at once.
func (s *Store) OwnPodsBy(fn func(*Pod) (owner string, ordinal int)) {
	s.ownerOf = fn
	for h := Handle(1); h < s.used; h++ {
		p := s.pod(h)
		if p == nil {
			continue
		}
		s.disown(p)
		filed := s.newVersion(p) // a stored pod is never written: file a copy
		owner, ordinal := fn(p)
		filed.owner, filed.ordinal = s.refer(owner), ordinal
		s.release(p.owner)
		s.setObject(KindPod, h, filed)
		s.own(filed)
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
// replaced or deleted. A list disown empties leaves its owner's entry and its
// array, cleared, goes on the spare stack, where own builds the next new
// owner's list: the emulation's jobs come and go, so one job's array serves
// the next.
func (s *Store) own(p *Pod) {
	if p.owner == 0 {
		return
	}
	e := s.entry(p.owner)
	list := e.owned
	if n := len(s.spare); list == nil && n > 0 {
		list = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	}
	e.owned = slices.Insert(list, slot(list, p.Key(), p.ordinal), OwnedPod{p.ordinal, p})
}

func (s *Store) disown(p *Pod) {
	if p.owner == 0 {
		return
	}
	e := s.entry(p.owner)
	list := e.owned
	at := slot(list, p.Key(), p.ordinal)
	// Delete zeroes the element it drops, so an emptied array holds no pod.
	if list = slices.Delete(list, at, at+1); len(list) > 0 {
		e.owned = list
	} else {
		e.owned = nil
		s.spare = append(s.spare, list)
	}
}

// known reports whether the store holds the kind.
func known(kind Kind) bool {
	return kind == KindPod || kind < kindCount && scheme[kind] != nil
}

// Create inserts a new object: a slab slot holding a copy of obj's struct,
// which shares obj's maps — the caller must not write them afterwards — and
// gets a fresh resource version. The kind must be one the scheme holds.
func (s *Store) Create(obj Object) error {
	kind, key := obj.Kind(), obj.Meta().Key()
	if !known(kind) {
		return fmt.Errorf("k8s: no kind %q registered", kind)
	}
	h, ok := s.handles[key]
	if s.object(kind, h) != nil {
		return fmt.Errorf("k8s: %s %q already exists", kind, key)
	}
	h = s.intern(key, h, ok)
	var cp Object
	if p, ok := obj.(*Pod); ok {
		v := s.newVersion(p)
		v.handle = h
		s.file(v)
		cp = v
	} else {
		slab := s.slabs[kind]
		if slab == nil {
			slab = scheme[kind]()
			s.slabs[kind] = slab
		}
		cp = slab.shallow(obj)
	}
	s.version++
	cp.Meta().ResourceVersion = s.version
	s.put(kind, h, nil, cp)
	s.stats.Writes++
	s.notify(kind, h, Added, cp)
	return nil
}

// Update replaces an existing object, found by obj's key, with obj's
// DeepCopy, bumping its resource version. obj may be a view: the stored
// object is swapped out, not written into. Its version is the one a slab does
// not hold: only tests and the store's benchmark probe call Update, never the
// emulation.
func (s *Store) Update(obj Object) error {
	kind, key := obj.Kind(), obj.Meta().Key()
	h := s.handles[key]
	old, exists := s.View(kind, h)
	if !exists {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	s.stats.Copied++
	s.replace(kind, h, old, obj.DeepCopy())
	return nil
}

// notFound is the error of a write to a handle that holds no object of the
// kind.
func (s *Store) notFound(kind Kind, h Handle) error {
	if h > 0 && h < s.used {
		return fmt.Errorf("k8s: %s %q not found", kind, s.entry(h).key)
	}
	return fmt.Errorf("k8s: no %s under handle %d", kind, h)
}

// Modify changes the object under h through fn and stores the result,
// bumping its resource version: the store copies what it holds once, hands
// that copy to fn, and swaps it in. fn may change the copy and every map or
// slice it holds, but not its name or namespace; a Modify whose fn does is
// refused, and nothing is stored.
func (s *Store) Modify(kind Kind, h Handle, fn func(Object)) error {
	old, exists := s.View(kind, h)
	if !exists {
		return s.notFound(kind, h)
	}
	cp := s.private(old)
	fn(cp)
	if m, was := cp.Meta(), old.Meta(); m.Name != was.Name || m.Namespace != was.Namespace {
		return fmt.Errorf("k8s: modifying %s %q renamed it %q", kind, was.Key(), m.Key())
	}
	s.replace(kind, h, old, cp)
	return nil
}

// Modify is Store.Modify for the kind of T, whose copy fn receives as a *T.
func Modify[T any, P Versioned[T]](s *Store, h Handle, fn func(P)) error {
	return s.Modify(P(nil).Kind(), h, func(obj Object) { fn(obj.(P)) })
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
// private copy, in place of old under h and a new resource version, files a
// pod afresh, and queues a Modified event.
func (s *Store) replace(kind Kind, h Handle, old, cp Object) {
	s.version++
	if p, ok := cp.(*Pod); ok {
		p.handle = h
		s.file(p)
	}
	cp.Meta().ResourceVersion = s.version
	s.put(kind, h, old, cp)
	if p, ok := old.(*Pod); ok {
		s.unfile(p)
	}
	s.stats.Writes++
	s.notify(kind, h, Modified, cp)
}

// Delete removes the object of the kind under h.
func (s *Store) Delete(kind Kind, h Handle) error {
	old, exists := s.View(kind, h)
	if !exists {
		return s.notFound(kind, h)
	}
	s.version++
	s.put(kind, h, old, nil)
	s.stats.Writes++
	s.notify(kind, h, Deleted, old) // the event holds what the pod referred to first
	if p, ok := old.(*Pod); ok {
		s.unfile(p)
	}
	s.release(h)
	return nil
}

// Bind is the pods/binding write: it places the pod under h on the node
// whose name node is the handle of (0 unbinds it).
func (s *Store) Bind(h, node Handle) error {
	old := s.pod(h)
	if old == nil {
		return s.notFound(KindPod, h)
	}
	if node < 0 || node >= s.used || node != 0 && s.entry(node).refs == 0 {
		return fmt.Errorf("k8s: bind %s %q: no node under handle %d", KindPod, old.Key(), node)
	}
	bound := s.newVersion(old)
	bound.Spec.NodeName = s.entry(node).key
	bound.node = node
	s.retain(node)
	s.swapPod(h, old, bound)
	s.release(old.node)
	return nil
}

// SetPodStatus is the pods/status write: it replaces the status of the pod
// under h.
func (s *Store) SetPodStatus(h Handle, status PodStatus) error {
	old := s.pod(h)
	if old == nil {
		return s.notFound(KindPod, h)
	}
	reported := s.newVersion(old)
	reported.Status = status
	s.swapPod(h, old, reported)
	return nil
}

// swapPod stores now, a copy of the stored pod old that differs in binding
// or status, in old's place, with everything else an Update does:
// a new resource version, the aggregates moved, a Modified event. The two
// share their labels — safe because a stored object is never written — and
// their filing, so the pod keeps its place under its owner. The aggregates
// move only when the binding or terminal-ness changed: nothing else they
// count can differ between the two.
func (s *Store) swapPod(h Handle, old, now *Pod) {
	s.version++
	now.ResourceVersion = s.version
	s.setObject(KindPod, h, now)
	if old.node != now.node || old.terminal() != now.terminal() {
		s.hold(old, -1)
		s.hold(now, +1)
	}
	if old.owner != 0 {
		list := s.entry(old.owner).owned
		list[slot(list, old.Key(), old.ordinal)].Pod = now
	}
	s.stats.Writes++
	s.notify(KindPod, h, Modified, now)
}

// View fetches the object of the kind under h as a read-only view, reporting
// whether there is one: the entry for a caller that only looks.
func (s *Store) View(kind Kind, h Handle) (Object, bool) {
	obj := s.object(kind, h)
	return obj, obj != nil
}

// Pods returns read-only views of the pods carrying every label of the
// selector (all pods when it is empty), in key order. It examines every pod
// and sorts what it keeps, and the store keeps no index for it: no emulation
// path reads by selector, and the one that reads every pod, FailPodsOnNode
// on an emulated node crash, runs rarely and fails the node's pods in the
// key order the fault tests pin.
func (s *Store) Pods(selector map[string]string) []*Pod {
	s.stats.Scans++
	s.stats.Visited += s.pods
	var out []*Pod
	for h := Handle(1); h < s.used; h++ {
		if p := s.pod(h); p != nil && hasLabels(p.Labels, selector) {
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
func (s *Store) OwnedPods(dst []OwnedPod, owner Handle) []OwnedPod {
	var list []OwnedPod
	if owner > 0 && owner < s.used {
		list = s.entry(owner).owned
	}
	s.stats.Scans++
	s.stats.Visited += len(list)
	return append(dst, list...)
}

// Nodes returns read-only views of all nodes, in key order. The slice is a
// view too.
func (s *Store) Nodes() []*Node {
	if s.nodes == nil {
		var handles []Handle
		for h := Handle(1); h < s.used; h++ {
			if s.object(KindNode, h) != nil {
				handles = append(handles, h)
			}
		}
		slices.SortFunc(handles, func(x, y Handle) int { return strings.Compare(s.entry(x).key, s.entry(y).key) })
		s.nodes = make([]*Node, len(handles))
		for i, h := range handles {
			s.nodes[i] = s.object(KindNode, h).(*Node)
		}
		s.nodeHandles = handles
	}
	s.stats.Scans++
	s.stats.Visited += len(s.nodes)
	return s.nodes
}

// CapacityCPU is the CPU of every node together.
func (s *Store) CapacityCPU() int { return s.capacityCPU }

// BoundCPU is the CPU held by bound, non-terminal pods across all nodes.
func (s *Store) BoundCPU() int { return s.boundCPU }

// NodeBoundCPU is the CPU held by bound, non-terminal pods on the node whose
// name node is the handle of.
func (s *Store) NodeBoundCPU(node Handle) int {
	if node <= 0 || node >= s.used {
		return 0
	}
	return s.entry(node).cpu
}

// AffinityCount is the number of bound, non-terminal pods on the node that
// carry the affinity key, both given by handle.
func (s *Store) AffinityCount(key, node Handle) int { return s.affinity[affinityAt{key, node}] }

func hasLabels(labels, selector map[string]string) bool {
	for k, v := range selector { //lint:deterministic a conjunction: any order gives the same answer
		if got, ok := labels[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// Workqueue is a deduplicating FIFO of reconcile keys, the controller
// pattern's core data structure. Its keys are handles, each held in the
// store while it is queued or waiting out a requeue, so it stands for the
// same key until the handler has run.
type Workqueue struct {
	store   *Store
	pending []bool // by handle: queued and not yet handled
	order   fifo[Handle]
	handler func(Handle)
	armed   bool
	drainFn func() // q.drain, made once
	// Requeue holds a key back for delay: readdKind's timer carries it.
	delay     time.Duration
	readdKind TimerKind
}

// NewWorkqueue creates a queue of the store's handles that feeds them to
// handler on the store's loop and holds a requeued one back for delay.
func NewWorkqueue(store *Store, delay time.Duration, handler func(Handle)) *Workqueue {
	q := &Workqueue{store: store, handler: handler, delay: delay}
	q.drainFn = q.drain
	q.readdKind = store.loop.Handler(q.readd)
	return q
}

// Add enqueues a key; duplicates collapse while queued.
func (q *Workqueue) Add(h Handle) {
	if int(h) >= len(q.pending) {
		q.pending = append(q.pending, make([]bool, int(q.store.used)-len(q.pending))...)
	}
	if q.pending[h] {
		return
	}
	q.pending[h] = true
	q.store.retain(h)
	q.order.push(h)
	if !q.armed {
		q.armed = true
		q.store.loop.Defer(q.drainFn)
	}
}

// Requeue enqueues the key once the queue's delay has passed
// (requeue-with-backoff analogue). A key still queued then collapses into
// that entry, as with Add.
func (q *Workqueue) Requeue(h Handle) {
	q.store.retain(h)
	q.store.loop.Arm(q.delay, q.readdKind, int32(h))
}

// readd runs a Requeue's timer: it adds the key and lets go of it.
func (q *Workqueue) readd(h int32, _ int64) {
	q.Add(Handle(h))
	q.store.release(Handle(h))
}

func (q *Workqueue) drain() {
	q.armed = false
	for q.order.len() > 0 {
		h := q.order.pop()
		q.pending[h] = false
		q.handler(h)
		q.store.release(h)
	}
}
