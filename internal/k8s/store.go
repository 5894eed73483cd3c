package k8s

import (
	"fmt"
	"sort"
	"time"
)

// Store is the API server's object store: versioned CRUD plus watch
// subscriptions. Subscribers are notified via Loop.Defer, so handlers always
// run after the mutation that triggered them completes — the same
// eventual-consistency shape informers give real controllers.
//
// It reads like an informer cache. A stored object is immutable: Create and
// Update store a private copy of their argument and Update swaps the old
// copy out rather than writing into it. So the scans (Pods, Nodes) and the
// event payloads hand out the stored objects themselves as read-only views
// that stay valid, and unchanged, for as long as the caller holds them. A
// caller that wants to change an object takes its own copy — Get returns
// one, DeepCopy makes one from a view — and hands it to Update. A pod's
// binding and status have their own writes, Bind and SetPodStatus, which
// need no copy from the caller and make only a shallow one themselves.
type Store struct {
	loop  Loop
	items map[Kind]map[string]Object
	// keys holds every kind's keys in sorted order, so a scan neither
	// sorts nor walks a map.
	keys map[Kind][]string
	// byLabel holds, for every label a pod carries, the sorted keys of the
	// pods carrying it, so a selector scan visits only candidates.
	byLabel map[labelPair][]string
	// nodeCPU, boundCPU and affinity aggregate the pods that hold node
	// resources (bound and not terminal): their CPU per node and in total,
	// and their count per affinity key and node.
	nodeCPU  map[string]int
	boundCPU int
	affinity map[affinityAt]int
	// ownerOf, once OwnPodsBy sets it, files every pod under an owner;
	// owned holds each owner's pods by (ordinal, key).
	ownerOf func(*Pod) (owner string, ordinal int)
	owned   map[string][]OwnedPod
	// nodes is what Nodes returns. A node write builds a fresh slice, so
	// one handed out earlier stays as it was.
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

type labelPair struct{ key, value string }

type affinityAt struct{ key, node string }

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
	// Copied counts the deep copies the store made (Create, Update, Get).
	// Bind and SetPodStatus make none.
	Copied int
}

// NewStore creates an empty store bound to the loop.
func NewStore(loop Loop) *Store {
	s := &Store{
		loop:     loop,
		items:    make(map[Kind]map[string]Object),
		keys:     make(map[Kind][]string),
		byLabel:  make(map[labelPair][]string),
		nodeCPU:  make(map[string]int),
		affinity: make(map[affinityAt]int),
		subs:     make(map[Kind][]func(Event)),
	}
	s.deliver = s.deliverOldest
	return s
}

// Stats returns the store's counters so far.
func (s *Store) Stats() StoreStats { return s.stats }

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

func (s *Store) bucket(kind Kind) map[string]Object {
	b, ok := s.items[kind]
	if !ok {
		b = make(map[string]Object)
		s.items[kind] = b
	}
	return b
}

// copyOf is the store's one deep-copy site.
func (s *Store) copyOf(obj Object) Object {
	s.stats.Copied++
	return obj.DeepCopy()
}

// insertKey adds key to a sorted list; removeKey takes it out.
func insertKey(list []string, key string) []string {
	i := sort.SearchStrings(list, key)
	list = append(list, "")
	copy(list[i+1:], list[i:])
	list[i] = key
	return list
}

func removeKey(list []string, key string) []string {
	i := sort.SearchStrings(list, key)
	return append(list[:i], list[i+1:]...)
}

// index brings the key list, the node list, the label and owner indexes and
// the resource aggregates up to date with one write under key: was is the
// stored object being replaced or deleted (nil on Create), now the one taking
// its place (nil on Delete), already in items.
func (s *Store) index(kind Kind, key string, was, now Object) {
	if was == nil {
		s.keys[kind] = insertKey(s.keys[kind], key)
	} else if now == nil {
		s.keys[kind] = removeKey(s.keys[kind], key)
	}
	if kind == KindNode {
		s.nodes = make([]*Node, 0, len(s.keys[kind]))
		for _, k := range s.keys[kind] {
			s.nodes = append(s.nodes, s.items[kind][k].(*Node))
		}
	}
	var wasLabels, nowLabels map[string]string
	if p, ok := was.(*Pod); ok {
		wasLabels = p.Labels
		s.hold(p, -1)
		s.disown(key, p)
	}
	if p, ok := now.(*Pod); ok {
		nowLabels = p.Labels
		s.hold(p, +1)
		s.own(key, p)
	}
	for k, v := range wasLabels { //lint:deterministic each label edits its own list
		if nv, ok := nowLabels[k]; ok && nv == v {
			continue
		}
		pair := labelPair{k, v}
		if list := removeKey(s.byLabel[pair], key); len(list) > 0 {
			s.byLabel[pair] = list
		} else {
			delete(s.byLabel, pair)
		}
	}
	for k, v := range nowLabels { //lint:deterministic each label edits its own list
		if wv, ok := wasLabels[k]; ok && wv == v {
			continue
		}
		pair := labelPair{k, v}
		s.byLabel[pair] = insertKey(s.byLabel[pair], key)
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
	for _, key := range s.keys[KindPod] {
		s.own(key, s.items[KindPod][key].(*Pod))
	}
}

// place finds the pod's owner and where the pod sits, or would sit, among
// that owner's pods: they are ordered by ordinal, then key.
func (s *Store) place(key string, p *Pod) (owner string, ordinal, at int) {
	if s.ownerOf == nil {
		return "", 0, 0
	}
	owner, ordinal = s.ownerOf(p)
	list := s.owned[owner]
	at = sort.Search(len(list), func(i int) bool {
		return list[i].Ordinal > ordinal || list[i].Ordinal == ordinal && list[i].Pod.Key() >= key
	})
	return owner, ordinal, at
}

// own files a pod just stored under its owner; disown takes out one just
// replaced or deleted.
func (s *Store) own(key string, p *Pod) {
	owner, ordinal, at := s.place(key, p)
	if owner == "" {
		return
	}
	list := append(s.owned[owner], OwnedPod{})
	copy(list[at+1:], list[at:])
	list[at] = OwnedPod{ordinal, p}
	s.owned[owner] = list
}

func (s *Store) disown(key string, p *Pod) {
	owner, _, at := s.place(key, p)
	if owner == "" {
		return
	}
	if list := append(s.owned[owner][:at], s.owned[owner][at+1:]...); len(list) > 0 {
		s.owned[owner] = list
	} else {
		delete(s.owned, owner)
	}
}

// Create inserts a new object. The stored copy gets a fresh UID, resource
// version, and creation timestamp.
func (s *Store) Create(obj Object) error {
	b := s.bucket(obj.Kind())
	key := obj.Meta().Key()
	if _, exists := b[key]; exists {
		return fmt.Errorf("k8s: %s %q already exists", obj.Kind(), key)
	}
	s.version++
	s.uid++
	cp := s.copyOf(obj)
	m := cp.Meta()
	m.UID = s.uid
	m.ResourceVersion = s.version
	m.CreationTimestamp = s.loop.Now()
	b[key] = cp
	s.index(obj.Kind(), key, nil, cp)
	s.stats.Writes++
	s.notify(obj.Kind(), Event{Type: Added, Object: cp})
	return nil
}

// Update replaces an existing object with a copy of obj, bumping its
// resource version. obj may be a view: the stored object is swapped out, not
// written into.
func (s *Store) Update(obj Object) error {
	b := s.bucket(obj.Kind())
	key := obj.Meta().Key()
	old, exists := b[key]
	if !exists {
		return fmt.Errorf("k8s: %s %q not found", obj.Kind(), key)
	}
	s.version++
	cp := s.copyOf(obj)
	m := cp.Meta()
	m.UID = old.Meta().UID
	m.CreationTimestamp = old.Meta().CreationTimestamp
	m.ResourceVersion = s.version
	b[key] = cp
	s.index(obj.Kind(), key, old, cp)
	s.stats.Writes++
	s.notify(obj.Kind(), Event{Type: Modified, Object: cp})
	return nil
}

// Delete removes the object with the given kind and key.
func (s *Store) Delete(kind Kind, key string) error {
	b := s.bucket(kind)
	old, exists := b[key]
	if !exists {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	delete(b, key)
	s.version++
	s.index(kind, key, old, nil)
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
	bound := *old
	bound.Spec.NodeName = node
	s.swapPod(key, old, &bound)
	return nil
}

// SetPodStatus is the pods/status write: it replaces the pod's status.
func (s *Store) SetPodStatus(key string, status PodStatus) error {
	old, err := s.storedPod(key)
	if err != nil {
		return err
	}
	reported := *old
	reported.Status = status
	s.swapPod(key, old, &reported)
	return nil
}

func (s *Store) storedPod(key string) (*Pod, error) {
	obj, exists := s.items[KindPod][key]
	if !exists {
		return nil, fmt.Errorf("k8s: %s %q not found", KindPod, key)
	}
	return obj.(*Pod), nil
}

// swapPod stores now, a shallow copy of the stored pod old that differs in
// binding or status, in old's place, with everything else an Update does:
// a new resource version, the aggregates moved, a Modified event. The two
// share their labels — safe because a stored object is never written — so the
// label index and the pod's place under its owner stand as they are.
func (s *Store) swapPod(key string, old, now *Pod) {
	s.version++
	now.ResourceVersion = s.version
	s.items[KindPod][key] = now
	s.hold(old, -1)
	s.hold(now, +1)
	if owner, _, at := s.place(key, old); owner != "" {
		s.owned[owner][at].Pod = now
	}
	s.stats.Writes++
	s.notify(KindPod, Event{Type: Modified, Object: now})
}

// Get fetches a private copy of the object, reporting whether it exists. It
// is the entry to mutate-then-Update, which is why it copies.
func (s *Store) Get(kind Kind, key string) (Object, bool) {
	obj, ok := s.items[kind][key]
	if !ok {
		return nil, false
	}
	return s.copyOf(obj), true
}

// View fetches the object as a read-only view, reporting whether it exists:
// the entry for a caller that only looks.
func (s *Store) View(kind Kind, key string) (Object, bool) {
	obj, ok := s.items[kind][key]
	return obj, ok
}

// Pods returns read-only views of the pods matching the label selector (all
// pods when it is empty), in key order. It visits the pods carrying the
// selector's rarest label and checks the other labels on each.
func (s *Store) Pods(selector map[string]string) []*Pod {
	cands := s.keys[KindPod]
	want := make([]labelPair, 0, 4)
	for k, v := range selector { //lint:deterministic any shortest candidate list gives the same pods and the same count
		pair := labelPair{k, v}
		want = append(want, pair)
		if list := s.byLabel[pair]; len(list) < len(cands) {
			cands = list
		}
	}
	s.stats.Scans++
	s.stats.Visited += len(cands)
	pods := s.items[KindPod]
	out := make([]*Pod, 0, len(cands))
	for _, key := range cands {
		if p := pods[key].(*Pod); hasLabels(p.Labels, want) {
			out = append(out, p)
		}
	}
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

func hasLabels(labels map[string]string, want []labelPair) bool {
	for _, w := range want {
		if labels[w.key] != w.value {
			return false
		}
	}
	return true
}

// Workqueue is a deduplicating FIFO of reconcile keys, the controller
// pattern's core data structure.
type Workqueue struct {
	loop    Loop
	pending map[string]bool
	order   fifo[string]
	handler func(key string)
	armed   bool
	drainFn func() // q.drain, made once
}

// NewWorkqueue creates a queue that feeds keys to handler on the loop.
func NewWorkqueue(loop Loop, handler func(key string)) *Workqueue {
	q := &Workqueue{loop: loop, pending: make(map[string]bool), handler: handler}
	q.drainFn = q.drain
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

// AddAfter enqueues the key after the delay (requeue-with-backoff analogue).
func (q *Workqueue) AddAfter(key string, d time.Duration) {
	q.loop.At(d, func() { q.Add(key) })
}

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
