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
// one, DeepCopy makes one from a view — and hands it to Update.
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
	version  int64
	uid      int64
	subs     map[Kind][]func(Event)
	stats    StoreStats
}

type labelPair struct{ key, value string }

type affinityAt struct{ key, node string }

// StoreStats counts what the store has done. Every field is a pure function
// of the calls made, so a run's counters repeat exactly on any host.
type StoreStats struct {
	// Writes counts successful Create, Update and Delete calls.
	Writes int
	// Scans counts Pods and Nodes calls, Visited the objects they examined.
	Scans   int
	Visited int
	// Copied counts the deep copies the store made (Create, Update, Get).
	Copied int
}

// NewStore creates an empty store bound to the loop.
func NewStore(loop Loop) *Store {
	return &Store{
		loop:     loop,
		items:    make(map[Kind]map[string]Object),
		keys:     make(map[Kind][]string),
		byLabel:  make(map[labelPair][]string),
		nodeCPU:  make(map[string]int),
		affinity: make(map[affinityAt]int),
		subs:     make(map[Kind][]func(Event)),
	}
}

// Stats returns the store's counters so far.
func (s *Store) Stats() StoreStats { return s.stats }

// Subscribe registers fn for all changes to the kind. Events fire in
// mutation order. The event's object is a read-only view.
func (s *Store) Subscribe(kind Kind, fn func(Event)) {
	s.subs[kind] = append(s.subs[kind], fn)
}

func (s *Store) notify(kind Kind, ev Event) {
	subs := s.subs[kind]
	if len(subs) == 0 {
		return
	}
	s.loop.Defer(func() {
		for _, fn := range subs {
			fn(ev)
		}
	})
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

// index brings the key list, the label index and the resource aggregates up
// to date with one write under key: was is the stored object being replaced
// or deleted (nil on Create), now the one taking its place (nil on Delete).
func (s *Store) index(kind Kind, key string, was, now Object) {
	if was == nil {
		s.keys[kind] = insertKey(s.keys[kind], key)
	} else if now == nil {
		s.keys[kind] = removeKey(s.keys[kind], key)
	}
	var wasLabels, nowLabels map[string]string
	if p, ok := was.(*Pod); ok {
		wasLabels = p.Labels
		s.hold(p, -1)
	}
	if p, ok := now.(*Pod); ok {
		nowLabels = p.Labels
		s.hold(p, +1)
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

// Get fetches a private copy of the object, reporting whether it exists. It
// is the entry to mutate-then-Update, which is why it copies.
func (s *Store) Get(kind Kind, key string) (Object, bool) {
	obj, ok := s.items[kind][key]
	if !ok {
		return nil, false
	}
	return s.copyOf(obj), true
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

// Nodes returns read-only views of all nodes, in key order.
func (s *Store) Nodes() []*Node {
	keys := s.keys[KindNode]
	s.stats.Scans++
	s.stats.Visited += len(keys)
	out := make([]*Node, 0, len(keys))
	for _, key := range keys {
		out = append(out, s.items[KindNode][key].(*Node))
	}
	return out
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
	// order[head:] is the queue; drain reuses the array once it is empty.
	order   []string
	head    int
	handler func(key string)
	armed   bool
}

// NewWorkqueue creates a queue that feeds keys to handler on the loop.
func NewWorkqueue(loop Loop, handler func(key string)) *Workqueue {
	return &Workqueue{loop: loop, pending: make(map[string]bool), handler: handler}
}

// Add enqueues a key; duplicates collapse while queued.
func (q *Workqueue) Add(key string) {
	if q.pending[key] {
		return
	}
	q.pending[key] = true
	q.order = append(q.order, key)
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
	q.loop.Defer(q.drain)
}

func (q *Workqueue) drain() {
	q.armed = false
	for q.head < len(q.order) {
		key := q.order[q.head]
		q.head++
		delete(q.pending, key)
		q.handler(key)
	}
	q.order, q.head = q.order[:0], 0
}

// Len reports queued keys.
func (q *Workqueue) Len() int { return len(q.order) - q.head }
