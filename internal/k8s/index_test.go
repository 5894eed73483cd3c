package k8s

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

func podKeys(pods []*Pod) []string {
	keys := make([]string, 0, len(pods))
	for _, p := range pods {
		keys = append(keys, p.Key())
	}
	return keys
}

// TestStoreUpdateReindexesLabels pins what a selector read sees after writes:
// an Update that changes a pod's labels moves it, a Delete removes it from
// every selector, and Update accepts a view Pods handed out.
func TestStoreUpdateReindexesLabels(t *testing.T) {
	store := NewStore(NewEventLoop(t0))
	for _, name := range []string{"p1", "p2"} {
		pod := mkPod(name, 1, "a")
		pod.Labels["role"] = "worker"
		if err := store.Create(pod); err != nil {
			t.Fatal(err)
		}
	}
	under := func(job string) []string { return podKeys(store.Pods(map[string]string{"job": job})) }

	obj, _ := store.Get(KindPod, "p1")
	moved := obj.(*Pod)
	moved.Labels["job"] = "b"
	if err := store.Update(moved); err != nil {
		t.Fatal(err)
	}
	if got := under("a"); !reflect.DeepEqual(got, []string{"p2"}) {
		t.Errorf("job=a lists %v after p1 moved to b, want [p2]", got)
	}
	if got := under("b"); !reflect.DeepEqual(got, []string{"p1"}) {
		t.Errorf("job=b lists %v, want [p1]", got)
	}
	if got := podKeys(store.Pods(map[string]string{"job": "b", "role": "worker"})); !reflect.DeepEqual(got, []string{"p1"}) {
		t.Errorf("job=b,role=worker lists %v, want [p1]", got)
	}

	// A view goes straight back into Update: the store copies it, bumps the
	// version on the copy, and leaves the view as it was.
	view := store.Pods(map[string]string{"job": "a"})[0]
	before := view.ResourceVersion
	if err := store.Update(view); err != nil {
		t.Fatalf("Update of a view: %v", err)
	}
	if view.ResourceVersion != before {
		t.Error("Update wrote the new resource version into the view")
	}
	if now := store.Pods(map[string]string{"job": "a"})[0]; now == view || now.ResourceVersion <= before {
		t.Errorf("Update of a view did not swap in a fresh object (version %d -> %d)", before, now.ResourceVersion)
	}

	if err := store.Delete(KindPod, store.Lookup("p1")); err != nil {
		t.Fatal(err)
	}
	for _, sel := range []map[string]string{nil, {"job": "b"}, {"role": "worker"}, {"job": "b", "role": "worker"}} {
		for _, key := range podKeys(store.Pods(sel)) {
			if key == "p1" {
				t.Errorf("deleted pod still listed under %v", sel)
			}
		}
	}
}

// TestStoreModify pins Modify's contract: fn changes a private copy of the
// stored object, so views handed out earlier stay as they were; an fn that
// renames the object is refused, storing nothing and delivering no event; a
// missing key is an error and fn is not called.
func TestStoreModify(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	var events []string
	for _, kind := range []Kind{KindPod, KindConfigMap} {
		store.Subscribe(kind, func(ev Event) {
			events = append(events, fmt.Sprintf("%v %s %s v%d", ev.Type, kind, ev.Object.Meta().Key(), ev.Object.Meta().ResourceVersion))
		})
	}
	cm := &ConfigMap{ObjectMeta: ObjectMeta{Name: "nodelist", Labels: map[string]string{"charmjob": "j"}}, Data: map[string]string{"nodelist": "w0"}}
	for _, obj := range []Object{mkPod("p1", 1, "a"), cm} {
		if err := store.Create(obj); err != nil {
			t.Fatal(err)
		}
	}
	loop.Settle()
	events = events[:0]

	t.Run("fn changes a copy", func(t *testing.T) {
		podView, _ := store.View(KindPod, store.Lookup("p1"))
		cmView, _ := store.View(KindConfigMap, store.Lookup("nodelist"))
		podWas, cmWas := podView.DeepCopy(), cmView.DeepCopy()
		err := store.Modify(KindPod, store.Lookup("p1"), func(obj Object) {
			p := obj.(*Pod)
			p.Labels["job"] = "b"
			p.Spec.CPU = 4
		})
		if err != nil {
			t.Fatal(err)
		}
		err = store.Modify(KindConfigMap, store.Lookup("nodelist"), func(obj Object) {
			obj.(*ConfigMap).Data["nodelist"] = "w0\nw1"
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(podView, podWas) || !reflect.DeepEqual(cmView, cmWas) {
			t.Errorf("Modify wrote through a view:\n pod %+v, was %+v\n configmap %+v, was %+v", podView, podWas, cmView, cmWas)
		}
		obj, _ := store.View(KindPod, store.Lookup("p1"))
		p := obj.(*Pod)
		if p.Labels["job"] != "b" || p.Spec.CPU != 4 || p.ResourceVersion <= podWas.Meta().ResourceVersion {
			t.Errorf("stored pod after Modify = %+v, from %+v", p, podWas)
		}
		if got := podKeys(store.Pods(map[string]string{"job": "b"})); !reflect.DeepEqual(got, []string{"p1"}) {
			t.Errorf("job=b lists %v after Modify moved p1 there, want [p1]", got)
		}
		obj, _ = store.View(KindConfigMap, store.Lookup("nodelist"))
		if got := obj.(*ConfigMap).Data["nodelist"]; got != "w0\nw1" {
			t.Errorf("stored nodelist %q, want %q", got, "w0\nw1")
		}
		loop.Settle()
		if want := []string{"Modified Pod p1 v3", "Modified ConfigMap nodelist v4"}; !reflect.DeepEqual(events, want) {
			t.Errorf("events %v, want %v", events, want)
		}
		events = events[:0]
	})

	t.Run("fn renames the object", func(t *testing.T) {
		before, _ := store.View(KindPod, store.Lookup("p1"))
		for _, rename := range []func(*ObjectMeta){
			func(m *ObjectMeta) { m.Name = "p2" },
			func(m *ObjectMeta) { m.Namespace = "ns" },
		} {
			if err := store.Modify(KindPod, store.Lookup("p1"), func(obj Object) { rename(obj.Meta()) }); err == nil {
				t.Error("Modify stored an object under a key it no longer has")
			}
		}
		if now, _ := store.View(KindPod, store.Lookup("p1")); now != before {
			t.Errorf("a refused Modify stored %+v", now)
		}
		if _, ok := store.View(KindPod, store.Lookup("p2")); ok {
			t.Error("a refused Modify stored p2")
		}
		loop.Settle()
		if len(events) != 0 {
			t.Errorf("a refused Modify delivered %v", events)
		}
	})

	t.Run("missing key", func(t *testing.T) {
		called := false
		if err := store.Modify(KindPod, store.Lookup("ghost"), func(Object) { called = true }); err == nil || called {
			t.Errorf("Modify of a missing pod: err %v, fn called %v", err, called)
		}
	})
}

// refBind, refStart and refSetPhase are the binding and status writes as the
// pod scheduler, the kubelet and setPhase made them before the store had Bind
// and SetPodStatus: take a deep copy, change it, Update. refModify is Modify
// made the same way, as the operator made its writes before the store had
// it. storeOps holds the new writes to them.
func refBind(store *Store, key, node string) error {
	obj, ok := store.Get(KindPod, key)
	if !ok {
		return fmt.Errorf("k8s: %s %q not found", KindPod, key)
	}
	pod := obj.(*Pod)
	pod.Spec.NodeName = node
	return store.Update(pod)
}

func refStart(store *Store, key string) error {
	obj, ok := store.Get(KindPod, key)
	if !ok {
		return fmt.Errorf("k8s: %s %q not found", KindPod, key)
	}
	pod := obj.(*Pod)
	pod.Status.Phase = PodRunning
	return store.Update(pod)
}

func refSetPhase(store *Store, view *Pod, phase PodPhase) bool {
	pod := view.DeepCopy().(*Pod)
	pod.Status.Phase = phase
	return store.Update(pod) == nil
}

func refModify(store *Store, kind Kind, key string, fn func(Object)) error {
	obj, ok := store.Get(kind, key)
	if !ok {
		return fmt.Errorf("k8s: %s %q not found", kind, key)
	}
	fn(obj)
	return store.Update(obj)
}

// watchedStore is a store with its loop, the events it has delivered and
// every pod view it has handed out, each beside a deep copy taken when it
// was first seen. Its queue is fed, as the controller's is, the handle of
// every pod event's pod and of the pod's owner, and its handler records the
// key each handle stands for when handled; naive is fed the same keys by
// name.
type watchedStore struct {
	*Store
	t       *testing.T
	loop    *EventLoop
	events  []string
	views   map[*Pod]*Pod
	queue   *Workqueue
	handled []string
	naive   naiveQueue
	// configMap is whether the ConfigMap testConfigMap is stored.
	configMap bool
}

// naiveQueue is the Workqueue as it was before it took handles, keyed by
// name: the oracle for its dedupe.
type naiveQueue struct {
	loop    *EventLoop
	pending map[string]bool
	order   []string
	armed   bool
	handled []string
}

func (q *naiveQueue) add(key string) {
	if q.pending[key] {
		return
	}
	q.pending[key] = true
	q.order = append(q.order, key)
	if !q.armed {
		q.armed = true
		q.loop.Defer(q.drain)
	}
}

func (q *naiveQueue) drain() {
	q.armed = false
	for len(q.order) > 0 {
		key := q.order[0]
		q.order = q.order[1:]
		delete(q.pending, key)
		q.handled = append(q.handled, key)
	}
}

// testNodes are the nodes every watched store holds: a pod's binding names
// one of them or none. Each also starts with a ConfigMap named
// testConfigMap, which is a pod's name and an owner's too: a key under which
// objects of two kinds are stored, and which storeOps deletes and re-creates
// before, between and after the pod's writes.
var testNodes = []string{"n0", "n1"}

const testConfigMap = "b"

func newWatchedStore(t *testing.T) *watchedStore {
	w := &watchedStore{t: t, loop: NewEventLoop(t0), views: make(map[*Pod]*Pod)}
	w.Store = NewStore(w.loop)
	w.naive = naiveQueue{loop: w.loop, pending: map[string]bool{}}
	w.queue = NewWorkqueue(w.Store, 0, func(h Handle) { w.handled = append(w.handled, w.entry(h).key) })
	w.Subscribe(KindPod, func(ev Event) {
		m := ev.Object.Meta()
		w.events = append(w.events, fmt.Sprintf("%v %s v%d", ev.Type, m.Key(), m.ResourceVersion))
		p := ev.Object.(*Pod)
		w.keep(p)
		w.queue.Add(ev.Handle)
		w.naive.add(m.Key())
		if owner, _ := w.ownerOf(p); owner != "" {
			w.queue.Add(p.Owner())
			w.naive.add(owner)
		}
	})
	for _, n := range testNodes {
		if err := w.Create(&Node{ObjectMeta: ObjectMeta{Name: n}, CapacityCPU: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.toggleConfigMap(); err != nil {
		t.Fatal(err)
	}
	// Pods are owned through their job label; a worker's ordinal is its
	// name's letter, so ordinal order is not key order under a namespace.
	w.OwnPodsBy(func(p *Pod) (string, int) {
		if p.Labels["role"] != "worker" {
			return p.Labels["job"], -1
		}
		return p.Labels["job"], int(p.Name[0] - 'a')
	})
	return w
}

// toggleConfigMap creates the ConfigMap testConfigMap when it is not stored
// and deletes it when it is.
func (w *watchedStore) toggleConfigMap() error {
	if w.configMap = !w.configMap; w.configMap {
		return w.Create(&ConfigMap{ObjectMeta: ObjectMeta{Name: testConfigMap}})
	}
	return w.Delete(KindConfigMap, w.Lookup(testConfigMap))
}

// keep files views the store handed out; a view seen before must still be
// what it was then.
func (w *watchedStore) keep(views ...*Pod) {
	for _, v := range views {
		if was, seen := w.views[v]; seen {
			w.intact(v, was)
		} else {
			w.views[v] = v.DeepCopy().(*Pod)
		}
	}
}

func (w *watchedStore) keepOwned(owned []OwnedPod) {
	for _, o := range owned {
		w.keep(o.Pod)
	}
}

// intact fails the test when a view no longer equals its copy: a slot that
// now holds another version (the store handed it out twice) or one written
// after the store handed it out.
func (w *watchedStore) intact(view, was *Pod) {
	w.t.Helper()
	if reflect.DeepEqual(view, was) {
		return
	}
	if view.Key() != was.Key() || view.ResourceVersion != was.ResourceVersion {
		w.t.Fatalf("the view of %q v%d now shows %q v%d: two versions share one pod", was.Key(), was.ResourceVersion, view.Key(), view.ResourceVersion)
	}
	w.t.Fatalf("the view of %q v%d was written after the store handed it out:\n now %+v\n was %+v", was.Key(), was.ResourceVersion, view, was)
}

// viewsIntact checks every view the store has handed out.
func (w *watchedStore) viewsIntact() {
	w.t.Helper()
	for v, was := range w.views {
		w.intact(v, was)
	}
}

// storeOps drives the store with a sequence of creates, updates and
// modifies (labels, binding, phase, CPU and affinity key all move), binding
// and status writes, deletes, a job's teardown through the owner index and
// the ConfigMap testConfigMap coming and going, decoded from data, three
// bytes a step. After every step it compares each
// read with a read that knows no index — fetch every object, sort by key,
// filter — and the store with a second one on which the reference path made
// the binding and status writes, the modifies and the teardowns: stored
// values, resource versions included, the events delivered and the
// aggregates must be equal. Every view either store
// hands out — event objects, View, OwnedPods, Pods — must stay as it was
// when first seen, and distinct versions must be distinct pods.
func storeOps(t *testing.T, data []byte) {
	store, ref := newWatchedStore(t), newWatchedStore(t)
	jobs := []string{"", "a", "b"}
	roles := []string{"", "worker", "launcher"}
	nodes := []string{"", "n0", "n1"}
	phases := []PodPhase{PodPending, PodRunning, PodSucceeded, PodFailed}
	selectors := []map[string]string{
		nil,
		{"job": "a"},
		{"role": "worker"},
		{"job": "b", "role": "worker"},
		{"job": "a", "role": "nobody"},
		{"tier": "none"},
	}
	live := map[string]bool{}

	for ; len(data) >= 3; data = data[3:] {
		op, id, arg := data[0], data[1], int(data[2])
		pod := &Pod{ObjectMeta: ObjectMeta{Name: string(rune('a' + id%12)), Labels: map[string]string{}}}
		if id%5 == 0 {
			pod.Namespace = "ns" // a key that does not sort like its name
		}
		if job := jobs[arg%3]; job != "" {
			pod.Labels["job"] = job
		}
		if role := roles[arg/3%3]; role != "" {
			pod.Labels["role"] = role
		}
		pod.Spec = PodSpec{NodeName: nodes[arg/9%3], CPU: arg / 27 % 3, AffinityKey: jobs[arg/81%3]}
		pod.Status.Phase = phases[int(op)/8%4]
		key := pod.Key()
		var err, refErr error
		wantErr := !live[key]
		switch op % 8 {
		case 0, 1:
			// Create keeps the maps it is handed, so the reference gets a
			// pod of its own: a write into one store's labels must not show
			// in the other's too and pass the comparison.
			wantErr = live[key]
			err, refErr = store.Create(pod), ref.Create(pod.DeepCopy())
			live[key] = true
		case 2:
			if op&32 == 0 {
				err, refErr = store.Update(pod), ref.Update(pod)
				break
			}
			// The same change made through the copy Modify hands out, its
			// labels map written in place: a map the copy shared with a
			// stored version would show in the view check.
			change := func(obj Object) {
				p := obj.(*Pod)
				clear(p.Labels)
				maps.Copy(p.Labels, pod.Labels)
				p.Spec = pod.Spec
				p.Status.Phase = pod.Status.Phase
			}
			err, refErr = store.Modify(KindPod, store.Lookup(key), change), refModify(ref.Store, KindPod, key, change)
		case 3:
			if op&32 == 0 {
				err, refErr = store.Delete(KindPod, store.Lookup(key)), ref.Delete(KindPod, ref.Lookup(key))
				delete(live, key)
				break
			}
			// A job's teardown, as the operator makes it: the owner's pods
			// from the owner index, deleted in key order. The reference
			// filters every live pod by its owner, in key order.
			wantErr = false
			owner := jobs[arg%3]
			owned := store.OwnedPods(nil, store.Lookup(owner))
			store.keepOwned(owned)
			slices.SortFunc(owned, func(a, b OwnedPod) int { return strings.Compare(a.Pod.Key(), b.Pod.Key()) })
			for _, o := range owned {
				err = errors.Join(err, store.Delete(KindPod, o.Pod.Handle()))
			}
			keys := make([]string, 0, len(live))
			for k := range live {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				v, _ := ref.View(KindPod, ref.Lookup(k))
				ref.keep(v.(*Pod))
				if o, _ := ref.ownerOf(v.(*Pod)); owner != "" && o == owner {
					refErr = errors.Join(refErr, ref.Delete(KindPod, ref.Lookup(k)))
					delete(live, k)
				}
			}
		case 4, 5:
			err = store.Bind(store.Lookup(key), store.Lookup(pod.Spec.NodeName))
			refErr = refBind(ref.Store, key, pod.Spec.NodeName)
		case 6:
			if op&32 != 0 {
				// The ConfigMap under the pod name "b" comes or goes, so the
				// key holds a pod, a ConfigMap, both or neither, stored and
				// deleted in either order.
				wantErr = false
				err, refErr = store.toggleConfigMap(), ref.toggleConfigMap()
				break
			}
			err, refErr = store.SetPodStatus(store.Lookup(key), PodStatus{Phase: PodRunning}), refStart(ref.Store, key)
		case 7:
			view, refView := pod, pod // a missing pod: both report false
			if v, ok := store.View(KindPod, store.Lookup(key)); ok {
				rv, _ := ref.View(KindPod, ref.Lookup(key))
				view, refView = v.(*Pod), rv.(*Pod)
				store.keep(view)
				ref.keep(refView)
			}
			if !setPhase(store.Store, view, pod.Status.Phase) {
				err = errors.New("setPhase reported false")
			}
			if !refSetPhase(ref.Store, refView, pod.Status.Phase) {
				refErr = errors.New("setPhase reported false")
			}
		}
		if (err != nil) != wantErr || (refErr != nil) != wantErr {
			t.Fatalf("op %d on %q: err %v, reference %v, want an error: %v", op%8, key, err, refErr, wantErr)
		}
		store.loop.Settle()
		ref.loop.Settle()
		if !reflect.DeepEqual(store.events, ref.events) {
			t.Fatalf("op %d on %q: events delivered\n %v\nreference path\n %v", op%8, key, store.events, ref.events)
		}
		store.events, ref.events = store.events[:0], ref.events[:0]
		for _, w := range []*watchedStore{store, ref} {
			if !reflect.DeepEqual(w.handled, w.naive.handled) {
				t.Fatalf("op %d on %q: the workqueue handled\n %v\na queue keyed by name\n %v", op%8, key, w.handled, w.naive.handled)
			}
			w.handled, w.naive.handled = w.handled[:0], w.naive.handled[:0]
		}

		keys := make([]string, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		all := make([]*Pod, 0, len(keys))
		for _, k := range keys {
			obj, ok := store.Get(KindPod, k)
			if !ok {
				t.Fatalf("live pod %q missing from the store", k)
			}
			all = append(all, obj.(*Pod))
			view, _ := store.View(KindPod, store.Lookup(k))
			want, _ := ref.View(KindPod, ref.Lookup(k))
			if !reflect.DeepEqual(obj, want) {
				t.Fatalf("op %d: stored %q = %+v, reference path %+v", op%8, k, obj, want)
			}
			store.keep(view.(*Pod))
			ref.keep(want.(*Pod))
		}
		for _, sel := range selectors {
			var want []*Pod
			for _, p := range all {
				match := true
				for k, v := range sel {
					match = match && p.Labels[k] == v
				}
				if match {
					want = append(want, p)
				}
			}
			got := store.Pods(sel)
			store.keep(got...)
			if len(got) != len(want) {
				t.Fatalf("Pods(%v) = %v, naive read %v", sel, podKeys(got), podKeys(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("Pods(%v)[%d] = %+v, naive read %+v", sel, i, got[i], want[i])
				}
			}
		}
		for _, owner := range jobs {
			var want []OwnedPod
			for _, p := range all {
				if o, ordinal := store.ownerOf(p); o == owner && owner != "" {
					want = append(want, OwnedPod{ordinal, p})
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].Ordinal < want[j].Ordinal })
			got := store.OwnedPods(nil, store.Lookup(owner))
			store.keepOwned(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("OwnedPods(%q) = %+v, naive read %+v", owner, got, want)
			}
		}
		store.viewsIntact()
		ref.viewsIntact()

		total := 0
		perNode := map[string]int{}
		perAffinity := map[[2]string]int{}
		for _, p := range all {
			if p.Spec.NodeName == "" || p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed {
				continue
			}
			total += p.Spec.CPU
			perNode[p.Spec.NodeName] += p.Spec.CPU
			perAffinity[[2]string{p.Spec.AffinityKey, p.Spec.NodeName}]++
		}
		if store.BoundCPU() != total || ref.BoundCPU() != total {
			t.Fatalf("BoundCPU = %d, reference path %d, naive sum %d", store.BoundCPU(), ref.BoundCPU(), total)
		}
		for _, n := range nodes {
			if got := store.NodeBoundCPU(store.Lookup(n)); got != perNode[n] {
				t.Fatalf("NodeBoundCPU(%q) = %d, naive sum %d", n, got, perNode[n])
			}
			for _, a := range jobs[1:] {
				if got := store.AffinityCount(store.Lookup(a), store.Lookup(n)); got != perAffinity[[2]string{a, n}] {
					t.Fatalf("AffinityCount(%q, %q) = %d, naive count %d", a, n, got, perAffinity[[2]string{a, n}])
				}
			}
		}
		store.handlesMatch(keys, perNode)
		ref.handlesMatch(keys, perNode)
	}
}

// handlesMatch holds every handle-keyed read of a settled store to the names
// it stands for. keys are the live pods' keys, perNode the CPU the bound,
// non-terminal ones hold on each node by name.
//   - Handle to object: every live pod, node and ConfigMap has its key's
//     handle, which Lookup returns and under which the store keeps it; a pod
//     carries its handle. No two live keys share one, and no handle holds
//     any other object: nothing deleted stays readable.
//   - The handles a pod refers to are those of its owner's name, its node's
//     and its affinity key's.
//   - Every owner list sits under the handle its pods name as their owner.
//   - Node aggregates: each handle's CPU is what the pods bound to the node
//     of its name hold.
//   - References: each handle is held once for every object under its key
//     and every pod naming it, the settled store's events and queues
//     holding none; every other entry is free, and the name→handle map
//     holds just the held ones.
func (w *watchedStore) handlesMatch(keys []string, perNode map[string]int) {
	w.t.Helper()
	name := func(h Handle) string { return w.entry(h).key }
	refs := make([]int32, w.used)
	keyOf := map[Handle]string{}
	live := 0 // objects looked up
	lookup := func(key string, kind Kind) (Handle, Object) {
		h := w.Lookup(key)
		obj, ok := w.View(kind, h)
		if h == 0 || !ok || obj.Meta().Key() != key {
			w.t.Fatalf("%q: Lookup gives handle %d, which holds %s %v", key, h, kind, obj)
		}
		if other, dup := keyOf[h]; dup && other != key {
			w.t.Fatalf("live keys %q and %q share handle %d", other, key, h)
		}
		keyOf[h] = key
		refs[h]++
		live++
		return h, obj
	}
	for _, key := range keys {
		h, obj := lookup(key, KindPod)
		p := obj.(*Pod)
		if p.Handle() != h {
			w.t.Fatalf("pod %q, stored under handle %d, carries %d", key, h, p.Handle())
		}
		owner, _ := w.ownerOf(p)
		for _, r := range []struct {
			what, want string
			h          Handle
		}{{"owner", owner, p.owner}, {"node", p.Spec.NodeName, p.node}, {"affinity key", p.Spec.AffinityKey, p.affinity}} {
			if name(r.h) != r.want || (r.h == 0) != (r.want == "") {
				w.t.Fatalf("pod %q refers to its %s %q by handle %d, which stands for %q", key, r.what, r.want, r.h, name(r.h))
			}
			refs[r.h]++
		}
	}
	for _, n := range testNodes {
		lookup(n, KindNode)
	}
	if w.configMap {
		lookup(testConfigMap, KindConfigMap)
	}
	free, stored := 0, 0
	for h := Handle(1); h < w.used; h++ {
		e := w.entry(h)
		for kind := Kind(0); kind < kindCount; kind++ {
			if obj, ok := w.View(kind, h); ok {
				stored++
				if obj.Meta().Key() != e.key {
					w.t.Fatalf("handle %d (%q) holds %s %q", h, e.key, kind, obj.Meta().Key())
				}
			}
		}
		for _, o := range e.owned {
			if o.Pod.owner != h {
				w.t.Fatalf("pod %q, owned by handle %d, is listed under %d (%q)", o.Pod.Key(), o.Pod.owner, h, e.key)
			}
		}
		if e.cpu != perNode[e.key] {
			w.t.Fatalf("handle %d (%q) holds %d CPU, the pods bound to %q hold %d", h, e.key, e.cpu, e.key, perNode[e.key])
		}
		if e.refs != refs[h] {
			w.t.Fatalf("handle %d (%q) is held %d times, by %d objects and pods", h, e.key, e.refs, refs[h])
		}
		if e.refs == 0 {
			free++
		} else if w.handles[e.key] != h {
			w.t.Fatalf("handle %d stands for %q, which the name map gives handle %d", h, e.key, w.handles[e.key])
		}
	}
	if stored != live {
		w.t.Fatalf("the handles hold %d objects, %d of them live", stored, live)
	}
	if free != len(w.free) || len(w.handles)+free != int(w.used)-1 {
		w.t.Fatalf("%d free entries, %d on the free list; %d names map to the %d others", free, len(w.free), len(w.handles), int(w.used)-1-free)
	}
}

// TestStoreIndexMatchesNaiveRead runs storeOps over seeded random sequences.
func TestStoreIndexMatchesNaiveRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 3*(1+rng.Intn(120)))
		rng.Read(data)
		storeOps(t, data)
	}
}

// TestEmptiedOwnerListIsReused: when deletes empty an owner's list, its
// array, cleared, goes to the next new owner, and the reads do not show it.
// The emptied owner has no pods, a dst OwnedPods filled before is unchanged,
// and the slots of the reused array past the new owner's pods hold none of
// the old owner's.
func TestEmptiedOwnerListIsReused(t *testing.T) {
	w := newWatchedStore(t)
	create := func(name, job string) {
		t.Helper()
		pod := &Pod{ObjectMeta: ObjectMeta{Name: name, Labels: map[string]string{"job": job, "role": "worker"}}}
		if err := w.Create(pod); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		create(name, "a")
	}
	dst := w.OwnedPods(nil, w.Lookup("a"))
	was := slices.Clone(dst)
	array := &w.entry(w.Lookup("a")).owned[0]
	for _, o := range dst {
		if err := w.Delete(KindPod, o.Pod.Handle()); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.OwnedPods(nil, w.Lookup("a")); len(got) != 0 {
		t.Errorf("OwnedPods(a) after every pod of a went = %+v, want none", got)
	}

	create("e", "b")
	create("d", "b")
	list := w.entry(w.Lookup("b")).owned
	if &list[0] != array {
		t.Error("the new owner's list was not built in the emptied array")
	}
	if !reflect.DeepEqual(dst, was) {
		t.Errorf("a dst filed before the reuse now holds %+v, was %+v", dst, was)
	}
	if got := podKeys([]*Pod{list[0].Pod, list[1].Pod}); !reflect.DeepEqual(got, []string{"d", "e"}) || len(list) != 2 {
		t.Errorf("owner b's list = %+v, want d and e", list)
	}
	for i, o := range list[len(list):cap(list)] {
		if o.Pod != nil {
			t.Errorf("slot %d of the reused array still holds pod %q", len(list)+i, o.Pod.Key())
		}
	}
	if got := w.OwnedPods(nil, w.Lookup("a")); len(got) != 0 {
		t.Errorf("OwnedPods(a) after the reuse = %+v, want none", got)
	}
}

// FuzzStoreIndex lets the fuzzer pick the sequence.
func FuzzStoreIndex(f *testing.F) {
	f.Add([]byte{0, 0, 4, 2, 0, 14, 3, 0, 0})
	f.Add([]byte{0, 1, 40, 0, 2, 40, 6, 1, 121, 10, 2, 200, 3, 1, 0, 0, 1, 7})
	f.Add([]byte{1, 5, 255, 2, 5, 0, 2, 5, 255, 7, 5, 0})
	f.Add([]byte{0, 1, 40, 4, 1, 49, 6, 1, 5, 15, 1, 0, 3, 1, 0, 5, 1, 9})                   // bind, start, phase, and a bind of what is gone
	f.Add([]byte{0, 1, 4, 0, 2, 4, 0, 5, 1, 0, 11, 0, 0, 3, 2, 35, 0, 1, 35, 0, 1})          // job a's teardown, twice, beside other pods
	f.Add([]byte{0, 0, 121, 0, 11, 121, 0, 13, 7, 4, 0, 9, 35, 0, 1, 35, 0, 0})              // a teardown of bound workers, and of no owner
	f.Add([]byte{0, 1, 40, 0, 2, 40, 34, 1, 49, 42, 2, 1, 6, 1, 5, 34, 1, 3, 34, 3, 0})      // Modify moving, unbinding and relabelling workers, and of no pod
	f.Add([]byte{0, 1, 4, 0, 2, 4, 35, 0, 1, 0, 3, 5, 0, 4, 2, 0, 5, 5, 35, 0, 2, 0, 6, 4})  // a's teardown empties its list, then b and a again file pods in reused arrays
	f.Add([]byte{38, 0, 0, 0, 1, 4, 38, 0, 0, 3, 1, 0, 38, 0, 0, 0, 3, 0, 38, 0, 0})         // pod "b", then ConfigMap "b"; the pod goes first, and the freed handle is reused
	f.Add([]byte{0, 1, 4, 38, 0, 0, 38, 0, 0, 0, 3, 4, 3, 1, 0, 38, 0, 0, 0, 1, 0, 3, 1, 0}) // ConfigMap "b" goes and comes back beside pod "b", which goes and comes back
	f.Fuzz(storeOps)
}
