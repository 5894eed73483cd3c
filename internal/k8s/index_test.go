package k8s

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func podKeys(pods []*Pod) []string {
	keys := make([]string, 0, len(pods))
	for _, p := range pods {
		keys = append(keys, p.Key())
	}
	return keys
}

// TestStoreUpdateReindexesLabels pins the label index's write contract: an
// Update that changes a pod's labels moves it, a Delete removes it from
// every list, and Update accepts a view Pods handed out.
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

	if err := store.Delete(KindPod, "p1"); err != nil {
		t.Fatal(err)
	}
	for _, sel := range []map[string]string{nil, {"job": "b"}, {"role": "worker"}, {"job": "b", "role": "worker"}} {
		for _, key := range podKeys(store.Pods(sel)) {
			if key == "p1" {
				t.Errorf("deleted pod still listed under %v", sel)
			}
		}
	}
	if len(store.byLabel[labelPair{"job", "b"}]) != 0 {
		t.Error("empty label list kept")
	}
}

// refBind, refStart and refSetPhase are the binding and status writes as the
// pod scheduler, the kubelet and setPhase made them before the store had Bind
// and SetPodStatus: take a deep copy, change it, Update. storeOps holds the
// new writes to them.
func refBind(store *Store, key, node string) error {
	obj, ok := store.Get(KindPod, key)
	if !ok {
		return fmt.Errorf("k8s: %s %q not found", KindPod, key)
	}
	pod := obj.(*Pod)
	pod.Spec.NodeName = node
	return store.Update(pod)
}

func refStart(store *Store, key string, now time.Time) error {
	obj, ok := store.Get(KindPod, key)
	if !ok {
		return fmt.Errorf("k8s: %s %q not found", KindPod, key)
	}
	pod := obj.(*Pod)
	pod.Status.Phase = PodRunning
	pod.Status.StartTime = now
	return store.Update(pod)
}

func refSetPhase(store *Store, view *Pod, phase PodPhase) bool {
	pod := view.DeepCopy().(*Pod)
	pod.Status.Phase = phase
	return store.Update(pod) == nil
}

// watchedStore is a store with its loop and the events it has delivered.
type watchedStore struct {
	*Store
	loop   *EventLoop
	events []string
}

func newWatchedStore() *watchedStore {
	w := &watchedStore{loop: NewEventLoop(t0)}
	w.Store = NewStore(w.loop)
	w.Subscribe(KindPod, func(ev Event) {
		m := ev.Object.Meta()
		w.events = append(w.events, fmt.Sprintf("%v %s v%d", ev.Type, m.Key(), m.ResourceVersion))
	})
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

// storeOps drives the store with a sequence of creates, updates (labels,
// binding, phase, CPU and affinity key all move), binding and status writes
// and deletes decoded from data, three bytes a step. After every step it
// compares each indexed read with a read that knows no index — fetch every
// object, sort by key, filter — and the store with a second one on which the
// reference path made the binding and status writes: stored values, resource
// versions included, the events delivered and the aggregates must be equal.
func storeOps(t *testing.T, data []byte) {
	store, ref := newWatchedStore(), newWatchedStore()
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
			wantErr = live[key]
			err, refErr = store.Create(pod), ref.Create(pod)
			live[key] = true
		case 2:
			err, refErr = store.Update(pod), ref.Update(pod)
		case 3:
			err, refErr = store.Delete(KindPod, key), ref.Delete(KindPod, key)
			delete(live, key)
		case 4, 5:
			err, refErr = store.Bind(key, pod.Spec.NodeName), refBind(ref.Store, key, pod.Spec.NodeName)
		case 6:
			now := t0.Add(time.Duration(arg) * time.Second)
			err, refErr = store.SetPodStatus(key, PodStatus{Phase: PodRunning, StartTime: now}), refStart(ref.Store, key, now)
		case 7:
			view, refView := pod, pod // a missing pod: both report false
			if v, ok := store.View(KindPod, key); ok {
				rv, _ := ref.View(KindPod, key)
				view, refView = v.(*Pod), rv.(*Pod)
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
			if want, _ := ref.View(KindPod, k); !reflect.DeepEqual(obj, want) {
				t.Fatalf("op %d: stored %q = %+v, reference path %+v", op%8, k, obj, want)
			}
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
			if got := store.OwnedPods(nil, owner); !reflect.DeepEqual(got, want) {
				t.Fatalf("OwnedPods(%q) = %+v, naive read %+v", owner, got, want)
			}
		}
		total := 0
		perNode := map[string]int{}
		perAffinity := map[affinityAt]int{}
		for _, p := range all {
			if p.Spec.NodeName == "" || p.Status.Phase == PodSucceeded || p.Status.Phase == PodFailed {
				continue
			}
			total += p.Spec.CPU
			perNode[p.Spec.NodeName] += p.Spec.CPU
			perAffinity[affinityAt{p.Spec.AffinityKey, p.Spec.NodeName}]++
		}
		if store.BoundCPU() != total || ref.BoundCPU() != total {
			t.Fatalf("BoundCPU = %d, reference path %d, naive sum %d", store.BoundCPU(), ref.BoundCPU(), total)
		}
		for _, n := range nodes {
			if got := store.NodeBoundCPU(n); got != perNode[n] {
				t.Fatalf("NodeBoundCPU(%q) = %d, naive sum %d", n, got, perNode[n])
			}
			for _, a := range jobs[1:] {
				if got := store.AffinityCount(a, n); got != perAffinity[affinityAt{a, n}] {
					t.Fatalf("AffinityCount(%q, %q) = %d, naive count %d", a, n, got, perAffinity[affinityAt{a, n}])
				}
			}
		}
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

// FuzzStoreIndex lets the fuzzer pick the sequence.
func FuzzStoreIndex(f *testing.F) {
	f.Add([]byte{0, 0, 4, 2, 0, 14, 3, 0, 0})
	f.Add([]byte{0, 1, 40, 0, 2, 40, 6, 1, 121, 10, 2, 200, 3, 1, 0, 0, 1, 7})
	f.Add([]byte{1, 5, 255, 2, 5, 0, 2, 5, 255, 7, 5, 0})
	f.Add([]byte{0, 1, 40, 4, 1, 49, 6, 1, 5, 15, 1, 0, 3, 1, 0, 5, 1, 9}) // bind, start, phase, and a bind of what is gone
	f.Fuzz(storeOps)
}
