package k8s

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

var t0 = time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)

func newCluster(t *testing.T, nodes, cpuPerNode int) (*EventLoop, *Store, *PodScheduler, *Kubelet) {
	t.Helper()
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	sched := NewPodScheduler(loop, store)
	kubelet := NewKubelet(loop, store, 2*time.Second)
	for i := 0; i < nodes; i++ {
		node := &Node{ObjectMeta: ObjectMeta{Name: fmt.Sprintf("node-%d", i)}, CapacityCPU: cpuPerNode}
		if err := store.Create(node); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntilIdle()
	return loop, store, sched, kubelet
}

func mkPod(name string, cpu int, affinity string) *Pod {
	return &Pod{
		ObjectMeta: ObjectMeta{Name: name, Labels: map[string]string{"job": affinity}},
		Spec:       PodSpec{CPU: cpu, AffinityKey: affinity},
		Status:     PodStatus{Phase: PodPending},
	}
}

func TestStoreCRUD(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	pod := mkPod("p1", 1, "")
	if err := store.Create(pod); err != nil {
		t.Fatal(err)
	}
	if err := store.Create(pod); err == nil {
		t.Error("duplicate Create succeeded")
	}
	got, ok := store.Get(KindPod, "p1")
	if !ok {
		t.Fatal("Get failed")
	}
	if got.Meta().ResourceVersion == 0 {
		t.Error("metadata not assigned")
	}
	p := got.(*Pod)
	p.Spec.NodeName = "node-x"
	rv := p.ResourceVersion
	if err := store.Update(p); err != nil {
		t.Fatal(err)
	}
	got2, _ := store.Get(KindPod, "p1")
	if got2.Meta().ResourceVersion <= rv {
		t.Error("resource version not bumped")
	}
	if got2.(*Pod).Spec.NodeName != "node-x" {
		t.Error("update lost")
	}
	if err := store.Delete(KindPod, store.Lookup("p1")); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(KindPod, store.Lookup("p1")); err == nil {
		t.Error("double delete succeeded")
	}
	if _, ok := store.Get(KindPod, "p1"); ok {
		t.Error("object still present after delete")
	}
	if err := store.Update(mkPod("ghost", 1, "")); err == nil {
		t.Error("update of missing object succeeded")
	}
}

// TestPodSlabFillsItsSizeClass pins the sizes podSlabSize is chosen for. Go
// puts an 8-byte header on a pointerful object above 512 bytes, and 90 pods
// of 136 bytes with that header fit the 12,288-byte size class. A field that
// grows Pod, or a 91st slot, rounds every slab up to the 13,568-byte class.
func TestPodSlabFillsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Pod{}); size != 136 {
		t.Errorf("a Pod is %d bytes, want 136", size)
	}
	if bytes := podSlabSize*unsafe.Sizeof(Pod{}) + 8; bytes > 12288 {
		t.Errorf("a slab of %d pods takes %d bytes, past the 12,288-byte size class", podSlabSize, bytes)
	}
}

// TestPodWritesAllocateNothing holds Bind and SetPodStatus, watched and
// delivered, to no allocation while the slab their versions come from has
// slots left: the pod's Create took the first, the measured writes take 52
// more of its 90.
func TestPodWritesAllocateNothing(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	delivered := 0
	store.Subscribe(KindPod, func(Event) { delivered++ })
	if err := store.Create(mkPod("p", 1, "a")); err != nil {
		t.Fatal(err)
	}
	loop.Settle()
	var nodes [2]Handle
	for i, n := range []string{"n0", "n1"} {
		if err := store.Create(&Node{ObjectMeta: ObjectMeta{Name: n}, CapacityCPU: 4}); err != nil {
			t.Fatal(err)
		}
		nodes[i] = store.Lookup(n)
	}
	p, i := store.Lookup("p"), 0
	bind := func() {
		i++
		if err := store.Bind(p, nodes[i%2]); err != nil {
			t.Fatal(err)
		}
		loop.Settle()
	}
	status := func() {
		if err := store.SetPodStatus(p, PodStatus{Phase: PodRunning}); err != nil {
			t.Fatal(err)
		}
		loop.Settle()
	}
	if n := testing.AllocsPerRun(25, bind); n != 0 {
		t.Errorf("Bind allocates %v times a call, want 0", n)
	}
	if n := testing.AllocsPerRun(25, status); n != 0 {
		t.Errorf("SetPodStatus allocates %v times a call, want 0", n)
	}
	if delivered != 53 {
		t.Errorf("%d events delivered, want 53", delivered)
	}
}

// TestSlabsDoubleUpToTheirSizeClass holds every kind's slab to its growth
// rule: a slab the store makes at a kind's first Create holds one version,
// each refill doubles it, and no slab, the pods' included, outgrows
// slabBytes. A Node's slabs reach 219 slots; a Pod's hold 90 from the first.
func TestSlabsDoubleUpToTheirSizeClass(t *testing.T) {
	nodes := slab[Node]{next: 1}
	if got, want := refills(&nodes, 474), []int{1, 2, 4, 8, 16, 32, 64, 128, 219}; !reflect.DeepEqual(got, want) {
		t.Errorf("node slabs of %v slots, want %v", got, want)
	}
	pods := NewStore(NewEventLoop(t0)).podSlab
	if got, want := refills(&pods, 180), []int{90, 90}; !reflect.DeepEqual(got, want) {
		t.Errorf("pod slabs of %v slots, want %v", got, want)
	}
	for _, full := range []uintptr{219 * unsafe.Sizeof(Node{}), podSlabSize * unsafe.Sizeof(Pod{})} {
		if full+8 > slabBytes {
			t.Errorf("a full slab takes %d bytes, past the %d-byte size class", full+8, slabBytes)
		}
	}
}

// refills takes n slots from b and returns the size of each slab it made.
func refills[T any](b *slab[T], n int) []int {
	var sizes []int
	for i := 0; i < n; i++ {
		empty := len(b.free) == 0
		b.slot()
		if empty {
			sizes = append(sizes, len(b.free)+1)
		}
	}
	return sizes
}

// unregistered is a kind the scheme does not hold.
type unregistered struct{ ObjectMeta }

func (u *unregistered) Meta() *ObjectMeta { return &u.ObjectMeta }
func (u *unregistered) Kind() Kind        { return kindCount }
func (u *unregistered) DeepCopy() Object  { cp := *u; return &cp }

// TestCreateKeepsTheMapsItIsHanded pins Create's contract: the version it
// stores is a copy of the caller's struct, so writing that struct afterwards
// leaves the view as it was, but it shares the caller's maps — a pod's or a
// node's labels, a ConfigMap's labels and data — by identity, and no Create
// counts a deep copy. A kind the scheme does not hold is refused.
func TestCreateKeepsTheMapsItIsHanded(t *testing.T) {
	store := NewStore(NewEventLoop(t0))
	pod := mkPod("p", 1, "a")
	node := &Node{ObjectMeta: ObjectMeta{Name: "n", Labels: map[string]string{"zone": "a"}}, CapacityCPU: 16}
	cm := &ConfigMap{ObjectMeta: ObjectMeta{Name: "c", Labels: map[string]string{"charmjob": "j"}}, Data: map[string]string{"nodelist": "w0"}}
	for _, obj := range []Object{pod, node, cm} {
		if err := store.Create(obj); err != nil {
			t.Fatal(err)
		}
	}
	pod.Spec.CPU, pod.Status.Phase = 99, PodFailed
	node.CapacityCPU = 99
	cm.Name, cm.ResourceVersion = "renamed", 99

	same := func(a, b map[string]string) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	v, _ := store.View(KindPod, store.Lookup("p"))
	if p := v.(*Pod); p == pod || p.Spec.CPU != 1 || p.Status.Phase != PodPending || !same(p.Labels, pod.Labels) {
		t.Errorf("stored pod %+v: its struct must be a copy of the caller's, its labels the caller's map", p)
	}
	v, _ = store.View(KindNode, store.Lookup("n"))
	if n := v.(*Node); n == node || n.CapacityCPU != 16 || !same(n.Labels, node.Labels) {
		t.Errorf("stored node %+v: its struct must be a copy of the caller's, its labels the caller's map", n)
	}
	v, _ = store.View(KindConfigMap, store.Lookup("c"))
	if c := v.(*ConfigMap); c == cm || c.Name != "c" || c.ResourceVersion == 99 || !same(c.Labels, cm.Labels) || !same(c.Data, cm.Data) {
		t.Errorf("stored configmap %+v: its struct must be a copy of the caller's, its labels and data the caller's maps", c)
	}
	if copied := store.Stats().Copied; copied != 0 {
		t.Errorf("three Creates counted %d deep copies, want 0", copied)
	}
	if err := store.Create(&unregistered{ObjectMeta{Name: "u"}}); err == nil {
		t.Error("Create stored a kind the scheme does not hold")
	}
}

func TestStoreGetReturnsCopy(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	if err := store.Create(mkPod("p1", 1, "")); err != nil {
		t.Fatal(err)
	}
	a, _ := store.Get(KindPod, "p1")
	a.(*Pod).Spec.CPU = 99
	b, _ := store.Get(KindPod, "p1")
	if b.(*Pod).Spec.CPU == 99 {
		t.Error("Get returned aliased object")
	}
}

func TestStoreWatchDeliversInOrder(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	var events []string
	store.Subscribe(KindPod, func(ev Event) {
		events = append(events, fmt.Sprintf("%v %s", ev.Type, ev.Object.Meta().Name))
	})
	if err := store.Create(mkPod("a", 1, "")); err != nil {
		t.Fatal(err)
	}
	pod, _ := store.Get(KindPod, "a")
	if err := store.Update(pod); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(KindPod, store.Lookup("a")); err != nil {
		t.Fatal(err)
	}
	loop.Settle()
	want := []string{"Added a", "Modified a", "Deleted a"}
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
}

// TestStoreWatchSkipsLateSubscriber: an event goes to the subscribers there
// were when it was written, not to one that registers before it is delivered.
func TestStoreWatchSkipsLateSubscriber(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	var early, late []string
	store.Subscribe(KindPod, func(ev Event) { early = append(early, ev.Object.Meta().Name) })
	if err := store.Create(mkPod("a", 1, "")); err != nil {
		t.Fatal(err)
	}
	store.Subscribe(KindPod, func(ev Event) { late = append(late, ev.Object.Meta().Name) })
	if err := store.Create(mkPod("b", 1, "")); err != nil {
		t.Fatal(err)
	}
	loop.Settle()
	if want := []string{"a", "b"}; !reflect.DeepEqual(early, want) {
		t.Errorf("the first subscriber saw %v, want %v", early, want)
	}
	if want := []string{"b"}; !reflect.DeepEqual(late, want) {
		t.Errorf("the late subscriber saw %v, want %v", late, want)
	}
}

func TestSchedulerBindsAndKubeletStarts(t *testing.T) {
	loop, store, _, kubelet := newCluster(t, 4, 16)
	var running time.Time // when the pod's Running event arrived
	store.Subscribe(KindPod, func(ev Event) {
		if ev.Object.(*Pod).Status.Phase == PodRunning && running.IsZero() {
			running = loop.Now()
		}
	})
	if err := store.Create(mkPod("w0", 1, "job-a")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	got, _ := store.Get(KindPod, "w0")
	pod := got.(*Pod)
	if pod.Spec.NodeName == "" {
		t.Fatal("pod not bound")
	}
	if pod.Status.Phase != PodRunning {
		t.Fatalf("pod phase = %s", pod.Status.Phase)
	}
	if running.Sub(t0) < 2*time.Second {
		t.Errorf("pod started before the kubelet delay: %v", running.Sub(t0))
	}
	if kubelet.Started != 1 {
		t.Errorf("kubelet started %d pods", kubelet.Started)
	}
}

// TestKubeletStaleTimerSkipsRecreatedPod binds a pod, then deletes it and
// creates it again under its name 1 s into the kubelet's 2 s startup delay.
// The new pod has the old one's handle, so the timer armed for the old pod
// finds a pod there when it fires at 2 s; only the resource version it
// checks tells the two apart, and it must leave the new pod Pending. The new
// pod's own timer, armed at its binding, starts it at 3 s.
func TestKubeletStaleTimerSkipsRecreatedPod(t *testing.T) {
	loop, store, _, kubelet := newCluster(t, 1, 4)
	var started []time.Duration // when each Running event arrived
	store.Subscribe(KindPod, func(ev Event) {
		if ev.Type != Deleted && ev.Object.(*Pod).Status.Phase == PodRunning {
			started = append(started, loop.Elapsed())
		}
	})
	if err := store.Create(mkPod("p", 1, "job-a")); err != nil {
		t.Fatal(err)
	}
	loop.Settle()
	old := store.pod(store.Lookup("p"))
	if old == nil || old.Spec.NodeName == "" {
		t.Fatalf("pod not bound at once: %+v", old)
	}
	closures(loop)(time.Second, func() {
		if err := store.Delete(KindPod, old.Handle()); err != nil {
			t.Fatal(err)
		}
		if err := store.Create(mkPod("p", 1, "job-a")); err != nil {
			t.Fatal(err)
		}
	})
	loop.RunUntil(func() bool { return loop.Elapsed() >= 2*time.Second })
	now := store.pod(store.Lookup("p"))
	if now == nil || now == old || now.Handle() != old.Handle() {
		t.Fatalf("the re-created pod %+v is not a new pod under the old one's handle %d", now, old.Handle())
	}
	if now.Spec.NodeName == "" || now.Status.Phase != PodPending {
		t.Fatalf("at 2 s the re-created pod is %s on %q, want Pending and bound: the old pod's timer started it", now.Status.Phase, now.Spec.NodeName)
	}
	loop.RunUntilIdle()
	if want := []time.Duration{3 * time.Second}; !reflect.DeepEqual(started, want) || kubelet.Started != 1 {
		t.Errorf("pods started at %v (%d by the kubelet), want %v (1)", started, kubelet.Started, want)
	}
}

// TestKubeletSameInstantRecreateStaysPending arms a timer before the pod's
// binding reaches the kubelet, so it is due at the instant of the kubelet's
// start timer and runs first: it deletes the pod, creates it again under its
// name and binds it to the node, all before the kubelet's timer runs. That
// timer is still the latest the kubelet armed under the handle, since the
// new pod's events are not delivered yet; only the resource version it saw
// tells the new pod from the old, and the new pod must stay Pending at 2 s.
// The timer its own binding arms starts it at 4 s.
func TestKubeletSameInstantRecreateStaysPending(t *testing.T) {
	loop, store, _, kubelet := newCluster(t, 1, 4)
	var started []time.Duration // when each Running event arrived
	store.Subscribe(KindPod, func(ev Event) {
		if ev.Type != Deleted && ev.Object.(*Pod).Status.Phase == PodRunning {
			started = append(started, loop.Elapsed())
		}
	})
	if err := store.Create(mkPod("p", 1, "job-a")); err != nil {
		t.Fatal(err)
	}
	var old, recreated *Pod
	closures(loop)(2*time.Second, func() {
		old = store.pod(store.Lookup("p"))
		if old == nil || old.Spec.NodeName == "" || old.Status.Phase != PodPending {
			t.Fatalf("at 2 s, before the kubelet's timer, the pod is %+v, want it bound and Pending", old)
		}
		if err := store.Delete(KindPod, old.Handle()); err != nil {
			t.Fatal(err)
		}
		if err := store.Create(mkPod("p", 1, "job-a")); err != nil {
			t.Fatal(err)
		}
		if err := store.Bind(store.Lookup("p"), store.Lookup(old.Spec.NodeName)); err != nil {
			t.Fatal(err)
		}
		recreated = store.pod(store.Lookup("p"))
	})
	loop.Settle() // the scheduler binds the pod; the kubelet arms its timer
	if kubelet.Started != 0 {
		t.Fatalf("kubelet started %d pods before 2 s", kubelet.Started)
	}
	loop.Step() // 2 s: the test's timer, then the kubelet's
	now := store.pod(store.Lookup("p"))
	if now == nil || now == old || now.Handle() != old.Handle() {
		t.Fatalf("the re-created pod %+v is not a new pod under the old one's handle %d", now, old.Handle())
	}
	if now.Spec.NodeName == "" || now.Status.Phase != PodPending || now != recreated {
		t.Fatalf("at 2 s the re-created pod is %s on %q, want Pending and bound as created: the old pod's timer started it", now.Status.Phase, now.Spec.NodeName)
	}
	loop.RunUntilIdle()
	if want := []time.Duration{4 * time.Second}; !reflect.DeepEqual(started, want) || kubelet.Started != 1 {
		t.Errorf("pods started at %v (%d by the kubelet), want %v (1)", started, kubelet.Started, want)
	}
}

func TestSchedulerAffinityPacksJobPods(t *testing.T) {
	loop, store, _, _ := newCluster(t, 4, 16)
	for i := 0; i < 8; i++ {
		if err := store.Create(mkPod(fmt.Sprintf("a-%d", i), 1, "job-a")); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntilIdle()
	nodes := map[string]int{}
	for _, p := range store.Pods(map[string]string{"job": "job-a"}) {
		nodes[p.Spec.NodeName]++
	}
	if len(nodes) != 1 {
		t.Errorf("job pods spread across %d nodes, want 1 (affinity packing): %v", len(nodes), nodes)
	}
}

// TestSchedulerAffinityOutranksFreeCPU: a job's pod goes to the node that runs
// its other pods, however much more CPU another node has free. The script
// leaves node-0 with the job's launcher and nothing else, node-1 a quarter
// free; a score of affinity×1000 − free CPU sent the worker to node-1 once
// nodes had 1,000 vCPU or more.
func TestSchedulerAffinityOutranksFreeCPU(t *testing.T) {
	for _, cpu := range []int{16, 2000} {
		t.Run(fmt.Sprintf("cpu=%d", cpu), func(t *testing.T) {
			loop, store, _, _ := newCluster(t, 2, cpu)
			place := func(pod *Pod, want string) {
				t.Helper()
				if err := store.Create(pod); err != nil {
					t.Fatal(err)
				}
				loop.RunUntilIdle()
				if v, _ := store.View(KindPod, store.Lookup(pod.Name)); v.(*Pod).Spec.NodeName != want {
					t.Errorf("%s bound to %q, want %q", pod.Name, v.(*Pod).Spec.NodeName, want)
				}
			}
			place(mkPod("filler", cpu/2, ""), "node-0")
			place(mkPod("j-launcher", 0, "j"), "node-0") // the fuller node
			place(mkPod("big", cpu*3/4, ""), "node-1")   // node-0 has too little free
			if err := store.Delete(KindPod, store.Lookup("filler")); err != nil {
				t.Fatal(err)
			}
			loop.RunUntilIdle()
			place(mkPod("j-worker-0", 1, "j"), "node-0") // affinity over node-1's fuller bin
		})
	}
}

func TestSchedulerRespectsCapacity(t *testing.T) {
	loop, store, sched, _ := newCluster(t, 2, 4)
	// 2 nodes × 4 CPU = 8 slots; submit 10 single-CPU pods.
	for i := 0; i < 10; i++ {
		if err := store.Create(mkPod(fmt.Sprintf("p-%d", i), 1, "job-x")); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntilIdle()
	bound, pending := 0, 0
	for _, p := range store.Pods(nil) {
		if p.Spec.NodeName != "" {
			bound++
		} else {
			pending++
		}
	}
	if bound != 8 || pending != 2 {
		t.Errorf("bound %d pending %d, want 8/2", bound, pending)
	}
	if sched.FailedBindings == 0 {
		t.Error("no failed bindings recorded")
	}
	// Per-node allocation never exceeds capacity.
	alloc := map[string]int{}
	for _, p := range store.Pods(nil) {
		if p.Spec.NodeName != "" {
			alloc[p.Spec.NodeName] += p.Spec.CPU
		}
	}
	for n, a := range alloc {
		if a > 4 {
			t.Errorf("node %s allocated %d/4", n, a)
		}
	}
}

func TestSchedulerRetriesAfterPodDeletion(t *testing.T) {
	loop, store, _, _ := newCluster(t, 1, 4)
	for i := 0; i < 4; i++ {
		if err := store.Create(mkPod(fmt.Sprintf("old-%d", i), 1, "job-a")); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Create(mkPod("waiting", 2, "job-b")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	got, _ := store.Get(KindPod, "waiting")
	if got.(*Pod).Spec.NodeName != "" {
		t.Fatal("waiting pod bound on a full node")
	}
	// Free two slots; the waiting pod must get scheduled.
	old := store.Pods(map[string]string{"job": "job-a"})
	if len(old) != 4 {
		t.Fatalf("job-a has %d pods, want 4", len(old))
	}
	for _, p := range old {
		if err := store.Delete(KindPod, store.Lookup(p.Key())); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntilIdle()
	got, _ = store.Get(KindPod, "waiting")
	if got.(*Pod).Spec.NodeName == "" {
		t.Error("waiting pod not rescheduled after capacity freed")
	}
}

func TestSucceededPodsReleaseCapacity(t *testing.T) {
	loop, store, _, _ := newCluster(t, 1, 2)
	if err := store.Create(mkPod("a", 2, "job-a")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	if err := store.Create(mkPod("b", 2, "job-b")); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	got, _ := store.Get(KindPod, "b")
	if got.(*Pod).Spec.NodeName != "" {
		t.Fatal("b bound while a holds the node")
	}
	a, _ := store.View(KindPod, store.Lookup("a"))
	if !setPhase(store, a.(*Pod), PodSucceeded) {
		t.Fatal("a did not succeed")
	}
	loop.RunUntilIdle()
	got, _ = store.Get(KindPod, "b")
	if got.(*Pod).Spec.NodeName == "" {
		t.Error("b not scheduled after a succeeded")
	}
}

// namedQueue is a workqueue over a store that holds a pod under each of the
// names, whose handler is handed the key of the handle the queue hands it;
// the func it returns is the store's Lookup.
func namedQueue(t *testing.T, loop *EventLoop, delay time.Duration, handler func(string), names ...string) (*Workqueue, func(string) Handle) {
	t.Helper()
	store := NewStore(loop)
	for _, name := range names {
		if err := store.Create(mkPod(name, 1, "")); err != nil {
			t.Fatal(err)
		}
	}
	q := NewWorkqueue(store, delay, func(h Handle) { handler(store.entry(h).key) })
	return q, store.Lookup
}

func TestWorkqueueDedupes(t *testing.T) {
	loop := NewEventLoop(t0)
	var handled []string
	q, h := namedQueue(t, loop, 3*time.Second, func(key string) { handled = append(handled, key) }, "a", "b", "c")
	q.Add(h("a"))
	q.Add(h("a"))
	q.Add(h("b"))
	loop.Settle()
	if len(handled) != 2 || handled[0] != "a" || handled[1] != "b" {
		t.Errorf("handled = %v", handled)
	}
	q.Requeue(h("c"))
	loop.RunUntilIdle()
	if len(handled) != 3 || handled[2] != "c" {
		t.Errorf("handled = %v", handled)
	}
	if q.Len() != 0 {
		t.Errorf("queue length = %d", q.Len())
	}
}

// handledAt is a handler that records each key with the virtual time it
// was handled at.
func handledAt(loop *EventLoop, handled *[]string) func(string) {
	return func(key string) {
		*handled = append(*handled, fmt.Sprintf("%s@%v", key, loop.Now().Sub(t0)))
	}
}

// TestWorkqueueRequeuesInArmingOrder requeues keys at different instants:
// each comes back one delay after its Requeue, and keys due at one instant in
// the order they were requeued.
func TestWorkqueueRequeuesInArmingOrder(t *testing.T) {
	loop := NewEventLoop(t0)
	var handled []string
	q, h := namedQueue(t, loop, 3*time.Second, handledAt(loop, &handled), "a", "b", "c", "d")
	q.Requeue(h("c"))
	q.Requeue(h("a"))
	at := closures(loop)
	at(time.Second, func() { q.Requeue(h("b")) })
	at(2*time.Second, func() {
		q.Requeue(h("d"))
		q.Requeue(h("a"))
	})
	loop.RunUntilIdle()
	want := []string{"c@3s", "a@3s", "b@4s", "d@5s", "a@5s"}
	if !reflect.DeepEqual(handled, want) {
		t.Errorf("handled %v, want %v", handled, want)
	}
}

// TestWorkqueueRequeueCollapsesIntoPendingKey fires requeues of a key that is
// still queued: they collapse into its one entry, as Add does, and the key
// is handled once.
func TestWorkqueueRequeueCollapsesIntoPendingKey(t *testing.T) {
	loop := NewEventLoop(t0)
	var handled []string
	q, h := namedQueue(t, loop, time.Second, handledAt(loop, &handled), "a", "b")
	closures(loop)(time.Second, func() { q.Add(h("a")) }) // queued, not yet handled, when the requeues fire
	q.Requeue(h("a"))
	q.Requeue(h("b"))
	q.Requeue(h("a"))
	loop.RunUntilIdle()
	want := []string{"a@1s", "b@1s"}
	if !reflect.DeepEqual(handled, want) {
		t.Errorf("handled %v, want %v", handled, want)
	}
	q.Requeue(h("a")) // once handled, the key comes back again
	loop.RunUntilIdle()
	if want = append(want, "a@2s"); !reflect.DeepEqual(handled, want) {
		t.Errorf("handled %v, want %v", handled, want)
	}
}

func TestConfigMapRoundTrip(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	cm := &ConfigMap{ObjectMeta: ObjectMeta{Name: "nodelist"}, Data: map[string]string{"hosts": "w0\nw1"}}
	if err := store.Create(cm); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(KindConfigMap, "nodelist")
	gcm := got.(*ConfigMap)
	gcm.Data["hosts"] = "mutated"
	again, _ := store.Get(KindConfigMap, "nodelist")
	if again.(*ConfigMap).Data["hosts"] != "w0\nw1" {
		t.Error("ConfigMap DeepCopy aliased Data")
	}
}

func TestEventTypeString(t *testing.T) {
	for _, et := range []EventType{Added, Modified, Deleted, EventType(7)} {
		if et.String() == "" {
			t.Errorf("EventType(%d) empty", et)
		}
	}
}

// TestNodeProvisioningAllocsLinear: provisioning n nodes and then listing
// them allocates O(n) bytes. A node write that rebuilt and re-sorted the
// node list allocated O(n²): 4,096 nodes (a 65,536-slot burst ceiling at 16
// slots a node) cost 12× the bytes per node that 256 did.
func TestNodeProvisioningAllocsLinear(t *testing.T) {
	perNode := func(n int) float64 {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("node-%d", i)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		store := NewStore(NewEventLoop(t0))
		for _, name := range names {
			if err := store.Create(&Node{ObjectMeta: ObjectMeta{Name: name}, CapacityCPU: 16}); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(store.Nodes()); got != n {
			t.Fatalf("Nodes() lists %d nodes, want %d", got, n)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perNode(256), perNode(4096)
	t.Logf("bytes per node: %.0f at 256 nodes, %.0f at 4,096", small, large)
	if large > 2*small {
		t.Errorf("provisioning 4,096 nodes allocates %.0f bytes a node, over 2× the %.0f a node at 256", large, small)
	}
}

func TestNodeListSorted(t *testing.T) {
	loop := NewEventLoop(t0)
	store := NewStore(loop)
	for _, name := range []string{"node-2", "node-0", "node-1"} {
		if err := store.Create(&Node{ObjectMeta: ObjectMeta{Name: name}, CapacityCPU: 16}); err != nil {
			t.Fatal(err)
		}
	}
	nodes := store.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Name > nodes[i].Name {
			t.Errorf("nodes unsorted: %s > %s", nodes[i-1].Name, nodes[i].Name)
		}
	}
}
