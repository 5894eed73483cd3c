package k8s

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
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
	if got.Meta().UID == 0 || got.Meta().ResourceVersion == 0 {
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
	if err := store.Delete(KindPod, "p1"); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(KindPod, "p1"); err == nil {
		t.Error("double delete succeeded")
	}
	if _, ok := store.Get(KindPod, "p1"); ok {
		t.Error("object still present after delete")
	}
	if err := store.Update(mkPod("ghost", 1, "")); err == nil {
		t.Error("update of missing object succeeded")
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
	if err := store.Delete(KindPod, "a"); err != nil {
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
	if pod.Status.StartTime.Sub(t0) < 2*time.Second {
		t.Errorf("pod started before the kubelet delay: %v", pod.Status.StartTime.Sub(t0))
	}
	if kubelet.Started != 1 {
		t.Errorf("kubelet started %d pods", kubelet.Started)
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
	if DeletePods(store, map[string]string{"job": "job-a"}) != 4 {
		t.Fatal("delete failed")
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
	if MarkSucceeded(store, map[string]string{"job": "job-a"}) != 1 {
		t.Fatal("MarkSucceeded failed")
	}
	loop.RunUntilIdle()
	got, _ = store.Get(KindPod, "b")
	if got.(*Pod).Spec.NodeName == "" {
		t.Error("b not scheduled after a succeeded")
	}
}

func TestEventLoopOrdering(t *testing.T) {
	loop := NewEventLoop(t0)
	var order []int
	loop.At(2*time.Second, func() { order = append(order, 2) })
	loop.At(1*time.Second, func() { order = append(order, 1) })
	loop.Defer(func() { order = append(order, 0) })
	loop.At(1*time.Second, func() { order = append(order, 11) }) // same instant, FIFO
	loop.RunUntilIdle()
	want := []int{0, 1, 11, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !loop.Now().Equal(t0.Add(2 * time.Second)) {
		t.Errorf("Now = %v", loop.Now())
	}
}

// TestEventLoopTimersFireInTimeThenArmingOrder holds the timer heap to a
// stable sort of what was armed, timers armed by a firing timer included.
func TestEventLoopTimersFireInTimeThenArmingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	loop := NewEventLoop(t0)
	type armed struct {
		at  time.Duration
		seq int
	}
	var want, got []armed
	arm := func(from time.Duration) {
		a := armed{from + time.Duration(1+rng.Intn(20))*time.Second, len(want)}
		want = append(want, a)
		loop.At(a.at-from, func() { got = append(got, a) })
	}
	for i := 0; i < 200; i++ {
		arm(0)
	}
	loop.At(7*time.Second, func() {
		for i := 0; i < 100; i++ {
			arm(7 * time.Second)
		}
	})
	loop.RunUntilIdle()
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timers fired\n %v\nwant\n %v", got, want)
	}
}

func TestEventLoopRunUntil(t *testing.T) {
	loop := NewEventLoop(t0)
	fired := false
	loop.At(5*time.Second, func() { fired = true })
	loop.At(10*time.Second, func() {})
	if !loop.RunUntil(func() bool { return fired }) {
		t.Fatal("RunUntil never satisfied")
	}
	if loop.PendingTimers() != 1 {
		t.Errorf("PendingTimers = %d, want 1 (later timer untouched)", loop.PendingTimers())
	}
	if loop.RunUntil(func() bool { return false }) {
		t.Error("RunUntil(false) reported success")
	}
}

func TestEventLoopZeroDelayRunsNow(t *testing.T) {
	loop := NewEventLoop(t0)
	ran := false
	loop.At(0, func() { ran = true })
	loop.Settle()
	if !ran {
		t.Error("zero-delay At did not run on Settle")
	}
	if !loop.Now().Equal(t0) {
		t.Error("time advanced for zero-delay work")
	}
}

func TestWorkqueueDedupes(t *testing.T) {
	loop := NewEventLoop(t0)
	var handled []string
	q := NewWorkqueue(loop, func(key string) { handled = append(handled, key) })
	q.Add("a")
	q.Add("a")
	q.Add("b")
	loop.Settle()
	if len(handled) != 2 || handled[0] != "a" || handled[1] != "b" {
		t.Errorf("handled = %v", handled)
	}
	q.AddAfter("c", 3*time.Second)
	loop.RunUntilIdle()
	if len(handled) != 3 || handled[2] != "c" {
		t.Errorf("handled = %v", handled)
	}
	if q.Len() != 0 {
		t.Errorf("queue length = %d", q.Len())
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
