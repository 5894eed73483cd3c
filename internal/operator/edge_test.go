package operator

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
)

// TestControllerWaitsForUnschedulablePods: a job whose pods cannot all be
// placed stays Pending and launches only once capacity appears.
func TestControllerWaitsForUnschedulablePods(t *testing.T) {
	loop, store, _, app := testRig(t, 1, 4) // one 4-CPU node
	blocker := &k8s.Pod{
		ObjectMeta: k8s.ObjectMeta{Name: "squatter", Labels: map[string]string{"charmjob": ""}},
		Spec:       k8s.PodSpec{CPU: 3},
		Status:     k8s.PodStatus{Phase: k8s.PodPending},
	}
	if err := store.Create(blocker); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	if err := store.Create(mkJob("j1", 2)); err != nil {
		t.Fatal(err)
	}
	// Only 1 CPU free: the job cannot get both workers running. Bound the
	// steps since the controller requeues forever.
	for i := 0; i < 40 && loop.Step(); i++ {
	}
	if app.launches != 0 {
		t.Fatalf("launched with unschedulable pods")
	}
	obj, _ := store.View(k8s.KindCharmJob, "j1")
	if got := obj.(*CharmJob).Status.Phase; got == JobRunning {
		t.Fatal("job Running without pods")
	}
	// Free the squatter: the job must launch.
	if err := store.Delete(k8s.KindPod, "squatter"); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	if app.launches != 1 {
		t.Errorf("launches = %d after capacity freed", app.launches)
	}
}

// TestControllerFailureRestart: failed worker pods trigger the §3.2.2
// restart path and bump Status.Restarts.
func TestControllerFailureRestart(t *testing.T) {
	loop, store, _, app := testRig(t, 4, 16)
	if err := store.Create(mkJob("j1", 4)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	if app.launches == 0 {
		t.Fatal("job never launched")
	}

	if n := k8s.FailPodsOnNode(store, workersOf(store, "j1")[0].Pod.Spec.NodeName); n == 0 {
		t.Fatal("no pods failed")
	}
	loop.RunUntilIdle()

	obj, _ := store.View(k8s.KindCharmJob, "j1")
	job := obj.(*CharmJob)
	if job.Status.Restarts == 0 {
		t.Error("restart not recorded")
	}
	if job.Status.Phase != JobRunning {
		t.Errorf("job phase after restart = %s", job.Status.Phase)
	}
	// The app was stopped and relaunched.
	if app.stops == 0 || app.launches < 2 {
		t.Errorf("stops=%d launches=%d", app.stops, app.launches)
	}
}

// TestManagerGapKickExpandsLater: a job started small expands automatically
// once its rescale gap expires — the operator's requeue-driven kick.
func TestManagerGapKickExpandsLater(t *testing.T) {
	loop, store, ctrl, app := testRig(t, 4, 16)
	mgr, err := NewManager(loop, store, ctrl, core.Config{
		Policy: core.Elastic, Capacity: 64, RescaleGap: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill most of the cluster with a short-gap job, then submit another
	// that starts small.
	a := mkJob("a", 0)
	a.Spec.MinReplicas, a.Spec.MaxReplicas, a.Spec.Priority = 48, 48, 3
	if err := mgr.Submit(a); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	b := mkJob("b", 0)
	b.Spec.MinReplicas, b.Spec.MaxReplicas, b.Spec.Priority = 8, 32, 3
	if err := mgr.Submit(b); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	bj, _ := mgr.CoreJob("b")
	if bj.Replicas != 16 {
		t.Fatalf("b started at %d, want 16 (free slots)", bj.Replicas)
	}
	// Finish a: 48 slots free, but b is inside its gap — no expand yet.
	if err := mgr.JobFinished("a"); err != nil {
		t.Fatal(err)
	}
	loop.Settle()
	if bj.Replicas != 16 {
		t.Fatalf("b expanded inside its gap to %d", bj.Replicas)
	}
	// The armed kick fires at gap expiry and expands b to its max.
	loop.RunUntilIdle()
	if bj.Replicas != 32 {
		t.Errorf("b = %d replicas after gap expiry, want 32", bj.Replicas)
	}
	if app.expands == 0 {
		t.Error("no expand reached the application")
	}
	if bj.Rescales != 1 {
		t.Errorf("b.Rescales = %d", bj.Rescales)
	}
}

// workersOf reads a job's worker pods the way reconcile does.
func workersOf(store *k8s.Store, job string) []k8s.OwnedPod {
	pods := store.OwnedPods(nil, job)
	for len(pods) > 0 && pods[0].Ordinal < 0 {
		pods = pods[1:]
	}
	return pods
}

// TestWorkerPodsSortedByIndex guards the nodelist ordering the runtime
// relies on.
func TestWorkerPodsSortedByIndex(t *testing.T) {
	loop, store, _, _ := testRig(t, 4, 16)
	if err := store.Create(mkJob("j1", 12)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	pods := workersOf(store, "j1")
	if len(pods) != 12 {
		t.Fatalf("%d worker pods", len(pods))
	}
	for i, p := range pods {
		if p.Ordinal != i || p.Pod.Name != WorkerName("j1", i) {
			t.Fatalf("pod %d = %s (index-10 must sort after index-9)", i, p.Pod.Name)
		}
	}
}

// TestWorkerIndexIsStrict: only a name WorkerName writes for the job carries
// an ordinal. fmt.Sscanf("%d") read "7x", "+7", "07" and "7 8" as 7, so a
// stray pod wearing a job's worker labels under the name j1-worker-7x stood
// in for worker 7 and the real j1-worker-7 was never created; and a parse of
// the suffix alone read x-3, j2-worker-3 and j1-launcher-3 as j1's worker 3,
// whose name then entered j1's nodelist.
func TestWorkerIndexIsStrict(t *testing.T) {
	strays := []string{
		"j1-worker-7x", "j1-worker-+7", "j1-worker-07", "j1-worker-7 8", "j1-worker-", "j1", "j1-worker--3",
		"x-3", "j2-worker-3", "j1-launcher-3",
	}
	for _, name := range strays {
		if got := workerIndex("j1", name); got != -1 {
			t.Errorf("workerIndex(j1, %q) = %d, want -1", name, got)
		}
	}
	if got := workerIndex("j1", WorkerName("j1", 0)); got != 0 {
		t.Errorf("workerIndex of worker 0 = %d", got)
	}

	// With every stray present the job gets the pods and the nodelist it
	// gets without them.
	run := func(strays []string) (pods, nodelist []string, launches int) {
		loop, store, _, app := testRig(t, 4, 16)
		for _, name := range strays {
			stray := &k8s.Pod{
				ObjectMeta: k8s.ObjectMeta{Name: name, Labels: map[string]string{"charmjob": "j1", "role": "worker"}},
				Status:     k8s.PodStatus{Phase: k8s.PodPending},
			}
			if err := store.Create(stray); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Create(mkJob("j1", 8)); err != nil {
			t.Fatal(err)
		}
		loop.RunUntilIdle()
		// A shrink deletes the workers it names and no stray.
		err := store.Modify(k8s.KindCharmJob, "j1", func(obj k8s.Object) { obj.(*CharmJob).Spec.Replicas = 3 })
		if err != nil {
			t.Fatal(err)
		}
		loop.RunUntilIdle()
		isStray := map[string]bool{}
		for _, name := range strays {
			isStray[name] = true
		}
		for _, p := range store.Pods(map[string]string{"charmjob": "j1"}) {
			if !isStray[p.Name] {
				pods = append(pods, p.Name)
			}
		}
		if left := len(store.Pods(map[string]string{"charmjob": "j1"})) - len(pods); left != len(strays) {
			t.Errorf("%d of %d strays left after the shrink", left, len(strays))
		}
		return pods, app.lastNodelist, app.launches
	}
	wantPods, wantNodelist, _ := run(nil)
	gotPods, gotNodelist, launches := run(strays)
	if !reflect.DeepEqual(gotPods, wantPods) {
		t.Errorf("pods with strays present = %v, without %v", gotPods, wantPods)
	}
	if !reflect.DeepEqual(gotNodelist, wantNodelist) {
		t.Errorf("nodelist with strays present = %v, without %v", gotNodelist, wantNodelist)
	}
	if launches != 1 {
		t.Errorf("launches = %d, want 1", launches)
	}
}

// TestReconcileSurvivesUnvalidatedSpecs: the store does not validate a
// CharmJob, so reconcile meets specs Validate would refuse. Replicas -1
// panicked building a nodelist of capacity -1, and MaxReplicas 1<<40 sized
// the job's name table for 2^40 workers and ran the process out of memory.
// The table is sized by what the cluster could run, negative replicas read
// as none, and a job asking for none is never launched; Replicas past
// MaxReplicas launches that many, named past the table by WorkerName.
func TestReconcileSurvivesUnvalidatedSpecs(t *testing.T) {
	for _, row := range []struct {
		name                  string
		replicas, maxReplicas int
		wantWorkers, launches int
	}{
		{"negative replicas", -1, 64, 0, 0},
		{"max replicas 1<<40", 2, 1 << 40, 2, 1},
		{"replicas over max", 6, 4, 6, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			loop, store, _, app := testRig(t, 4, 16)
			job := mkJob("j1", row.replicas)
			job.Spec.MaxReplicas = row.maxReplicas
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := store.Create(job); err != nil {
				t.Fatal(err)
			}
			loop.RunUntilIdle()
			runtime.ReadMemStats(&after)
			if got := len(workersOf(store, "j1")); got != row.wantWorkers {
				t.Errorf("%d worker pods, want %d", got, row.wantWorkers)
			}
			if app.launches != row.launches {
				t.Errorf("%d launches, want %d", app.launches, row.launches)
			}
			if row.launches == 0 {
				return
			}
			want := make([]string, row.wantWorkers)
			for i := range want {
				want[i] = WorkerName("j1", i)
			}
			if !reflect.DeepEqual(app.lastNodelist, want) {
				t.Errorf("launched on %q, want %q", app.lastNodelist, want)
			}
			cm, ok := store.View(k8s.KindConfigMap, NodelistName("j1"))
			if !ok {
				t.Fatal("nodelist ConfigMap missing")
			}
			if text := cm.(*k8s.ConfigMap).Data["nodelist"]; text != strings.Join(want, "\n") {
				t.Errorf("nodelist ConfigMap holds %q, want %q", text, strings.Join(want, "\n"))
			}
			// A launch of a few workers allocates some tens of kilobytes.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("the launch allocated %d bytes, want at most 1 MiB", alloc)
			}
		})
	}
}
