package operator

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
)

var t0 = time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC)

// fakeApp records AppRuntime calls.
type fakeApp struct {
	launches, shrinks, expands, stops int
	lastNodelist                      []string
	failShrink                        bool
	log                               []string
}

func (a *fakeApp) Launch(job *CharmJob, nodelist []string) error {
	a.launches++
	a.lastNodelist = nodelist
	a.log = append(a.log, fmt.Sprintf("launch %s %d", job.Name, len(nodelist)))
	return nil
}

func (a *fakeApp) Shrink(job *CharmJob, newReplicas int) error {
	if a.failShrink {
		return errors.New("application declined")
	}
	a.shrinks++
	a.log = append(a.log, fmt.Sprintf("shrink %s %d", job.Name, newReplicas))
	return nil
}

func (a *fakeApp) Expand(job *CharmJob, newReplicas int, nodelist []string) error {
	a.expands++
	a.lastNodelist = nodelist
	a.log = append(a.log, fmt.Sprintf("expand %s %d", job.Name, newReplicas))
	return nil
}

func (a *fakeApp) Stop(job *CharmJob) {
	a.stops++
	a.log = append(a.log, "stop "+job.Name)
}

func testRig(t *testing.T, nodes, cpu int) (*k8s.EventLoop, *k8s.Store, *Controller, *fakeApp) {
	t.Helper()
	loop := k8s.NewEventLoop(t0)
	store := k8s.NewStore(loop)
	k8s.NewPodScheduler(loop, store)
	k8s.NewKubelet(loop, store, time.Second)
	app := &fakeApp{}
	ctrl := NewController(loop, store, app)
	for i := 0; i < nodes; i++ {
		if err := store.Create(&k8s.Node{
			ObjectMeta:  k8s.ObjectMeta{Name: fmt.Sprintf("node-%d", i)},
			CapacityCPU: cpu,
		}); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunUntilIdle()
	return loop, store, ctrl, app
}

func mkJob(name string, replicas int) *CharmJob {
	return &CharmJob{
		ObjectMeta: k8s.ObjectMeta{Name: name},
		Spec: CharmJobSpec{
			MinReplicas: 1, MaxReplicas: 64, Priority: 3,
			Replicas: replicas, CPUPerWorker: 1,
			Workload: WorkloadSpec{Grid: 512, Steps: 100},
		},
	}
}

func TestValidate(t *testing.T) {
	good := mkJob("a", 4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	bad := mkJob("", 4)
	if err := bad.Validate(); err == nil {
		t.Error("accepted empty name")
	}
	bad2 := mkJob("b", 4)
	bad2.Spec.MinReplicas = 8
	bad2.Spec.MaxReplicas = 4
	if err := bad2.Validate(); err == nil {
		t.Error("accepted max < min")
	}
	bad3 := mkJob("c", 4)
	bad3.Spec.CPUPerWorker = 0
	if err := bad3.Validate(); err == nil {
		t.Error("accepted zero cpu")
	}
	bad4 := mkJob("d", 4)
	bad4.Spec.CheckpointPeriod = -5
	if err := bad4.Validate(); err == nil {
		t.Error("accepted a negative checkpoint period")
	}
}

func TestControllerLaunchesJob(t *testing.T) {
	loop, store, _, app := testRig(t, 4, 16)
	if err := store.Create(mkJob("j1", 4)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	if app.launches != 1 {
		t.Fatalf("launches = %d", app.launches)
	}
	if len(app.lastNodelist) != 4 {
		t.Errorf("nodelist = %v", app.lastNodelist)
	}
	obj, _ := store.View(k8s.KindCharmJob, store.Lookup("j1"))
	job := obj.(*CharmJob)
	if job.Status.Phase != JobRunning || job.Status.LaunchedReplicas != 4 {
		t.Errorf("status = %+v", job.Status)
	}
	// Workers + launcher exist; nodelist ConfigMap written.
	if got := len(store.Pods(map[string]string{"charmjob": "j1", "role": "worker"})); got != 4 {
		t.Errorf("%d worker pods", got)
	}
	if _, ok := store.View(k8s.KindPod, store.Lookup(LauncherName("j1"))); !ok {
		t.Error("launcher pod missing")
	}
	if _, ok := store.View(k8s.KindConfigMap, store.Lookup(NodelistName("j1"))); !ok {
		t.Error("nodelist ConfigMap missing")
	}
}

func TestControllerShrinkProtocol(t *testing.T) {
	loop, store, _, app := testRig(t, 4, 16)
	if err := store.Create(mkJob("j1", 8)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	err := store.Modify(k8s.KindCharmJob, store.Lookup("j1"), func(obj k8s.Object) { obj.(*CharmJob).Spec.Replicas = 4 })
	if err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	if app.shrinks != 1 {
		t.Fatalf("shrinks = %d", app.shrinks)
	}
	// Pods above index 3 removed only after the ack (§3.1 ordering):
	// the shrink call must appear in the log before the pod count drops.
	if got := len(store.Pods(map[string]string{"charmjob": "j1", "role": "worker"})); got != 4 {
		t.Errorf("%d worker pods after shrink", got)
	}
	obj, _ := store.View(k8s.KindCharmJob, store.Lookup("j1"))
	job := obj.(*CharmJob)
	if job.Status.LaunchedReplicas != 4 || job.Status.Rescales != 1 {
		t.Errorf("status = %+v", job.Status)
	}
	cm, ok := store.View(k8s.KindConfigMap, store.Lookup(NodelistName("j1")))
	if !ok {
		t.Fatal("nodelist ConfigMap missing")
	}
	if text := cm.(*k8s.ConfigMap).Data["nodelist"]; len(strings.Split(text, "\n")) != 4 {
		t.Errorf("nodelist = %q, want 4 lines", text)
	}
}

func TestControllerShrinkDeclinedKeepsPods(t *testing.T) {
	loop, store, _, app := testRig(t, 4, 16)
	if err := store.Create(mkJob("j1", 8)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	app.failShrink = true
	err := store.Modify(k8s.KindCharmJob, store.Lookup("j1"), func(obj k8s.Object) { obj.(*CharmJob).Spec.Replicas = 4 })
	if err != nil {
		t.Fatal(err)
	}
	// Run a bounded number of steps (the controller keeps retrying).
	for i := 0; i < 20; i++ {
		loop.Step()
	}
	if got := len(store.Pods(map[string]string{"charmjob": "j1", "role": "worker"})); got != 8 {
		t.Errorf("%d worker pods after declined shrink, want 8", got)
	}
	// Once the app accepts, the shrink completes.
	app.failShrink = false
	loop.RunUntilIdle()
	if got := len(store.Pods(map[string]string{"charmjob": "j1", "role": "worker"})); got != 4 {
		t.Errorf("%d worker pods after accepted shrink", got)
	}
}

func TestControllerExpandProtocol(t *testing.T) {
	loop, store, _, app := testRig(t, 4, 16)
	if err := store.Create(mkJob("j1", 4)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	err := store.Modify(k8s.KindCharmJob, store.Lookup("j1"), func(obj k8s.Object) { obj.(*CharmJob).Spec.Replicas = 12 })
	if err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	if app.expands != 1 {
		t.Fatalf("expands = %d", app.expands)
	}
	if len(app.lastNodelist) != 12 {
		t.Errorf("expand nodelist had %d hosts", len(app.lastNodelist))
	}
	if got := len(store.Pods(map[string]string{"charmjob": "j1", "role": "worker"})); got != 12 {
		t.Errorf("%d worker pods after expand", got)
	}
	obj, _ := store.View(k8s.KindCharmJob, store.Lookup("j1"))
	if obj.(*CharmJob).Status.LaunchedReplicas != 12 {
		t.Errorf("launched = %d", obj.(*CharmJob).Status.LaunchedReplicas)
	}
}

func TestControllerComplete(t *testing.T) {
	loop, store, ctrl, app := testRig(t, 4, 16)
	if err := store.Create(mkJob("j1", 4)); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	if err := ctrl.Complete("j1"); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	if app.stops != 1 {
		t.Errorf("stops = %d", app.stops)
	}
	if got := len(store.Pods(map[string]string{"charmjob": "j1"})); got != 0 {
		t.Errorf("%d pods after Complete", got)
	}
	// Idempotent.
	if err := ctrl.Complete("j1"); err != nil {
		t.Errorf("second Complete: %v", err)
	}
	if err := ctrl.Complete("ghost"); err == nil {
		t.Error("Complete of unknown job succeeded")
	}
}

func TestWorkerIndexParsing(t *testing.T) {
	if workerIndex("my-job", WorkerName("my-job", 7)) != 7 {
		t.Error("workerIndex failed on generated name")
	}
	if workerIndex("my-job", "garbage") != -1 {
		t.Error("workerIndex accepted garbage")
	}
}

func TestManagerSubmitAndFinish(t *testing.T) {
	loop, store, ctrl, app := testRig(t, 4, 16)
	mgr, err := NewManager(loop, store, ctrl, core.Config{
		Policy: core.Elastic, Capacity: 64, RescaleGap: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := mkJob("j1", 0)
	job.Spec.MinReplicas, job.Spec.MaxReplicas = 4, 16
	ref, err := mgr.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Submit(job); err == nil {
		t.Error("duplicate submit accepted")
	}
	loop.RunUntilIdle()
	// Policy started the job at max (empty cluster).
	obj, ok := store.View(k8s.KindCharmJob, store.Lookup("j1"))
	if !ok {
		t.Fatal("CharmJob not created")
	}
	if got := obj.(*CharmJob).Spec.Replicas; got != 16 {
		t.Errorf("granted %d replicas, want 16", got)
	}
	if app.launches != 1 {
		t.Errorf("launches = %d", app.launches)
	}
	cj, ok := mgr.CoreJob(ref)
	if !ok || cj.State != core.StateRunning {
		t.Fatalf("core job state: %+v", cj)
	}
	if err := mgr.JobFinished(ref); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()
	if cj.State != core.StateCompleted {
		t.Errorf("state after finish = %v", cj.State)
	}
	if err := mgr.JobFinished(ref + 1); err == nil {
		t.Error("finishing unknown job succeeded")
	}
}

func TestManagerElasticShrinkFlow(t *testing.T) {
	loop, store, ctrl, app := testRig(t, 4, 16)
	mgr, err := NewManager(loop, store, ctrl, core.Config{
		Policy: core.Elastic, Capacity: 64, RescaleGap: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	low := mkJob("low", 0)
	low.Spec.Priority = 1
	low.Spec.MinReplicas, low.Spec.MaxReplicas = 8, 64
	if _, err := mgr.Submit(low); err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	// Wait out the rescale gap on the virtual clock.
	loop.Arm(20*time.Second, loop.Handler(func(int32, int64) {}), 0)
	loop.RunUntilIdle()

	high := mkJob("high", 0)
	high.Spec.Priority = 5
	high.Spec.MinReplicas, high.Spec.MaxReplicas = 16, 32
	highRef, err := mgr.Submit(high)
	if err != nil {
		t.Fatal(err)
	}
	loop.RunUntilIdle()

	if app.shrinks != 1 {
		t.Errorf("shrinks = %d", app.shrinks)
	}
	hj, _ := mgr.CoreJob(highRef)
	if hj.State != core.StateRunning {
		t.Errorf("high = %v", hj.State)
	}
	lw := len(store.Pods(map[string]string{"charmjob": "low", "role": "worker"}))
	hw := len(store.Pods(map[string]string{"charmjob": "high", "role": "worker"}))
	if lw+hw > 64 {
		t.Errorf("oversubscribed: low %d + high %d", lw, hw)
	}
	if hw != 32 {
		t.Errorf("high has %d workers, want 32", hw)
	}
}
