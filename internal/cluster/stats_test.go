package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// TestStoreCountersTable1Elastic pins the API store's counters for the Table
// 1 workload under the elastic policy, and the watch events it delivered.
// Both are a pure function of the run, so "reads stopped copying" and "the
// writes are the same writes" are gated by values that repeat on any host
// rather than by wall time.
//
// The 516 scans look at 4,564 objects and copy none, and the binding and
// status writes copy nothing deep: every copy left is a Create's or an
// Update's stored copy or a Get. With a label scan and a failure scan per
// reconcile and Get-change-Update for every binding and status write, the
// same 1,524 writes took 664 scans of 7,413 objects and 2,180 copies; when
// every scan listed and deep-copied its whole kind, 3,169 lists and 134,263
// copies.
//
// The digest is of every event's type, kind, key and resource version in
// delivery order, taken from the tree in which the pod scheduler, the kubelet
// and setPhase still wrote through Get and Update — internal/k8s keeps those
// bodies as its tests' reference path.
func TestStoreCountersTable1Elastic(t *testing.T) {
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	events, digest := 0, sha256.New()
	for _, kind := range []k8s.Kind{k8s.KindNode, k8s.KindPod, k8s.KindCharmJob, k8s.KindConfigMap} {
		c.Store.Subscribe(kind, func(ev k8s.Event) {
			events++
			m := ev.Object.Meta()
			fmt.Fprintf(digest, "%v %s %s %d\n", ev.Type, ev.Object.Kind(), m.Key(), m.ResourceVersion)
		})
	}
	w := sim.Table1Workload()
	c.SubmitWorkload(w)
	if err := c.Run(len(w.Jobs), 10_000_000); err != nil {
		t.Fatal(err)
	}
	c.Loop.Settle()
	want := k8s.StoreStats{Writes: 1524, Scans: 516, Visited: 4564, Copied: 492}
	if got := c.Store.Stats(); got != want {
		t.Errorf("store counters = %+v, want %+v", got, want)
	}
	const wantEvents, wantDigest = 1520, "2422ed1e2d844ef4ce96f2e5ba9f327534786a42534259b777c8af6418279179"
	if got := fmt.Sprintf("%x", digest.Sum(nil)); events != wantEvents || got != wantDigest {
		t.Errorf("%d events with digest %s, want %d with %s", events, got, wantEvents, wantDigest)
	}
	if c.Ctrl.Reconciles != 164 || c.Kubelet.Started != 352 || c.PodSched.FailedBindings != 0 {
		t.Errorf("%d reconciles, %d pods started, %d failed bindings, want 164, 352, 0",
			c.Ctrl.Reconciles, c.Kubelet.Started, c.PodSched.FailedBindings)
	}
}

// TestEmulationAllocsPerJob bounds what the emulation allocates for a job
// through operator, pod scheduler and kubelet. A run this size takes about
// ten milliseconds, too short for a wall-clock gate to tell a regression from
// the host; an allocation count repeats anywhere. It read about 995 a job
// when every binding and status write deep-copied its pod, every write
// closed over its event and every reconcile scanned and sorted the job's pods
// twice; it reads about 255.
func TestEmulationAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	w, err := workload.Poisson{Jobs: 32, MeanGap: 150}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		if _, err := RunExperiment(DefaultConfig(core.Elastic), w); err != nil {
			t.Fatal(err)
		}
	})
	if perJob := perRun / float64(len(w.Jobs)); perJob > 450 {
		t.Errorf("%.0f allocations a job, want at most 450", perJob)
	}
}
