package cluster_test

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/k8s"
	"elastichpc/internal/operator"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// viewShadow is a mutation detector for the store's read-only views, after
// client-go's cache mutation detector. It subscribes to every kind, keeps
// each view an event delivers beside a deep copy taken on receipt, and fails
// the test when a view no longer equals its copy — that is, when some
// consumer wrote through a view instead of copying it first. A pod's binding
// and status writes hand its labels map on from one stored pod to the next,
// so the shadow also keeps every labels map it has seen, by identity, beside
// a copy: a write through a view long superseded shows there.
type viewShadow struct {
	t      *testing.T
	store  *k8s.Store
	copies map[k8s.Object]k8s.Object // view -> its copy on receipt
	latest map[k8s.Kind]map[string]k8s.Object
	labels map[uintptr]sharedLabels
	events int
}

// sharedLabels is a labels map some views carry and what it held when the
// first of them arrived.
type sharedLabels struct {
	live, was map[string]string
	key       string
}

func watchViews(t *testing.T, store *k8s.Store) *viewShadow {
	s := &viewShadow{
		t: t, store: store,
		copies: make(map[k8s.Object]k8s.Object),
		latest: make(map[k8s.Kind]map[string]k8s.Object),
		labels: make(map[uintptr]sharedLabels),
	}
	for _, kind := range []k8s.Kind{k8s.KindNode, k8s.KindPod, k8s.KindCharmJob, k8s.KindConfigMap} {
		s.latest[kind] = make(map[string]k8s.Object)
		store.Subscribe(kind, s.onEvent)
	}
	// What the store already holds arrives as if by an Added event.
	for _, n := range store.Nodes() {
		s.adopt(n)
	}
	for _, p := range store.Pods(nil) {
		s.adopt(p)
	}
	return s
}

func (s *viewShadow) adopt(view k8s.Object) {
	s.copies[view] = view.DeepCopy()
	s.latest[view.Kind()][view.Meta().Key()] = view
	if live := view.Meta().Labels; live != nil {
		if id := reflect.ValueOf(live).Pointer(); s.labels[id].live == nil {
			s.labels[id] = sharedLabels{live, maps.Clone(live), view.Meta().Key()}
		}
	}
}

// labelsIntact checks every labels map any view has carried.
func (s *viewShadow) labelsIntact() {
	for _, l := range s.labels {
		if !maps.Equal(l.live, l.was) {
			s.t.Errorf("event %d: the labels views of %q share were written through: now %v, were %v", s.events, l.key, l.live, l.was)
		}
	}
}

func (s *viewShadow) onEvent(ev k8s.Event) {
	s.events++
	kind, key := ev.Object.Kind(), ev.Object.Meta().Key()
	// The view this event supersedes must have stayed as delivered up to
	// the write that replaced it: a write-through followed by Update shows
	// here.
	if prev, ok := s.latest[kind][key]; ok {
		s.intact(prev, "superseded")
	}
	if ev.Type == k8s.Deleted {
		delete(s.latest[kind], key)
	} else {
		s.adopt(ev.Object)
	}
	s.scan(false)
}

func (s *viewShadow) intact(view k8s.Object, what string) {
	if s.t.Failed() {
		return // the first write-through is the finding; the rest is its wake
	}
	if was := s.copies[view]; !reflect.DeepEqual(view, was) {
		s.t.Errorf("event %d: %s view of %s %q was written through:\n now %+v\n was %+v",
			s.events, what, view.Kind(), view.Meta().Key(), view, was)
	}
}

// scan checks every object the scans hand out against the shadow. Events are
// deferred, so mid-run a scan may hand out a view whose event is still
// queued; once the loop has settled every view must be known.
func (s *viewShadow) scan(settled bool) {
	check := func(view k8s.Object) {
		if _, seen := s.copies[view]; seen {
			s.intact(view, "stored")
		} else if settled {
			s.t.Errorf("%s %q is in the store but no event delivered it", view.Kind(), view.Meta().Key())
		}
	}
	for _, p := range s.store.Pods(nil) {
		check(p)
	}
	for _, n := range s.store.Nodes() {
		check(n)
	}
	if settled {
		s.labelsIntact()
	}
}

// runWatched is cluster.RunRecorded with a viewShadow attached.
func runWatched(t *testing.T, cfg cluster.Config, w workload.Workload, arm func(*cluster.Cluster)) (sim.Result, []core.Decision, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return sim.Result{}, nil, err
	}
	shadow := watchViews(t, c.Store)
	c.SubmitWorkload(w)
	if arm != nil {
		arm(c)
	}
	if err := c.Run(len(w.Jobs), 10_000_000); err != nil {
		return sim.Result{}, nil, err
	}
	res, decs := c.Result(), c.Decisions()
	c.Loop.Settle()
	shadow.scan(true)
	if shadow.events == 0 {
		t.Error("the shadow saw no events")
	}
	return res, decs, nil
}

// watchedMember is federation.ClusterMember with every run watched.
type watchedMember struct {
	federation.ClusterMember
	t *testing.T
}

func (m watchedMember) Run(w workload.Workload) (sim.Result, []core.Decision, error) {
	return runWatched(m.t, m.Config, w, nil)
}

// TestNoConsumerWritesThroughAView runs the full-stack scenarios with the
// mutation detector attached: Table 1 under all four policies, a spot-market
// availability run with checkpointing, a node crash, and a federation over
// cluster members. Watching must not change a result either.
func TestNoConsumerWritesThroughAView(t *testing.T) {
	same := func(t *testing.T, cfg cluster.Config, w workload.Workload, got sim.Result) {
		t.Helper()
		want, err := cluster.RunExperiment(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("the watched run's result differs from the unwatched run's")
		}
	}
	for _, p := range core.AllPolicies() {
		t.Run("table1-"+p.String(), func(t *testing.T) {
			cfg, w := cluster.DefaultConfig(p), sim.Table1Workload()
			res, _, err := runWatched(t, cfg, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			same(t, cfg, w, res)
		})
	}
	t.Run("spot", func(t *testing.T) {
		cfg := cluster.DefaultConfig(core.Elastic)
		cfg.CheckpointPeriod = 1000
		w, tr, err := sim.Inputs(workload.Uniform{Jobs: 8, Gap: 90},
			workload.SpotPreemption{MeanGap: 300, Slots: 16, MeanOutage: 240}, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Availability = tr
		res, _, err := runWatched(t, cfg, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.CapacityEvents == 0 {
			t.Error("the spot run saw no capacity events")
		}
		same(t, cfg, w, res)
	})
	t.Run("failnode", func(t *testing.T) {
		cfg := cluster.DefaultConfig(core.Elastic)
		cfg.CheckpointPeriod = 1000
		w := workload.MustUniform(4, 30, 5)
		failed := 0
		_, _, err := runWatched(t, cfg, w, func(c *cluster.Cluster) {
			c.FailNode("node-0", 120*time.Second)
			c.Ctrl.OnRestarted = func(*operator.CharmJob) { failed++ }
		})
		if err != nil {
			t.Fatal(err)
		}
		if failed == 0 {
			t.Error("the node crash restarted no job")
		}
	})
	t.Run("federation", func(t *testing.T) {
		backends := []federation.Member{
			watchedMember{federation.ClusterMember{Config: cluster.DefaultConfig(core.Elastic)}, t},
			watchedMember{federation.ClusterMember{Config: cluster.DefaultConfig(core.RigidMax)}, t},
		}
		res, err := federation.Run(federation.Config{Backends: backends, Workers: 1}, workload.MustUniform(16, 60, 3))
		if err != nil {
			t.Fatal(err)
		}
		if done := res.JobsPerMember[0] + res.JobsPerMember[1]; done != 16 {
			t.Errorf("the fleet completed %d of 16 jobs", done)
		}
	})
}
