package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"elastichpc/internal/cluster"
	"elastichpc/internal/conformance"
	"elastichpc/internal/core"
	"elastichpc/internal/federation"
	"elastichpc/internal/k8s"
	"elastichpc/internal/metrics"
	"elastichpc/internal/model"
	"elastichpc/internal/sim"
	"elastichpc/internal/workload"
)

// depthLabels name the three queued-job depths the core probe runs at; the
// sizes behind them are scale.CoreDepths.
var depthLabels = [3]string{"d0", "d1k", "d100k"}

// cost is what one timed call cost from outside.
type cost struct {
	S       float64
	Mallocs uint64
	Bytes   uint64
}

// prober runs the per-layer probes of one traced pass. Every probe takes its
// input from the workload under test: the sim, federation, conformance and
// cli probes run on the first ProbeJobs jobs of its trace, the cluster probe
// on the first ProbeKubeJobs, the core probe on its class/priority mix.
type prober struct {
	sc    scale
	rec   *recorder
	dir   string // scratch files
	out   string // where elasticsim is built
	m     map[string]metric
	pw    workload.Workload          // what one cluster sees of the trace prefix
	fw    workload.Workload          // what a fleet sees of it
	avail workload.AvailabilityTrace // capacity events over the prefix, if the workload has any
}

func (p *prober) set(name string, value float64, unit string) { p.m[name] = metric{value, unit} }

// timed runs fn once inside a span and reports what it cost.
func (p *prober) timed(name string, fn func() error) (cost, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	end := p.rec.begin(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	end()
	runtime.ReadMemStats(&b)
	return cost{S: d.Seconds(), Mallocs: b.Mallocs - a.Mallocs, Bytes: b.TotalAlloc - a.TotalAlloc}, err
}

// best runs fn up to three times, while the runs so far took under half a
// second, and keeps the fastest: most probes are short, and on a shared host
// the minimum is the least disturbed reading.
func (p *prober) best(name string, fn func() error) (cost, error) {
	var bestC cost
	spent := 0.0
	for i := 0; i < 3 && spent < 0.5; i++ {
		c, err := p.timed(name, fn)
		if err != nil {
			return c, err
		}
		if i == 0 || c.S < bestC.S {
			bestC = c
		}
		spent += c.S
	}
	return bestC, nil
}

// prefix is the first n of every stride-th job of the trace.
func prefix(w workload.Workload, n, stride int) workload.Workload {
	if stride <= 1 {
		return workload.Workload{Jobs: w.Jobs[:min(n, len(w.Jobs))]}
	}
	var out workload.Workload
	for i := 0; i < len(w.Jobs) && len(out.Jobs) < n; i += stride {
		out.Jobs = append(out.Jobs, w.Jobs[i])
	}
	return out
}

// availPrefix keeps the capacity events up to the prefix's last submission
// and restores full capacity after them, so the shortened run can drain.
func availPrefix(tr workload.AvailabilityTrace, span float64) workload.AvailabilityTrace {
	var out workload.AvailabilityTrace
	for _, e := range tr.Events {
		if e.At <= span {
			out.Events = append(out.Events, e)
		}
	}
	return out.WithRestore(baseSlots, span)
}

func (p *prober) run(def workloadDef, gen generated, in inputs, seed int64, setupRec *recorder) error {
	// A trace sized for a fleet would overload one cluster several times
	// over, so the single-cluster probes take the share one member gets.
	p.fw = prefix(gen.Jobs, p.sc.ProbeJobs, 1)
	p.pw = p.fw
	if def.fleet {
		p.pw = prefix(gen.Jobs, p.sc.ProbeJobs, fleetMembers)
	}
	if !gen.Avail.Empty() {
		p.avail = availPrefix(gen.Avail, p.pw.Span())
	}
	for _, probe := range []func() error{
		func() error { return p.probeWorkload(gen, in, seed, setupRec) },
		p.probeModel,
		func() error { return p.probeCore(gen.Jobs) },
		p.probeSim,
		p.probeFederation,
		func() error { return p.probeCluster(gen.Jobs) },
		p.probeK8s,
		p.probeReports,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// spanMedian is the median duration in seconds of the spans with this name.
func spanMedian(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	return median(d)
}

func (p *prober) probeWorkload(gen generated, in inputs, seed int64, setupRec *recorder) error {
	p.set("workload.generate_s", spanMedian(setupRec.spans, "workload.generate"), "s")
	p.set("workload.save_s", spanMedian(setupRec.spans, "workload.save"), "s")
	c, err := p.best("workload.load", func() error {
		_, err := workload.LoadFile(in.tracePath())
		return err
	})
	if err != nil {
		return err
	}
	jobs := float64(len(gen.Jobs.Jobs))
	p.set("workload.load_s", c.S, "s")
	p.set("workload.load_allocs_per_job", float64(c.Mallocs)/jobs, "1/job")
	p.set("workload.load_mb", float64(c.Bytes)/1e6, "MB")
	var tr workload.AvailabilityTrace
	if _, err := p.timed("workload.avail_events", func() (err error) {
		tr, err = drainTrace(gen.Jobs, seed)
		return err
	}); err != nil {
		return err
	}
	p.set("workload.avail_events", float64(len(tr.Events)), "count")
	return nil
}

// sink keeps the model loops from being optimised away.
var sink float64

func (p *prober) probeModel() error {
	const rounds = 2000
	m := model.DefaultMachine()
	specs := model.Specs()
	calls := float64(rounds * len(model.AllClasses()) * 64)
	c, _ := p.timed("model.itertime", func() error {
		for r := 0; r < rounds; r++ {
			for _, cl := range model.AllClasses() {
				for pe := 1; pe <= 64; pe++ {
					sink += m.IterTime(specs[cl].Grid, pe)
				}
			}
		}
		return nil
	})
	p.set("model.itertime_ns", c.S*1e9/calls, "ns")
	c, _ = p.timed("model.rescale_overhead", func() error {
		for r := 0; r < rounds; r++ {
			for _, cl := range model.AllClasses() {
				for pe := 1; pe <= 64; pe++ {
					sink += m.RescaleOverhead(specs[cl].Grid, pe, pe%64+1).Total()
				}
			}
		}
		return nil
	})
	p.set("model.rescale_overhead_ns", c.S*1e9/calls, "ns")
	return nil
}

type nopActuator struct{}

func (nopActuator) StartJob(*core.Job, int) error  { return nil }
func (nopActuator) ShrinkJob(*core.Job, int) error { return nil }
func (nopActuator) ExpandJob(*core.Job, int) error { return nil }
func (nopActuator) PreemptJob(*core.Job) error     { return nil }

// probeCore times the scheduler's entry points on a bare core.Scheduler with
// a no-op actuator and a manual clock, at three queue depths.
func (p *prober) probeCore(w workload.Workload) error {
	specs := model.Specs()
	for di, label := range depthLabels {
		depth, cycles := p.sc.CoreDepths[di], p.sc.CoreCycles[di]
		now := time.Unix(0, 0)
		s, err := core.NewScheduler(core.Config{Policy: core.Elastic, Capacity: baseSlots, RescaleGap: 180 * time.Second},
			nopActuator{}, func() time.Time { return now })
		if err != nil {
			return err
		}
		next := 0
		newJob := func() *core.Job {
			spec := w.Jobs[next%len(w.Jobs)]
			cl := specs[spec.Class]
			next++
			return &core.Job{ID: fmt.Sprintf("probe%07d", next), Priority: spec.Priority, MinReplicas: cl.MinReplicas, MaxReplicas: cl.MaxReplicas}
		}
		// Pre-fill: a full cluster (four running jobs, submitted a rescale
		// gap apart so each can shrink the ones before it) with depth jobs
		// waiting behind it.
		for tries := 0; s.NumRunning() < 4; tries++ {
			if tries == baseSlots {
				return fmt.Errorf("core probe %s: only %d jobs running after %d submissions", label, s.NumRunning(), tries)
			}
			if err := s.Submit(newJob()); err != nil {
				return err
			}
			now = now.Add(200 * time.Second)
			s.Reschedule()
		}
		for s.NumQueued() < depth {
			if err := s.Submit(newJob()); err != nil {
				return err
			}
		}
		// The jobs a cycle submits are built beforehand and the oldest running
		// job is found with one reused callback, so that the allocations
		// counted inside the loop are the scheduler's own.
		fresh := make([]*core.Job, cycles)
		for i := range fresh {
			fresh[i] = newJob()
		}
		var old *core.Job
		older := func(j *core.Job) bool {
			if old == nil || j.StartTime.Before(old.StartTime) {
				old = j
			}
			return true
		}
		var submitNs, completeNs, rescheduleNs, capNs time.Duration
		var a, b runtime.MemStats
		end := p.rec.begin("core.cycles." + label)
		runtime.ReadMemStats(&a)
		for i := 0; i < cycles; i++ {
			now = now.Add(200 * time.Second)
			old = nil
			s.VisitRunning(older)
			if old == nil {
				return fmt.Errorf("core probe %s: nothing running at cycle %d", label, i)
			}
			t0 := time.Now()
			s.OnJobComplete(old)
			t1 := time.Now()
			err := s.Submit(fresh[i])
			t2 := time.Now()
			s.Reschedule()
			t3 := time.Now()
			if err != nil {
				return err
			}
			completeNs += t1.Sub(t0)
			submitNs += t2.Sub(t1)
			rescheduleNs += t3.Sub(t2)
		}
		runtime.ReadMemStats(&b)
		end()
		end = p.rec.begin("core.setcapacity." + label)
		for i := 0; i < cycles; i++ {
			now = now.Add(200 * time.Second)
			t0 := time.Now()
			errDown := s.SetCapacity(drainKeep)
			errUp := s.SetCapacity(baseSlots)
			capNs += time.Since(t0)
			if errDown != nil || errUp != nil {
				return fmt.Errorf("core probe %s: SetCapacity: %v / %v", label, errDown, errUp)
			}
		}
		end()
		n := float64(cycles)
		p.set("core.submit_ns."+label, float64(submitNs)/n, "ns")
		p.set("core.complete_ns."+label, float64(completeNs)/n, "ns")
		p.set("core.reschedule_ns."+label, float64(rescheduleNs)/n, "ns")
		p.set("core.setcapacity_ns."+label, float64(capNs)/(2*n), "ns")
		p.set("core.allocs_per_cycle."+label, float64(b.Mallocs-a.Mallocs)/n, "count")
		if label == "d1k" {
			const trips = 20
			var st core.SchedulerState
			c, err := p.timed("core.state_roundtrip", func() error {
				for i := 0; i < trips; i++ {
					s.ExportStateInto(&st)
					if err := s.RestoreState(st); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.set("core.state_roundtrip_us", c.S*1e6/trips, "us")
		}
	}
	return nil
}

// simRun times one Simulator.Run on the probe prefix.
func (p *prober) simRun(name string, cfg sim.Config, w workload.Workload) (cost, sim.Result, *sim.Simulator, error) {
	var res sim.Result
	var s *sim.Simulator
	c, err := p.best(name, func() (err error) {
		if s, err = sim.New(cfg); err != nil {
			return err
		}
		res, err = s.Run(w)
		return err
	})
	return c, res, s, err
}

func (p *prober) probeSim() error {
	jobs := float64(len(p.pw.Jobs))
	stream := sim.DefaultConfig(core.Elastic)
	stream.Streaming = true
	stream.Availability = p.avail
	base, _, s, err := p.simRun("sim.run", stream, p.pw)
	if err != nil {
		return err
	}
	events := float64(s.Processed())
	p.set("sim.run_s", base.S, "s")
	p.set("sim.events", events, "count")
	p.set("sim.events_per_job", events/jobs, "1/job")
	p.set("sim.ns_per_event", base.S*1e9/events, "ns")
	p.set("sim.run_allocs_per_job", float64(base.Mallocs)/jobs, "1/job")

	logged := stream
	logged.LogDecisions = true
	c, _, _, err := p.simRun("sim.run.logged", logged, p.pw)
	if err != nil {
		return err
	}
	p.set("sim.logged_over_unlogged", c.S/base.S, "ratio")

	for _, pol := range core.AllPolicies() {
		cfg := sim.DefaultConfig(pol)
		cfg.Availability = p.avail
		c, _, _, err := p.simRun("sim.run.retained."+pol.String(), cfg, p.pw)
		if err != nil {
			return err
		}
		p.set("sim.policy_run_s."+pol.String(), c.S, "s")
		if pol == core.Elastic {
			p.set("sim.retained_over_streaming", c.S/base.S, "ratio")
		}
	}

	sharded := stream
	sharded.Shards = 2
	c, _, _, err = p.simRun("sim.run.shards2", sharded, p.pw)
	if err != nil {
		return err
	}
	p.set("sim.shards2_speedup", base.S/c.S, "ratio")
	p.set("sim.shards2_alloc_ratio", float64(c.Bytes)/float64(max(base.Bytes, 1)), "ratio")

	// Member 0 of the fleet, stepped the way the rebalancer drives it,
	// against one Run of the same partition.
	fleet := fleetConfig(federation.RoundRobin, false)
	parts, _, err := federation.Partition(fleet, p.pw)
	if err != nil {
		return err
	}
	member := fleet.Members[0]
	whole, _, _, err := p.simRun("sim.run.member0", member, parts[0])
	if err != nil {
		return err
	}
	rounds := 0
	stepped, err := p.best("sim.stepped.member0", func() error {
		s, err := sim.New(member)
		if err != nil {
			return err
		}
		if err := s.Begin(parts[0]); err != nil {
			return err
		}
		rounds = 0
		for t := float64(rebalanceEvery); !s.Drained(); t += rebalanceEvery {
			if err := s.StepTo(t); err != nil {
				return err
			}
			sink += float64(len(s.QueuedJobs()))
			rounds++
		}
		_, err = s.Finish()
		return err
	})
	if err != nil {
		return err
	}
	p.set("sim.step_over_run", stepped.S/whole.S, "ratio")
	extra := math.Max(float64(stepped.Bytes)-float64(whole.Bytes), 0)
	p.set("sim.queuedjobs_mb_per_round", extra/1e6/float64(max(rounds, 1)), "MB")

	const calls = 2000
	c, err = p.timed("sim.runtasks", func() error {
		for i := 0; i < calls; i++ {
			if err := sim.RunTasks(fleetMembers, fleetWorkers, func(int) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("sim.runtasks_us", c.S*1e6/calls, "us")
	p.set("sim.runtasks_allocs", float64(c.Mallocs)/calls, "count")
	return nil
}

func (p *prober) probeFederation() error {
	jobs := float64(len(p.fw.Jobs))
	for _, route := range []federation.Route{federation.RoundRobin, federation.LeastLoaded} {
		cfg := fleetConfig(route, false)
		c, err := p.best("federation.partition."+route.String(), func() error {
			_, _, err := federation.Partition(cfg, p.fw)
			return err
		})
		if err != nil {
			return err
		}
		p.set("federation.partition_ns_per_job."+route.String(), c.S*1e9/jobs, "ns")
	}
	var res federation.Result
	c, err := p.timed("federation.run", func() (err error) {
		res, err = federation.Run(fleetConfig(federation.RoundRobin, true), p.fw)
		return err
	})
	if err != nil {
		return err
	}
	p.set("federation.run_s", c.S, "s")
	p.set("federation.rounds", float64(res.RebalanceRounds), "count")
	p.set("federation.migrations", float64(len(res.Migrations)), "count")
	p.set("federation.ms_per_round", c.S*1e3/float64(max(res.RebalanceRounds, 1)), "ms")
	c, err = p.best("federation.run.batch", func() error {
		_, err := federation.Run(fleetConfig(federation.RoundRobin, false), p.fw)
		return err
	})
	if err != nil {
		return err
	}
	p.set("federation.batch_run_s", c.S, "s")
	return nil
}

func (p *prober) probeCluster(w workload.Workload) error {
	kw := prefix(w, p.sc.ProbeKubeJobs, 1)
	jobs := float64(len(kw.Jobs))
	var emu sim.Result
	c, err := p.timed("cluster.run", func() (err error) {
		emu, err = cluster.RunExperiment(cluster.DefaultConfig(core.Elastic), kw)
		return err
	})
	if err != nil {
		return err
	}
	sc, des, _, err := p.simRun("sim.run.kube_trace", sim.DefaultConfig(core.Elastic), kw)
	if err != nil {
		return err
	}
	p.set("cluster.run_s", c.S, "s")
	p.set("cluster.ms_per_job", c.S*1e3/jobs, "ms")
	p.set("cluster.allocs_per_job", float64(c.Mallocs)/jobs, "1/job")
	p.set("cluster.alloc_kb_per_job", float64(c.Bytes)/1e3/jobs, "kB/job")
	p.set("cluster.over_sim", c.S/sc.S, "ratio")
	p.set("cluster.util_gap", math.Abs(emu.Utilization-des.Utilization), "fraction")
	return nil
}

// probeK8s times the store calls the emulation spends most of its CPU in.
func (p *prober) probeK8s() error {
	for _, n := range []int{64, 512} {
		store := k8s.NewStore(k8s.NewEventLoop(time.Unix(0, 0)))
		for i := 0; i < n; i++ {
			pod := &k8s.Pod{ObjectMeta: k8s.ObjectMeta{
				Name: fmt.Sprintf("pod-%04d", i), Namespace: "default",
				Labels: map[string]string{"job": fmt.Sprintf("job-%d", i%8), "role": "worker"},
			}, Spec: k8s.PodSpec{CPU: 1}}
			if err := store.Create(pod); err != nil {
				return err
			}
		}
		const calls = 200
		sel := map[string]string{"job": "job-3"}
		c, _ := p.timed(fmt.Sprintf("k8s.store_pods.p%d", n), func() error {
			for i := 0; i < calls; i++ {
				sink += float64(len(store.Pods(sel)))
			}
			return nil
		})
		p.set(fmt.Sprintf("k8s.store_pods_us.p%d", n), c.S*1e6/calls, "us")
		if n == 64 {
			pods := store.Pods(nil)
			c, err := p.timed("k8s.store_update", func() error {
				for i := 0; i < calls; i++ {
					if err := store.Update(pods[i%len(pods)]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.set("k8s.store_update_us", c.S*1e6/calls, "us")
		}
	}
	return nil
}

// probeReports covers what turns a finished run into files — the decision
// stream, the metrics report — and the CLI that does all of it from process
// start.
func (p *prober) probeReports() error {
	cfg := sim.DefaultConfig(core.Elastic)
	cfg.Availability = p.avail
	cfg.LogDecisions = true
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	res, err := s.Run(p.pw)
	if err != nil {
		return err
	}
	var st *conformance.Stream
	c, _ := p.best("conformance.build", func() error {
		st = &conformance.Stream{Version: conformance.StreamVersion, Label: "probe",
			Decisions: conformance.FromDecisions(s.Decisions()), Summary: conformance.SummaryOf(res)}
		return nil
	})
	p.set("conformance.build_s", c.S, "s")
	streamPath := filepath.Join(p.dir, "probe.stream.json")
	if c, err = p.best("conformance.save", func() error { return st.SaveFile(streamPath) }); err != nil {
		return err
	}
	p.set("conformance.save_s", c.S, "s")
	info, err := os.Stat(streamPath)
	if err != nil {
		return err
	}
	p.set("conformance.stream_mb", float64(info.Size())/1e6, "MB")

	reportPath := filepath.Join(p.dir, "probe.report.json")
	write, err := p.best("metrics.write", func() error {
		rep := metrics.New("elasticbench", metrics.KindRun)
		rep.Runs = []metrics.Run{metrics.FromResult("probe", res)}
		return metrics.Write(reportPath, rep)
	})
	if err != nil {
		return err
	}
	p.set("metrics.write_ms", write.S*1e3, "ms")
	if c, err = p.best("metrics.read", func() error {
		_, err := metrics.Read(reportPath)
		return err
	}); err != nil {
		return err
	}
	p.set("metrics.read_ms", c.S*1e3, "ms")

	// The CLI runs the four retained policies on the trace file and writes
	// the report; in process that is a load, the four policy runs timed by
	// probeSim, and a write.
	tracePath := filepath.Join(p.dir, "probe.csv")
	if err := workload.SaveFile(tracePath, p.pw, ""); err != nil {
		return err
	}
	load, err := p.best("workload.load.probe", func() error {
		_, err := workload.LoadFile(tracePath)
		return err
	})
	if err != nil {
		return err
	}
	inProcess := load.S + 4*write.S
	for _, pol := range core.AllPolicies() {
		inProcess += p.m["sim.policy_run_s."+pol.String()].Value
	}
	bin, err := buildElasticsim(p.out)
	if err != nil {
		return err
	}
	args := []string{"-trace", tracePath, "-json", filepath.Join(p.dir, "probe.cli.json")}
	if !p.avail.Empty() {
		availPath := filepath.Join(p.dir, "probe.avail.csv")
		if err := workload.SaveAvailabilityFile(availPath, p.avail, ""); err != nil {
			return err
		}
		args = append(args, "-availability-trace", availPath)
	}
	if c, err = p.best("cli.elasticsim", func() error {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("elasticsim: %w\n%s", err, out)
		}
		return nil
	}); err != nil {
		return err
	}
	p.set("cli.elasticsim_wall_s", c.S, "s")
	p.set("cli.over_inprocess", c.S/inProcess, "ratio")
	return nil
}

// buildElasticsim compiles ./cmd/elasticsim into dir and returns the binary's
// path; an up-to-date binary costs the go tool a fraction of a second.
func buildElasticsim(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "elasticsim"))
	if err != nil {
		return "", err
	}
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/elasticsim")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/elasticsim: %w\n%s", err, out)
	}
	return bin, nil
}

// moduleRoot is the nearest directory at or above the working directory that
// holds go.mod: the checkout root, whether the harness or a test is running.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above the working directory")
		}
		dir = parent
	}
}
