package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/model"
	"elastichpc/internal/workload"
)

// shardedRun is everything a finished run can be asked for.
type shardedRun struct {
	res       Result
	decisions []core.Decision
	processed int
	stats     shardStats
	// seals is what the merged ledger — epoch 0's, adopted whole — logged.
	seals int
}

// runShards runs w under cfg at the given Config.Shards, over planted epochs
// when plans is non-nil (Shards: 1 never reads them).
func runShards(t testing.TB, cfg Config, w workload.Workload, shards int, plans []epochPlan) shardedRun {
	t.Helper()
	cfg.Shards = shards
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.testPlans = plans
	res, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return shardedRun{res: res, decisions: s.Decisions(), processed: s.Processed(), stats: s.stats,
		seals: len(s.ledger.seals)}
}

// waveStartPlans cuts a workload at every distinct submission instant —
// boundaries a persistent backlog is guaranteed to cross, so adopting any
// of them would be wrong and the reconciliation pass must re-execute every
// epoch through the live chain.
func waveStartPlans(w workload.Workload, order []int32, capacity int) []epochPlan {
	var plans []epochPlan
	for i := range order {
		if i == 0 {
			plans = append(plans, epochPlan{start: math.Inf(-1), startCap: capacity})
			continue
		}
		if w.Jobs[order[i]].SubmitAt != w.Jobs[order[i-1]].SubmitAt {
			plans[len(plans)-1].subHi = i
			plans = append(plans, epochPlan{
				subLo: i, start: w.Jobs[order[i]].SubmitAt, startCap: capacity,
			})
		}
	}
	plans[len(plans)-1].subHi = len(order)
	return plans
}

// TestParallelForcedReexecution pins the reconciliation pass's slow path:
// with cut points planted at every wave start of a workload whose backlog
// never drains between waves, no speculative epoch can be adopted, and the
// run must still reproduce the sequential decisions and Result exactly via
// chained re-execution.
func TestParallelForcedReexecution(t *testing.T) {
	w, err := workload.Burst{Waves: 4, PerWave: 50, WaveGap: 500}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.AllPolicies() {
		t.Run(p.String(), func(t *testing.T) {
			run := func(sharded bool) (Result, []core.Decision) {
				cfg := DefaultConfig(p)
				cfg.LogDecisions = true
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sharded {
					plans := waveStartPlans(w, submissionOrder(w), cfg.Capacity)
					if len(plans) < 2 {
						t.Fatalf("workload produced %d wave epochs", len(plans))
					}
					cfg.Shards = len(plans)
					s, err = New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.testPlans = plans
				}
				res, err := s.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				return res, s.Decisions()
			}
			seqRes, seqDec := run(false)
			parRes, parDec := run(true)
			if !reflect.DeepEqual(seqDec, parDec) {
				t.Fatalf("decision sequences diverge: sequential %d entries, sharded %d",
					len(seqDec), len(parDec))
			}
			if !reflect.DeepEqual(seqRes, parRes) {
				t.Fatalf("results diverge:\nsequential: %+v\nsharded:    %+v", seqRes, parRes)
			}
		})
	}
}

// TestPlanEpochsPartition checks the planner's structural invariants: the
// epochs partition the submission order and the availability trace exactly,
// start instants strictly increase, each epoch's starting capacity is the
// last preceding trace event's, and the epoch count never exceeds the
// requested shard count.
func TestPlanEpochsPartition(t *testing.T) {
	w, err := workload.Burst{Waves: 20, PerWave: 100, WaveGap: 25000}.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	span := w.Span() + 3600
	tr, err := workload.MaintenanceDrain{Every: span / 40, Duration: span / 80, Keep: 48}.Events(7, 64, span)
	if err != nil {
		t.Fatal(err)
	}
	order := submissionOrder(w)
	for _, shards := range []int{1, 2, 4, 8, 64} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := DefaultConfig(core.Elastic)
			cfg.Availability = tr
			cfg.Shards = shards
			plans := planEpochs(cfg, w, order, model.Specs())
			if shards == 1 {
				if plans != nil {
					t.Fatalf("shards=1 produced %d epochs", len(plans))
				}
				return
			}
			if len(plans) > shards {
				t.Fatalf("%d epochs exceed %d shards", len(plans), shards)
			}
			if plans[0].subLo != 0 || plans[len(plans)-1].subHi != len(w.Jobs) {
				t.Fatalf("submission windows do not span the workload: %+v", plans)
			}
			if plans[0].capLo != 0 || plans[len(plans)-1].capHi != len(tr.Events) {
				t.Fatalf("capacity windows do not span the trace: %+v", plans)
			}
			for k := 1; k < len(plans); k++ {
				prev, cur := plans[k-1], plans[k]
				if cur.subLo != prev.subHi || cur.capLo != prev.capHi {
					t.Fatalf("epoch %d is not contiguous with its predecessor: %+v / %+v", k, prev, cur)
				}
				if cur.subLo >= cur.subHi {
					t.Fatalf("epoch %d is empty: %+v", k, cur)
				}
				if !(cur.start > prev.start) {
					t.Fatalf("epoch %d start %v does not increase past %v", k, cur.start, prev.start)
				}
				if cur.start != w.Jobs[order[cur.subLo]].SubmitAt {
					t.Fatalf("epoch %d start %v is not its first submission instant", k, cur.start)
				}
				want := cfg.Capacity
				if cur.capLo > 0 {
					want = tr.Events[cur.capLo-1].Capacity
				}
				if cur.startCap != want {
					t.Fatalf("epoch %d startCap %d, want %d", k, cur.startCap, want)
				}
				// Every event in the window belongs to [start_k, start_{k+1}).
				end := planHorizon(plans, k)
				for _, ev := range tr.Events[cur.capLo:cur.capHi] {
					if ev.At < cur.start || ev.At >= end {
						t.Fatalf("epoch %d owns event at %v outside [%v, %v)", k, ev.At, cur.start, end)
					}
				}
			}
		})
	}
}

// TestSubmissionRanksOrder is the property the IDRank interning must hold:
// sorting jobs by (submission instant, rank) with a rank tie falling back
// to the ID must order them exactly like (submission instant, ID) — the
// scheduler comparator's historical tie-break.
func TestSubmissionRanksOrder(t *testing.T) {
	check := func(t *testing.T, w workload.Workload) {
		t.Helper()
		order := submissionOrder(w)
		ranks := submissionRanks(w, order)
		byRank := append([]int32(nil), order...)
		sort.SliceStable(byRank, func(a, b int) bool {
			ja, jb := &w.Jobs[byRank[a]], &w.Jobs[byRank[b]]
			ta, tb := model.Duration(ja.SubmitAt), model.Duration(jb.SubmitAt)
			if ta != tb {
				return ta < tb
			}
			if ra, rb := ranks[byRank[a]], ranks[byRank[b]]; ra != rb {
				return ra < rb
			}
			return ja.ID < jb.ID
		})
		byID := append([]int32(nil), order...)
		sort.SliceStable(byID, func(a, b int) bool {
			ja, jb := &w.Jobs[byID[a]], &w.Jobs[byID[b]]
			ta, tb := model.Duration(ja.SubmitAt), model.Duration(jb.SubmitAt)
			if ta != tb {
				return ta < tb
			}
			return ja.ID < jb.ID
		})
		for i := range byRank {
			if w.Jobs[byRank[i]].ID != w.Jobs[byID[i]].ID {
				t.Fatalf("rank order diverges from ID order at %d: %s vs %s",
					i, w.Jobs[byRank[i]].ID, w.Jobs[byID[i]].ID)
			}
		}
	}

	for _, seed := range []int64{1, 2, 3} {
		w, err := (workload.Burst{Waves: 5, PerWave: 40, WaveGap: 900}).Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("burst/seed%d", seed), func(t *testing.T) { check(t, w) })
	}

	t.Run("duplicate-ids", func(t *testing.T) {
		w, err := (workload.Burst{Waves: 1, PerWave: 20, WaveGap: 600}).Generate(4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Jobs {
			w.Jobs[i].ID = "same"
		}
		order := submissionOrder(w)
		for widx, r := range submissionRanks(w, order) {
			if r != 0 {
				t.Fatalf("duplicate-ID group got nonzero rank %d at job %d", r, widx)
			}
		}
	})

	t.Run("ids-vs-workload-order", func(t *testing.T) {
		// IDs sorted opposite to workload order at one instant: ranks must
		// follow the IDs, not the submission indices.
		w, err := (workload.Burst{Waves: 1, PerWave: 10, WaveGap: 600}).Generate(5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Jobs {
			w.Jobs[i].ID = fmt.Sprintf("j%02d", len(w.Jobs)-1-i)
		}
		check(t, w)
		order := submissionOrder(w)
		ranks := submissionRanks(w, order)
		for i := range w.Jobs {
			want := int32(len(w.Jobs) - 1 - i)
			if ranks[i] != want {
				t.Fatalf("job %d (%s): rank %d, want %d", i, w.Jobs[i].ID, ranks[i], want)
			}
		}
	})
}

// TestPlanEpochsStreamingScaleWorkload pins the planner's behaviour on the
// large bursty workload the conformance matrix's streaming-scale cell runs
// (internal/conformance): it must produce a genuine multi-epoch plan, so
// that cell exercises real boundary drains and reconciliation rather than
// silently degrading to the sequential path.
func TestPlanEpochsStreamingScaleWorkload(t *testing.T) {
	w, err := (workload.Burst{Waves: 12, PerWave: 100, WaveGap: 20000}).Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(core.Elastic)
	cfg.Shards = 8
	if plans := planEpochs(cfg, w, submissionOrder(w), model.Specs()); len(plans) < 2 {
		t.Fatalf("streaming-scale workload produced no multi-epoch plan (%d epochs)", len(plans))
	}
}

// classWaves builds a workload of evenly spaced waves with explicit per-wave
// class lists — the skew shapes the work-balanced cut chooser is tested on.
// The gap is huge relative to any job's demand, so the fluid predictor sees a
// full drain before every wave and offers every wave start as a cut candidate;
// the chooser's placement is then isolated from the drain predictor.
func classWaves(gap float64, waves [][]model.Class) workload.Workload {
	var w workload.Workload
	for wv, classes := range waves {
		for j, c := range classes {
			w.Jobs = append(w.Jobs, workload.JobSpec{
				ID:       fmt.Sprintf("skew-w%02d-%02d", wv, j),
				Class:    c,
				Priority: 3,
				SubmitAt: float64(wv) * gap,
			})
		}
	}
	return w
}

// predictedDemand is the planner's per-job demand for a class, so the balance
// tests measure epochs in exactly the units the chooser balances.
func predictedDemand(cfg Config, class model.Class) float64 {
	return classDemand(cfg, model.Specs())[class]
}

// epochWorks sums each plan's predicted demand.
func epochWorks(cfg Config, w workload.Workload, order []int32, plans []epochPlan) []float64 {
	works := make([]float64, len(plans))
	for k, pl := range plans {
		for _, idx := range order[pl.subLo:pl.subHi] {
			works[k] += predictedDemand(cfg, w.Jobs[idx].Class)
		}
	}
	return works
}

// TestPlanEpochsWorkBalance pins the work-balanced chooser on three demand
// shapes — heavy jobs clustered at the head, at the tail, and spread
// uniformly. In every shape each epoch's predicted work must sit within one
// wave's demand of the ideal equal share W/K, and on the skewed shapes the
// work-balanced cuts must beat the count-balanced cuts they replaced (equal
// submission counts put several heavy waves in one epoch).
func TestPlanEpochsWorkBalance(t *testing.T) {
	heavy := []model.Class{model.XLarge, model.XLarge, model.XLarge, model.XLarge}
	light := []model.Class{model.Small}
	shapes := map[string][][]model.Class{}
	for i := 0; i < 4; i++ {
		shapes["head-heavy"] = append(shapes["head-heavy"], heavy)
	}
	for i := 0; i < 12; i++ {
		shapes["head-heavy"] = append(shapes["head-heavy"], light)
		shapes["tail-heavy"] = append(shapes["tail-heavy"], light)
	}
	for i := 0; i < 4; i++ {
		shapes["tail-heavy"] = append(shapes["tail-heavy"], heavy)
	}
	for i := 0; i < 16; i++ {
		shapes["uniform"] = append(shapes["uniform"], []model.Class{model.Medium, model.Medium})
	}

	for name, waves := range shapes {
		t.Run(name, func(t *testing.T) {
			const gap = 1e9
			w := classWaves(gap, waves)
			cfg := DefaultConfig(core.Elastic)
			cfg.Shards = 4
			order := submissionOrder(w)
			plans := planEpochs(cfg, w, order, model.Specs())
			if len(plans) != cfg.Shards {
				t.Fatalf("%d epochs planned, want %d: %+v", len(plans), cfg.Shards, plans)
			}

			var total, maxWave float64
			for _, classes := range waves {
				wave := 0.0
				for _, c := range classes {
					wave += predictedDemand(cfg, c)
				}
				total += wave
				if wave > maxWave {
					maxWave = wave
				}
			}
			ideal := total / float64(cfg.Shards)
			works := epochWorks(cfg, w, order, plans)
			bound := maxWave * (1 + 1e-9)
			for k, wk := range works {
				if d := math.Abs(wk - ideal); d > bound {
					t.Fatalf("epoch %d work %.3g is %.3g from the ideal share %.3g (max wave %.3g)\nworks: %v",
						k, wk, d, ideal, maxWave, works)
				}
			}
			if name == "uniform" {
				// Identical waves put every equal-work target exactly on a
				// candidate, so the partition must be exact.
				minW, maxW := works[0], works[0]
				for _, wk := range works[1:] {
					minW, maxW = math.Min(minW, wk), math.Max(maxW, wk)
				}
				if maxW > 1.01*minW {
					t.Fatalf("uniform waves split unevenly: %v", works)
				}
				return
			}

			// Count-balanced comparison: pick, on the same candidate set, the
			// cuts nearest equal submission counts (the chooser this PR
			// replaced), and check the work-balanced plan's largest epoch is
			// decisively smaller.
			var cuts []int
			for i := 1; i < len(order); i++ {
				if w.Jobs[order[i]].SubmitAt != w.Jobs[order[i-1]].SubmitAt {
					cuts = append(cuts, i)
				}
			}
			countBounds := []int{0}
			prev := 0
			for k := 1; k < cfg.Shards; k++ {
				target := float64(len(order)) * float64(k) / float64(cfg.Shards)
				best, bestD := -1, math.Inf(1)
				for _, c := range cuts {
					if c <= prev {
						continue
					}
					if d := math.Abs(float64(c) - target); d < bestD {
						best, bestD = c, d
					}
				}
				if best < 0 {
					continue
				}
				countBounds = append(countBounds, best)
				prev = best
			}
			countPlans := make([]epochPlan, len(countBounds))
			for k, lo := range countBounds {
				hi := len(order)
				if k+1 < len(countBounds) {
					hi = countBounds[k+1]
				}
				countPlans[k] = epochPlan{subLo: lo, subHi: hi}
			}
			countMax, workMax := 0.0, 0.0
			for _, wk := range epochWorks(cfg, w, order, countPlans) {
				countMax = math.Max(countMax, wk)
			}
			for _, wk := range works {
				workMax = math.Max(workMax, wk)
			}
			if workMax > 0.8*countMax {
				t.Fatalf("work-balanced max epoch %.3g does not beat count-balanced %.3g", workMax, countMax)
			}
		})
	}
}

// TestParallelChainedSpeculation pins the pipeline's mixed path: with cuts
// planted at wave starts where the first boundary is crossed by a live
// backlog but the later ones genuinely drain, the reconciliation walk must
// re-execute the first window on the live chain AND still adopt at least one
// downstream speculative epoch — all while reproducing the sequential
// decisions, Result and event count exactly. (TestParallelForcedReexecution
// covers the all-dirty extreme; this covers the dirty-then-clean chain.) The
// automatic width over the same planted cuts is the bounded-downside rule: the
// first dirty boundary cancels every remaining epoch, adopted or not.
func TestParallelChainedSpeculation(t *testing.T) {
	wave := func(wv int, at float64) []workload.JobSpec {
		jobs := make([]workload.JobSpec, 6)
		for j := range jobs {
			jobs[j] = workload.JobSpec{
				ID:       fmt.Sprintf("c-w%d-%d", wv, j),
				Class:    model.Small,
				Priority: 3,
				SubmitAt: at,
			}
		}
		return jobs
	}

	// Calibrate the spacing from a real run: one wave alone, submitted at 0,
	// starts immediately, so TotalTime is its makespan.
	cfg := DefaultConfig(core.Elastic)
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := probe.Run(workload.Workload{Jobs: wave(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	T := res.TotalTime
	if !(T > 0) {
		t.Fatalf("probe wave makespan %v", T)
	}

	// Wave 1 lands mid-execution of wave 0 (a dirty boundary); waves 2 and 3
	// land an order of magnitude after their predecessors have drained
	// (clean boundaries the walk must adopt).
	var jobs []workload.JobSpec
	jobs = append(jobs, wave(0, 0)...)
	jobs = append(jobs, wave(1, 0.5*T)...)
	jobs = append(jobs, wave(2, 10*T)...)
	jobs = append(jobs, wave(3, 20*T)...)
	w := workload.Workload{Jobs: jobs}

	plans := waveStartPlans(w, submissionOrder(w), cfg.Capacity)
	if len(plans) != 4 {
		t.Fatalf("planted %d epochs, want 4", len(plans))
	}
	cfg.LogDecisions = true
	seq := runShards(t, cfg, w, 1, nil)
	for _, c := range []struct {
		name   string
		shards int
		// adopted is the fewest boundaries the walk must adopt, reexecuted
		// the fewest it must re-execute.
		adopted, reexecuted int
	}{
		// Explicit width: the dirty boundary costs its own window only.
		{"explicit", len(plans), 1, 1},
		// Automatic: the first dirty boundary cancels the rest of the
		// speculation and the live chain takes the whole remainder.
		{"auto", 0, 0, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := runShards(t, cfg, w, c.shards, plans)
			if !reflect.DeepEqual(seq.decisions, got.decisions) {
				t.Fatalf("decision sequences diverge: sequential %d entries, sharded %d",
					len(seq.decisions), len(got.decisions))
			}
			if !reflect.DeepEqual(seq.res, got.res) {
				t.Fatalf("results diverge:\nsequential: %+v\nsharded:    %+v", seq.res, got.res)
			}
			if got.processed != seq.processed {
				t.Fatalf("Processed() %d, sequential %d", got.processed, seq.processed)
			}
			st := got.stats
			if st.epochs != 4 {
				t.Fatalf("stats recorded %d epochs, want 4: %+v", st.epochs, st)
			}
			if st.reexecuted < c.reexecuted {
				t.Fatalf("re-executed %d windows, want at least %d: %+v", st.reexecuted, c.reexecuted, st)
			}
			if st.adopted < c.adopted || c.adopted == 0 && st.adopted != 0 {
				t.Fatalf("adopted %d speculative epochs, want %d: %+v", st.adopted, c.adopted, st)
			}
			if st.adopted+st.reexecuted != st.epochs-1 {
				t.Fatalf("adopted %d + reexecuted %d != %d boundaries", st.adopted, st.reexecuted, st.epochs-1)
			}
			if got.seals != 0 {
				t.Fatalf("epoch 0, extended over a dirty boundary, logged %d seals; the merge adopts its ledger whole", got.seals)
			}
		})
	}
}

// TestShardedFootprintBounded holds the shard path's memory to a small
// multiple of the sequential loop's on BenchmarkSimParallelScaling's trace:
// eight epoch simulators, their speculative queues and the O(drains) seal
// logs cost under 2.2× the bytes and 1.5× the objects of one (1.91× and
// 1.34× when written). A merge that logs a term per event instead of one per
// drain — the design the seal log replaced — sits near 40×. The automatic
// width on bench/'s 80 k-job burst — the default every caller now runs — is
// held per epoch it adds: under 0.4 MB each (0.29 MB when written).
func TestShardedFootprintBounded(t *testing.T) {
	footprint := func(w workload.Workload, shards int) (bytes, objects float64, st shardStats) {
		cfg := DefaultConfig(core.Elastic)
		cfg.Streaming = true
		cfg.Shards = shards
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Run(w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs), s.stats
	}
	w := burstBacklog(t, 200_000)
	seqBytes, seqObjects, _ := footprint(w, 1)
	shBytes, shObjects, _ := footprint(w, 8)
	t.Logf("shards=8 / shards=1: %.2fx bytes (%.0f / %.0f), %.2fx objects (%.0f / %.0f)",
		shBytes/seqBytes, shBytes, seqBytes, shObjects/seqObjects, shObjects, seqObjects)
	if shBytes > 2.2*seqBytes {
		t.Errorf("Shards: 8 allocates %.2fx the bytes of Shards: 1, want <= 2.2x", shBytes/seqBytes)
	}
	if shObjects > 1.5*seqObjects {
		t.Errorf("Shards: 8 allocates %.2fx the objects of Shards: 1, want <= 1.5x", shObjects/seqObjects)
	}

	w = burstBacklog(t, 80_000)
	seqBytes, _, _ = footprint(w, 1)
	autoBytes, _, st := footprint(w, 0)
	extra := float64(max(st.epochs-1, 0))
	t.Logf("automatic on 80 k jobs: %+v, %.0f bytes over sequential's %.0f", st, autoBytes-seqBytes, seqBytes)
	if autoBytes > seqBytes+0.4e6*extra+4096 {
		t.Errorf("Shards: 0 allocates %.0f bytes over Shards: 1 for %v extra epochs, want <= 0.4 MB each", autoBytes-seqBytes, extra)
	}
}

// drainedBurst is bench/'s avail_drain inputs: waves of 200 jobs 31,500 s
// apart and one maintenance window a wave (64 ↔ 56 slots).
func drainedBurst(tb testing.TB, jobs int) (workload.Workload, workload.AvailabilityTrace) {
	tb.Helper()
	w, err := (workload.Burst{Waves: jobs / 200, PerWave: 200, WaveGap: 31500}).Generate(1)
	if err != nil {
		tb.Fatal(err)
	}
	every := w.Span() / float64(jobs/200)
	tr, err := (workload.MaintenanceDrain{Every: every, Duration: every / 2, Keep: 56}).Events(1, 64, w.Span())
	if err != nil {
		tb.Fatal(err)
	}
	return w, tr
}

// TestProcessedEqualAtAnyShards: Processed() — the event count bench/verify.go
// pins and a stall detector reads — is the sequential loop's at every shard
// width. The scenarios are the conformance matrix's shapes, under all four
// policies, with and without an availability trace, plus planted cuts no
// backlog lets drain (every window re-executed). Before the merge folded the
// segments' counts it read 0 after any sharded run.
func TestProcessedEqualAtAnyShards(t *testing.T) {
	gen := func(g workload.Generator, seed int64) workload.Workload {
		w, err := g.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	avail := gen(workload.Burst{Waves: 3, PerWave: 30, WaveGap: 5000}, 1)
	span := avail.Span() + 3600
	tr, err := workload.MaintenanceDrain{Every: span / 6, Duration: span / 12, Keep: 40}.Events(1, 64, span)
	if err != nil {
		t.Fatal(err)
	}
	backlog := gen(workload.Burst{Waves: 4, PerWave: 50, WaveGap: 500}, 3)
	for _, sc := range []struct {
		name  string
		w     workload.Workload
		tr    workload.AvailabilityTrace
		plans []epochPlan
	}{
		{name: "uniform", w: gen(workload.Uniform{Jobs: 60, Gap: 45}, 1)},
		{name: "burst", w: gen(workload.Burst{Waves: 3, PerWave: 40, WaveGap: 4000}, 1)},
		{name: "availability", w: avail, tr: tr.WithRestore(64, span)},
		{name: "scale", w: gen(workload.Burst{Waves: 12, PerWave: 100, WaveGap: 20000}, 5)},
		{name: "forced-reexecution", w: backlog, plans: waveStartPlans(backlog, submissionOrder(backlog), 64)},
	} {
		for _, p := range core.AllPolicies() {
			t.Run(sc.name+"/"+p.String(), func(t *testing.T) {
				cfg := DefaultConfig(p)
				cfg.Availability = sc.tr
				seq := runShards(t, cfg, sc.w, 1, nil)
				if seq.processed < len(sc.w.Jobs) {
					t.Fatalf("sequential Processed() %d for %d jobs", seq.processed, len(sc.w.Jobs))
				}
				sharded := false
				for _, shards := range []int{2, 8, 0} {
					got := runShards(t, cfg, sc.w, shards, sc.plans)
					sharded = sharded || got.stats.epochs > 1
					if got.processed != seq.processed {
						t.Errorf("Shards: %d: Processed() %d, sequential %d (%+v)", shards, got.processed, seq.processed, got.stats)
					}
					if !reflect.DeepEqual(seq.res, got.res) {
						t.Errorf("Shards: %d: results diverge:\nsequential: %+v\nsharded:    %+v", shards, seq.res, got.res)
					}
				}
				if !sharded && (sc.name == "scale" || sc.plans != nil) {
					t.Errorf("no width sharded the run: the comparison is vacuous")
				}
			})
		}
	}
}

// TestAutoShardsLargeTraces pins the path an unset Config.Shards takes on
// traces large enough to engage it — bench/'s 80 k-job burst and its
// avail_drain trace: every boundary is adopted, and the Result, the merged
// decision log, the retained per-job records and Processed() are the
// sequential loop's. With one processor automatic is that loop (no epochs);
// the explicit width beside it runs the same runSharded there too.
func TestAutoShardsLargeTraces(t *testing.T) {
	drainJobs, drainTrace := drainedBurst(t, 100_000)
	for _, tc := range []struct {
		name string
		w    workload.Workload
		tr   workload.AvailabilityTrace
	}{
		{"burst", burstBacklog(t, 80_000), workload.AvailabilityTrace{}},
		{"avail-drain", drainJobs, drainTrace},
	} {
		for _, mode := range []string{"streaming", "retained-logged"} {
			if mode != "streaming" && testing.Short() {
				continue
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				cfg := DefaultConfig(core.Elastic)
				cfg.Availability = tc.tr
				cfg.Streaming = mode == "streaming"
				cfg.LogDecisions = !cfg.Streaming
				seq := runShards(t, cfg, tc.w, 1, nil)
				widths := []int{0, 2}
				if !cfg.Streaming && runtime.GOMAXPROCS(0) >= 2 {
					widths = widths[:1] // the costly mode: once through the merge is enough
				}
				for _, shards := range widths {
					got := runShards(t, cfg, tc.w, shards, nil)
					st := got.stats
					switch {
					case shards == 0 && runtime.GOMAXPROCS(0) < 2:
						if st.epochs != 0 {
							t.Errorf("automatic sharded on one processor: %+v", st)
						}
					case st.epochs < 2 || st.adopted != st.epochs-1:
						t.Errorf("Shards: %d: %+v, want every boundary of a multi-epoch plan adopted", shards, st)
					}
					if got.seals != 0 {
						t.Errorf("Shards: %d: epoch 0 logged %d seals; the merge adopts its ledger whole", shards, got.seals)
					}
					if got.processed != seq.processed {
						t.Errorf("Shards: %d: Processed() %d, sequential %d", shards, got.processed, seq.processed)
					}
					if !reflect.DeepEqual(seq.decisions, got.decisions) {
						t.Errorf("Shards: %d: decision logs diverge: sequential %d entries, sharded %d",
							shards, len(seq.decisions), len(got.decisions))
					}
					if !reflect.DeepEqual(seq.res, got.res) {
						t.Errorf("Shards: %d: results diverge", shards)
					}
				}
			})
		}
	}
}

// mallocsOf is the heap objects one call of f allocates: the least of five
// calls, so what a collection landing inside one of them adds (emptied pools
// refilling) does not count.
// (testing.AllocsPerRun pins GOMAXPROCS to 1, where automatic has nothing to
// decide.)
func mallocsOf(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestAutoDeclines pins the other half of the decision: bench/'s 12 k-job
// poisson_retained trace under every policy and a 2,000-job trace sit under
// the work floor and are never planned; an overloaded Poisson trace (mean gap
// 120 s against ≈ 150 s of service) is large enough to plan and offers no cut
// with the slack margin. Each runs no epochs and allocates, object for
// object, what Shards: 1 allocates.
func TestAutoDeclines(t *testing.T) {
	gen := func(g workload.Generator) workload.Workload {
		w, err := g.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	type declined struct {
		name string
		cfg  Config
		w    workload.Workload
	}
	var cases []declined
	poisson := gen(workload.Poisson{Jobs: 12_000, MeanGap: 170})
	for _, p := range core.AllPolicies() {
		cfg := DefaultConfig(p)
		cfg.LogDecisions = true
		cases = append(cases, declined{"poisson-retained/" + p.String(), cfg, poisson})
	}
	// Two floors' worth of jobs: with a second processor this one is planned,
	// and it is the planner that turns it away.
	cases = append(cases,
		declined{"poisson-overloaded", streamingMode(DefaultConfig(core.Elastic)), gen(workload.Poisson{Jobs: 2*epochFloorJobs + 8000, MeanGap: 120})},
		declined{"burst-2000", streamingMode(DefaultConfig(core.Elastic)), gen(workload.Burst{Waves: 10, PerWave: 200, WaveGap: 29000})})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if st := runShards(t, c.cfg, c.w, 0, nil).stats; st.epochs != 0 {
				t.Fatalf("automatic sharded the run: %+v", st)
			}
			seq := mallocsOf(func() { runShards(t, c.cfg, c.w, 1, nil) })
			auto := mallocsOf(func() { runShards(t, c.cfg, c.w, 0, nil) })
			if auto != seq {
				t.Errorf("declined automatic run allocates %d objects, Shards: 1 %d", auto, seq)
			}
		})
	}
}

// TestSlackRuleAdoption is the property behind the chooser's slack rule, over
// seeds 1–20 of four arrival shapes and every policy at four epochs: cuts
// chosen for predicted idle time inside the balance tolerance are adopted at
// least as often as the nearest-work cuts (tolerance 0, the chooser before the
// rule), the elastic policy — whose drains the fluid predictor tracks best —
// adopts at least nine in ten, and every run equals the sequential Result
// wherever its cuts fall. The log carries the adoption table.
func TestSlackRuleAdoption(t *testing.T) {
	if testing.Short() {
		t.Skip("480 runs")
	}
	specs := model.Specs()
	const shards = 4
	for _, sh := range []struct {
		name string
		gen  workload.Generator
	}{
		{"poisson170", workload.Poisson{Jobs: 2000, MeanGap: 170}},
		{"poisson250", workload.Poisson{Jobs: 2000, MeanGap: 250}},
		{"burst", workload.Burst{Waves: 40, PerWave: 50, WaveGap: 7500}},
		{"diurnal", workload.Diurnal{Jobs: 2000, Period: 86400, PeakGap: 100, OffPeakGap: 600}},
	} {
		for _, p := range core.AllPolicies() {
			var adopted, boundaries [2]int // nearest-work cuts, slack-ranked cuts
			for seed := int64(1); seed <= 20; seed++ {
				w, err := sh.gen.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := streamingMode(DefaultConfig(p))
				order := submissionOrder(w)
				seq := runShards(t, cfg, w, 1, nil)
				for i, tolerance := range []float64{0, balanceTolerance} {
					plans := buildPlans(cfg, w, order, chooseCuts(nil, cfg, w, order, specs, shards, tolerance))
					if plans == nil {
						continue
					}
					got := runShards(t, cfg, w, shards, plans)
					if !reflect.DeepEqual(seq.res, got.res) || got.processed != seq.processed {
						t.Fatalf("%s/%s seed %d tolerance %v: sharded run diverges from the sequential one", sh.name, p, seed, tolerance)
					}
					adopted[i] += got.stats.adopted
					boundaries[i] += got.stats.epochs - 1
				}
			}
			t.Logf("%-10s %-12s adopted: nearest-work %3d/%-3d  slack-ranked %3d/%-3d",
				sh.name, p, adopted[0], boundaries[0], adopted[1], boundaries[1])
			if adopted[1] < adopted[0] {
				t.Errorf("%s/%s: slack-ranked cuts adopted %d boundaries, nearest-work cuts %d", sh.name, p, adopted[1], adopted[0])
			}
			if p == core.Elastic && 10*adopted[1] < 9*boundaries[1] {
				t.Errorf("%s/elastic: %d of %d slack-ranked boundaries adopted, want nine in ten", sh.name, adopted[1], boundaries[1])
			}
		}
	}
}
