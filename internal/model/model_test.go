package model

import (
	"math"
	"testing"
)

func TestSpecsMatchPaper(t *testing.T) {
	specs := Specs()
	cases := []struct {
		c                   Class
		grid, steps, mn, mx int
	}{
		{Small, 512, 40000, 2, 8},
		{Medium, 2048, 40000, 4, 16},
		{Large, 8192, 40000, 8, 32},
		{XLarge, 16384, 10000, 16, 64},
	}
	for _, tc := range cases {
		s := specs[tc.c]
		if s.Grid != tc.grid || s.Steps != tc.steps || s.MinReplicas != tc.mn || s.MaxReplicas != tc.mx {
			t.Errorf("%v spec = %+v", tc.c, s)
		}
	}
	if len(AllClasses()) != 4 {
		t.Error("AllClasses length")
	}
	for _, c := range append(AllClasses(), Class(9)) {
		if c.String() == "" {
			t.Errorf("Class(%d) has empty name", c)
		}
	}
	// ClassByName reads back every name String writes, and nothing else.
	for _, c := range AllClasses() {
		if got, ok := ClassByName(c.String()); !ok || got != c {
			t.Errorf("ClassByName(%q) = %v, %v", c.String(), got, ok)
		}
	}
	for _, name := range []string{"", "Small", "small ", "Class(9)", Class(9).String()} {
		if got, ok := ClassByName(name); ok {
			t.Errorf("ClassByName(%q) = %v, want none", name, got)
		}
	}
}

func TestIterTimeDecreasesWithReplicas(t *testing.T) {
	m := DefaultMachine()
	for _, n := range []int{512, 2048, 8192, 16384} {
		prev := math.Inf(1)
		for _, p := range []int{2, 4, 8, 16, 32, 64} {
			it := m.IterTime(n, p)
			if it <= 0 {
				t.Fatalf("IterTime(%d,%d) = %g", n, p, it)
			}
			if it >= prev {
				t.Errorf("IterTime(%d,%d) = %g did not improve on %g", n, p, it, prev)
			}
			prev = it
		}
	}
}

func TestLargerProblemsScaleBetter(t *testing.T) {
	// Figure 4a shape: parallel efficiency at high replica counts is
	// better for larger grids.
	m := DefaultMachine()
	effSmall := m.IterTime(512, 2) * 2 / (m.IterTime(512, 64) * 64)
	effLarge := m.IterTime(16384, 2) * 2 / (m.IterTime(16384, 64) * 64)
	if effLarge <= effSmall {
		t.Errorf("large-grid efficiency %g <= small-grid %g", effLarge, effSmall)
	}
}

func TestJobRuntimeMatchesIterTime(t *testing.T) {
	m := DefaultMachine()
	spec := Specs()[Medium]
	want := float64(spec.Steps) * m.IterTime(spec.Grid, 8)
	if got := m.JobRuntime(spec, 8); got != want {
		t.Errorf("JobRuntime = %g, want %g", got, want)
	}
}

// TestParallelEfficiencyAtMinIsOne: relative to a class's minimum replicas,
// speedup(p)/p is 1 at the minimum and below 1 at the maximum.
func TestParallelEfficiencyAtMinIsOne(t *testing.T) {
	m := DefaultMachine()
	for _, spec := range Specs() {
		base := m.IterTime(spec.Grid, spec.MinReplicas) * float64(spec.MinReplicas)
		eff := func(p int) float64 { return base / (m.IterTime(spec.Grid, p) * float64(p)) }
		if e := eff(spec.MinReplicas); math.Abs(e-1) > 1e-12 {
			t.Errorf("%v efficiency at min = %g", spec.Class, e)
		}
		if e := eff(spec.MaxReplicas); e >= 1 {
			t.Errorf("%v efficiency at max = %g, want < 1", spec.Class, e)
		}
	}
}

func TestRescaleOverheadShapes(t *testing.T) {
	m := DefaultMachine()
	// Fig 5a: shrink to half from increasing replica counts — restart
	// grows with rank count, checkpoint/restore shrink, LB flat.
	var prevRestart, prevCkpt, prevLB float64
	for i, p := range []int{4, 8, 16, 32, 64} {
		ph := m.RescaleOverhead(8192, p, p/2)
		if i > 0 {
			if ph.Restart <= prevRestart {
				t.Errorf("restart at p=%d (%g) did not grow from %g", p, ph.Restart, prevRestart)
			}
			if ph.Checkpoint >= prevCkpt {
				t.Errorf("checkpoint at p=%d did not shrink: %g >= %g", p, ph.Checkpoint, prevCkpt)
			}
			if ph.LoadBalance != prevLB {
				t.Errorf("LB changed with replicas: %g vs %g", ph.LoadBalance, prevLB)
			}
		}
		prevRestart, prevCkpt, prevLB = ph.Restart, ph.Checkpoint, ph.LoadBalance
	}
	// Fig 5c: LB, ckpt, restore grow with problem size; restart flat.
	small := m.RescaleOverhead(512, 32, 16)
	big := m.RescaleOverhead(32768, 32, 16)
	if big.LoadBalance <= small.LoadBalance {
		t.Error("LB did not grow with problem size")
	}
	if big.Checkpoint <= small.Checkpoint || big.Restore <= small.Restore {
		t.Error("ckpt/restore did not grow with problem size")
	}
	if big.Restart != small.Restart {
		t.Error("restart should be independent of problem size")
	}
	// Small problems are dominated by restart (paper: "for small problem
	// sizes, the overhead is dominated by the restart time").
	if small.Restart < small.Checkpoint+small.Restore+small.LoadBalance {
		t.Error("restart does not dominate small-problem overhead")
	}
	if tot := small.Total(); tot != small.LoadBalance+small.Checkpoint+small.Restart+small.Restore {
		t.Errorf("Total = %g", tot)
	}
}

func TestCheckpointBytesQuadratic(t *testing.T) {
	r := CheckpointBytes(1024) / CheckpointBytes(512)
	if math.Abs(r-4) > 1e-9 {
		t.Errorf("doubling grid changed bytes by %gx, want 4x", r)
	}
}

func TestDuration(t *testing.T) {
	if Duration(1.5).Seconds() != 1.5 {
		t.Errorf("Duration(1.5) = %v", Duration(1.5))
	}
}

func TestIterTimeSerialHasNoComm(t *testing.T) {
	m := DefaultMachine()
	want := float64(512*512) / m.CellRate
	if got := m.IterTime(512, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("serial iter time %g, want %g (no comm term)", got, want)
	}
	if got := m.IterTime(512, 0); got != want {
		t.Errorf("p=0 clamps to 1: got %g", got)
	}
}

// TestProgressCredit: iterations accrue at IterTime's rate from the later of
// the last credit and the end of the freeze, never inside the freeze, never
// at 0 replicas, and never past the job's steps.
func TestProgressCredit(t *testing.T) {
	m := DefaultMachine()
	const n, steps = 2048, 40000.0
	it := m.IterTime(n, 8)

	p := Progress{Last: 10}
	finish := p.Rescale(10, 5, m, n, 8, steps)
	p.Credit(12, m, n, 8, steps) // inside the freeze window
	if p.Done != 0 || p.Last != 12 {
		t.Errorf("credit inside the freeze: %+v, want Done 0 and Last 12", p)
	}
	p.Credit(15, m, n, 8, steps) // at FrozenUntil
	if p.Done != 0 || p.Last != 15 {
		t.Errorf("credit at FrozenUntil: %+v, want Done 0 and Last 15", p)
	}
	p.Credit(25, m, n, 8, steps)
	if want := 10 / it; p.Done != want {
		t.Errorf("credit after the freeze: Done %v, want %v", p.Done, want)
	}
	if want := 15 + float64(steps*it); finish != want {
		t.Errorf("finish %v, want start + remaining × IterTime = %v", finish, want)
	}

	idle := Progress{Done: 7}
	idle.Credit(1e6, m, n, 0, steps)
	if idle.Done != 7 || idle.Last != 1e6 {
		t.Errorf("0 replicas credited: %+v", idle)
	}

	late := Progress{Done: steps - 1}
	late.Credit(1e6, m, n, 8, steps)
	if late.Done != steps {
		t.Errorf("Done %v past its steps %v", late.Done, steps)
	}
}

// TestProgressRescaleFinish: Rescale freezes from now for the overhead and
// prices the finish at the new replica count from what is left.
func TestProgressRescaleFinish(t *testing.T) {
	m := DefaultMachine()
	const n, steps = 8192, 40000.0
	p := Progress{Done: 1234.5, Last: 100}
	got := p.Rescale(100, 3.25, m, n, 16, steps)
	start := 100 + 3.25
	if p.FrozenUntil != start {
		t.Errorf("FrozenUntil %v, want %v", p.FrozenUntil, start)
	}
	if want := start + float64((steps-1234.5)*m.IterTime(n, 16)); got != want {
		t.Errorf("finish %v, want %v", got, want)
	}
	if p.Done != 1234.5 || p.Last != 100 {
		t.Errorf("Rescale moved Done or Last: %+v", p)
	}
}
