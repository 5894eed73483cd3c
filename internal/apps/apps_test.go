package apps

import (
	"math"
	"strings"
	"testing"
	"time"

	"elastichpc/internal/ccs"
	"elastichpc/internal/charm"
	"elastichpc/internal/pup"
)

func newRT(t *testing.T, pes int) *charm.Runtime {
	t.Helper()
	rt, err := charm.New(charm.Config{PEs: pes, RestartLatency: charm.ZeroRestartLatency})
	if err != nil {
		t.Fatalf("charm.New: %v", err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestJacobiConverges(t *testing.T) {
	rt := newRT(t, 4)
	r, err := NewJacobiRunner(rt, 32, 4, 4)
	if err != nil {
		t.Fatalf("NewJacobiRunner: %v", err)
	}
	res, err := r.Run(50)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Iterations) != 50 {
		t.Fatalf("recorded %d iterations", len(res.Iterations))
	}
	// The max delta (residual) must shrink as the solve progresses.
	if res.FinalValue <= 0 || res.FinalValue >= 1 {
		t.Errorf("final residual = %g, want in (0, 1)", res.FinalValue)
	}
}

func TestJacobiResidualDecreasesMonotonically(t *testing.T) {
	rt := newRT(t, 2)
	r, err := NewJacobiRunner(rt, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for i := 0; i < 5; i++ {
		res, err := r.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalValue > prev {
			t.Errorf("residual increased: %g -> %g", prev, res.FinalValue)
		}
		prev = res.FinalValue
	}
}

func TestJacobiCorrectAgainstSerial(t *testing.T) {
	// Run the chare-based solver and a plain serial solver on the same
	// tiny grid; residual sequences must match to floating-point accuracy.
	const n, iters = 12, 20
	rt := newRT(t, 3)
	r, err := NewJacobiRunner(rt, n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(iters)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: (n+2)×(n+2) grid with top boundary = 1.
	cur := make([]float64, (n+2)*(n+2))
	next := make([]float64, (n+2)*(n+2))
	idx := func(i, j int) int { return j*(n+2) + i }
	for i := 0; i < n+2; i++ {
		cur[idx(i, 0)] = 1
		next[idx(i, 0)] = 1
	}
	var maxDelta float64
	for it := 0; it < iters; it++ {
		maxDelta = 0
		for j := 1; j <= n; j++ {
			for i := 1; i <= n; i++ {
				v := 0.25 * (cur[idx(i-1, j)] + cur[idx(i+1, j)] + cur[idx(i, j-1)] + cur[idx(i, j+1)])
				if d := math.Abs(v - cur[idx(i, j)]); d > maxDelta {
					maxDelta = d
				}
				next[idx(i, j)] = v
			}
		}
		for i := 0; i < n+2; i++ {
			next[idx(i, 0)] = 1
		}
		cur, next = next, cur
	}
	if math.Abs(res.FinalValue-maxDelta) > 1e-12 {
		t.Errorf("parallel residual %.15g != serial %.15g", res.FinalValue, maxDelta)
	}
}

func TestJacobiRescaleMidRunSameAnswer(t *testing.T) {
	const n, iters = 12, 40
	// Reference run without rescaling.
	rtA := newRT(t, 4)
	ra, err := NewJacobiRunner(rtA, n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := ra.Run(iters)
	if err != nil {
		t.Fatal(err)
	}

	// Run with a shrink at iter 10 and an expand at iter 20.
	rtB := newRT(t, 4)
	rb, err := NewJacobiRunner(rtB, n, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rb.LBPeriod = 10
	go func() {
		// Request the shrink immediately; serviced at iter 9 boundary.
		<-rtB.RequestRescale(2)
	}()
	resB1, err := rb.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if rtB.NumPEs() != 2 {
		t.Fatalf("NumPEs after shrink = %d, want 2", rtB.NumPEs())
	}
	go func() { <-rtB.RequestRescale(4) }()
	resB2, err := rb.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if rtB.NumPEs() != 4 {
		t.Fatalf("NumPEs after expand = %d, want 4", rtB.NumPEs())
	}
	if math.Abs(resB2.FinalValue-resA.FinalValue) > 1e-12 {
		t.Errorf("rescaled run residual %.15g != rigid run %.15g", resB2.FinalValue, resA.FinalValue)
	}
	_ = resB1
}

func TestJacobiRejectsBadDecomposition(t *testing.T) {
	rt := newRT(t, 2)
	if _, err := NewJacobiRunner(rt, 4, 8, 8); err == nil {
		t.Error("accepted more blocks than cells")
	}
	if _, err := NewJacobiRunner(rt, 8, 0, 2); err == nil {
		t.Error("accepted zero blocks")
	}
}

func TestLeanMDRuns(t *testing.T) {
	rt := newRT(t, 4)
	r, err := NewLeanMDRunner(rt, 3, 3, 3, 8, 42)
	if err != nil {
		t.Fatalf("NewLeanMDRunner: %v", err)
	}
	res, err := r.Run(5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Iterations) != 5 {
		t.Fatalf("recorded %d iterations", len(res.Iterations))
	}
	if math.IsNaN(res.FinalValue) || math.IsInf(res.FinalValue, 0) {
		t.Errorf("kinetic energy = %g", res.FinalValue)
	}
	if res.FinalValue < 0 {
		t.Errorf("kinetic energy negative: %g", res.FinalValue)
	}
}

func TestLeanMDDeterministicAcrossDecompositions(t *testing.T) {
	// Same seed and cell grid on different PE counts must give the same
	// energy: placement is per-cell, not per-PE.
	run := func(pes int) float64 {
		rt := newRT(t, pes)
		r, err := NewLeanMDRunner(rt, 2, 2, 2, 6, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalValue
	}
	a, b := run(1), run(4)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("energy differs across PE counts: %g vs %g", a, b)
	}
}

func TestLeanMDRescaleMidRunSameAnswer(t *testing.T) {
	run := func(rescale bool) float64 {
		rt := newRT(t, 4)
		r, err := NewLeanMDRunner(rt, 2, 2, 2, 6, 99)
		if err != nil {
			t.Fatal(err)
		}
		r.LBPeriod = 5
		if rescale {
			go func() { <-rt.RequestRescale(2) }()
		}
		res, err := r.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalValue
	}
	a, b := run(false), run(true)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("energy differs with rescale: %g vs %g", a, b)
	}
}

func TestLeanMDRejectsBadConfig(t *testing.T) {
	rt := newRT(t, 2)
	if _, err := NewLeanMDRunner(rt, 0, 2, 2, 4, 1); err == nil {
		t.Error("accepted zero cells")
	}
	if _, err := NewLeanMDRunner(rt, 2, 2, 2, 0, 1); err == nil {
		t.Error("accepted zero atoms")
	}
}

func TestRunnerTimelineRecordsRescale(t *testing.T) {
	rt := newRT(t, 4)
	r, err := NewJacobiRunner(rt, 16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.LBPeriod = 5
	go func() { <-rt.RequestRescale(2) }()
	res, err := r.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rescales) != 1 {
		t.Fatalf("recorded %d rescales, want 1", len(res.Rescales))
	}
	ev := res.Rescales[0]
	if ev.FromPEs != 4 || ev.ToPEs != 2 {
		t.Errorf("rescale event %+v", ev)
	}
	if ev.Stats.Op != "shrink" {
		t.Errorf("stats op = %q", ev.Stats.Op)
	}
	// PEs recorded per iteration must drop after the rescale.
	if res.Iterations[0].PEs != 4 {
		t.Errorf("iter 0 ran on %d PEs", res.Iterations[0].PEs)
	}
	if last := res.Iterations[len(res.Iterations)-1]; last.PEs != 2 {
		t.Errorf("last iter ran on %d PEs", last.PEs)
	}
}

func TestRunnerStatus(t *testing.T) {
	rt := newRT(t, 2)
	r, err := NewJacobiRunner(rt, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(4); err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if st.NumPEs != 2 || st.TotalIters != 4 {
		t.Errorf("Status = %+v", st)
	}
	if st.DoneFraction < 0.9 {
		t.Errorf("DoneFraction = %g", st.DoneFraction)
	}
}

// TestRunnerServicesCCSShrink is the external-controller path end to end: a
// shrink sent over the runtime's CCS socket is serviced by the runner's own
// iteration loop, with the runner's Status behind the query endpoint.
func TestRunnerServicesCCSShrink(t *testing.T) {
	rt := newRT(t, 4)
	r, err := NewJacobiRunner(rt, 32, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.LBPeriod = 5
	h, err := rt.ServeCCS(charm.CCSOptions{Addr: "127.0.0.1:0", Status: r.Status})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	done := make(chan error, 1)
	go func() {
		c, err := ccs.Dial(h.Addr(), 30*time.Second)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		done <- c.Shrink(2)
	}()
	// The request may land after a short run completes: keep iterating
	// until it has been serviced.
	deadline := time.Now().Add(30 * time.Second)
	for rt.NumPEs() != 2 && time.Now().Before(deadline) {
		if _, err := r.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("CCS shrink: %v", err)
	}
	if rt.NumPEs() != 2 {
		t.Fatalf("NumPEs = %d after CCS shrink", rt.NumPEs())
	}
}

func TestTimePerIteration(t *testing.T) {
	var r RunResult
	if r.TimePerIteration() != 0 {
		t.Error("empty result should report 0")
	}
	r.Iterations = []IterationRecord{{Elapsed: time.Second}}
	if r.TimePerIteration() != time.Second {
		t.Error("single-iteration mean wrong")
	}
	r.Iterations = append(r.Iterations,
		IterationRecord{Elapsed: 2 * time.Second},
		IterationRecord{Elapsed: 4 * time.Second})
	if got := r.TimePerIteration(); got != 3*time.Second {
		t.Errorf("mean = %v, want 3s (first iteration excluded)", got)
	}
}

func TestCheckpointBytesScalesWithGrid(t *testing.T) {
	rt := newRT(t, 2)
	small, err := NewJacobiRunner(rt, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := small.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	rt2 := newRT(t, 2)
	big, err := NewJacobiRunner(rt2, 64, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := big.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bb <= sb {
		t.Errorf("checkpoint bytes %d (64²) <= %d (16²)", bb, sb)
	}
	if rt.Store().Len() != 0 || rt2.Store().Len() != 0 {
		t.Error("probe checkpoints not cleaned up")
	}
}

func TestBlockSpanCoversGrid(t *testing.T) {
	for _, n := range []int{7, 16, 33} {
		for _, k := range []int{1, 2, 3, 5} {
			total := 0
			for i := 0; i < k; i++ {
				s := blockSpan(n, k, i)
				if s <= 0 {
					t.Errorf("blockSpan(%d,%d,%d) = %d", n, k, i, s)
				}
				total += s
			}
			if total != n {
				t.Errorf("blockSpan(%d,%d) covers %d cells", n, k, total)
			}
		}
	}
}

func TestMDCellNeighbors(t *testing.T) {
	c := &mdCell{KX: 3, KY: 3, KZ: 3, X: 1, Y: 1, Z: 1}
	if got := len(c.neighbors()); got != 26 {
		t.Errorf("center cell has %d neighbors, want 26", got)
	}
	corner := &mdCell{KX: 3, KY: 3, KZ: 3, X: 0, Y: 0, Z: 0}
	if got := len(corner.neighbors()); got != 7 {
		t.Errorf("corner cell has %d neighbors, want 7", got)
	}
}

func TestLJForceProperties(t *testing.T) {
	// Beyond cutoff: zero.
	if fx, fy, fz := ljForce(0, 0, 0, 3, 0, 0); fx != 0 || fy != 0 || fz != 0 {
		t.Error("force beyond cutoff nonzero")
	}
	// Identical positions: zero (guard).
	if fx, _, _ := ljForce(1, 1, 1, 1, 1, 1); fx != 0 {
		t.Error("force at zero distance nonzero")
	}
	// At r slightly above sigma the force should be repulsive... at
	// r = 1.0·sigma LJ force is repulsive (positive along separation).
	fx, _, _ := ljForce(1.0, 0, 0, 0, 0, 0)
	if fx <= 0 {
		t.Errorf("force at r=sigma should repel, got %g", fx)
	}
	// At r = 2.0 sigma the force is attractive.
	fx, _, _ = ljForce(2.0, 0, 0, 0, 0, 0)
	if fx >= 0 {
		t.Errorf("force at r=2sigma should attract, got %g", fx)
	}
	// Newton's third law: F(a,b) = -F(b,a).
	ax, ay, az := ljForce(0.3, 0.2, 0.7, 1.1, 0.9, 0.4)
	bx, by, bz := ljForce(1.1, 0.9, 0.4, 0.3, 0.2, 0.7)
	if math.Abs(ax+bx) > 1e-12 || math.Abs(ay+by) > 1e-12 || math.Abs(az+bz) > 1e-12 {
		t.Error("LJ force violates Newton's third law")
	}
}

func TestJacobiBlockPupRoundTrip(t *testing.T) {
	b := &jacobiBlock{
		N: 16, BX: 2, BY: 2, X: 1, Y: 0, W: 8, H: 8, Boundary: 1,
		Iter: 7, Cur: make([]float64, 100), Next: make([]float64, 100),
	}
	b.Cur[55] = 3.25
	data, err := pup.Pack(b)
	if err != nil {
		t.Fatal(err)
	}
	out := &jacobiBlock{}
	if err := pup.Unpack(out, data); err != nil {
		t.Fatal(err)
	}
	if out.Iter != 7 || out.Cur[55] != 3.25 || out.haloNeeded != b.countNeighbors() {
		t.Errorf("round trip: %+v", out)
	}
	if out.pendHalos == nil {
		t.Error("pendHalos not reconstructed")
	}
}

func TestMDCellPupRoundTrip(t *testing.T) {
	c := &mdCell{KX: 2, KY: 2, KZ: 2, X: 1, Y: 1, Z: 1, CellSize: 2.5,
		Iter: 3, Pos: []float64{1, 2, 3}, Vel: []float64{0.1, 0.2, 0.3}}
	data, err := pup.Pack(c)
	if err != nil {
		t.Fatal(err)
	}
	out := &mdCell{}
	if err := pup.Unpack(out, data); err != nil {
		t.Fatal(err)
	}
	if out.Iter != 3 || out.Pos[2] != 3 || out.Vel[1] != 0.2 {
		t.Errorf("round trip: %+v", out)
	}
	if out.needed != len(out.neighbors()) {
		t.Errorf("needed = %d", out.needed)
	}
}

// TestRunWithRescaleNeverMissesSingleStep: a run whose only load-balancing
// step is its first still services a rescale requested through
// RunWithRescale, every time. Registering the request from a goroutine
// started just before Run — what the figure harnesses did — races that step.
func TestRunWithRescaleNeverMissesSingleStep(t *testing.T) {
	for i := 0; i < 2000; i++ {
		rt, err := charm.New(charm.Config{PEs: 2, RestartLatency: charm.ZeroRestartLatency})
		if err != nil {
			t.Fatal(err)
		}
		bx, by := ChareGrid(4 * 2)
		r, err := NewJacobiRunner(rt, 8, bx, by)
		if err != nil {
			t.Fatal(err)
		}
		r.LBPeriod = 1
		res, err := r.RunWithRescale(1, 1)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := len(rt.Stats()); got != 1 || len(res.Rescales) != 1 || rt.NumPEs() != 1 {
			t.Fatalf("run %d: %d RescaleStats, %d rescale events, %d PEs; want 1, 1, 1", i, got, len(res.Rescales), rt.NumPEs())
		}
		rt.Shutdown()
	}
}

// TestRunWithRescaleReportsUnservicedRequest: a run too short to reach a
// load-balancing step says so instead of returning as if it had rescaled.
func TestRunWithRescaleReportsUnservicedRequest(t *testing.T) {
	r, err := NewJacobiRunner(newRT(t, 2), 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunWithRescale(3, 1); err == nil || !strings.Contains(err.Error(), "not serviced") {
		t.Fatalf("3 iterations at the default LB period of 10: err = %v, want the unserviced rescale reported", err)
	}
}
