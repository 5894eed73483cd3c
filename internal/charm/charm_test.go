package charm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elastichpc/internal/ccs"
	"elastichpc/internal/lb"
	"elastichpc/internal/pup"
)

// counter is a minimal chare: it accumulates values sent to it.
type counter struct {
	Sum   int
	Calls int
}

func (c *counter) Pup(p *pup.PUP) {
	p.Int(&c.Sum)
	p.Int(&c.Calls)
}

const (
	epAdd = iota
	epContribute
	epRing
)

// ringSize is the element count of the array the ring entry circulates in.
const ringSize = 7

func init() {
	RegisterType("test.counter", func() Chare { return &counter{} }, []Entry{
		{Name: "add", Fn: func(obj Chare, ctx *Ctx, data []byte) {
			c := obj.(*counter)
			c.Sum += int(binary.LittleEndian.Uint64(data))
			c.Calls++
		}},
		{Name: "contribute", Fn: func(obj Chare, ctx *Ctx, data []byte) {
			c := obj.(*counter)
			ctx.Contribute([]float64{float64(c.Sum)}, ReduceSum)
		}},
		{Name: "ring", Fn: func(obj Chare, ctx *Ctx, data []byte) {
			c := obj.(*counter)
			c.Calls++
			hops := int(binary.LittleEndian.Uint64(data))
			if hops == 0 {
				ctx.Contribute([]float64{1}, ReduceSum)
				return
			}
			next := (ctx.Index + 1) % ringSize
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(hops-1))
			ctx.Send(ctx.Array, next, epRing, buf[:])
		}},
	})
}

// quiesceWait blocks until no messages are in flight; the caller has stopped
// injecting work.
func (rt *Runtime) quiesceWait() {
	rt.mu.Lock()
	inc := rt.inc
	rt.mu.Unlock()
	inc.quiesce()
}

func newTestRT(t *testing.T, pes int) *Runtime {
	t.Helper()
	rt, err := New(Config{PEs: pes, RestartLatency: ZeroRestartLatency})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// balance moves the current incarnation's chares to match assign: the
// migrate step of a rescale, without the restart.
func balance(rt *Runtime, assign lb.Assignment) (int, error) {
	rt.mu.Lock()
	inc := rt.inc
	rt.mu.Unlock()
	inc.quiesce()
	inc.pauseAll()
	defer inc.resumeAll()
	return migrate(inc, assign)
}

func encInt(v int) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return buf[:]
}

func TestNewRejectsZeroPEs(t *testing.T) {
	if _, err := New(Config{PEs: 0}); err == nil {
		t.Fatal("New accepted 0 PEs")
	}
}

func TestCreateArrayRejectsBadArgs(t *testing.T) {
	rt := newTestRT(t, 2)
	if _, err := rt.CreateArray("test.counter", 0); err == nil {
		t.Error("CreateArray accepted 0 elements")
	}
	if _, err := rt.CreateArray("not.registered", 4); err == nil {
		t.Error("CreateArray accepted unregistered type")
	}
}

func TestBroadcastAndReduction(t *testing.T) {
	rt := newTestRT(t, 4)
	aid, err := rt.CreateArray("test.counter", 10)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan float64, 1)
	rt.SetReductionClient(aid, func(vals []float64) { done <- vals[0] })

	rt.Broadcast(aid, epAdd, encInt(5))
	rt.quiesceWait()
	rt.Broadcast(aid, epContribute, nil)

	select {
	case sum := <-done:
		if sum != 50 {
			t.Errorf("reduction sum = %g, want 50", sum)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reduction never completed")
	}
}

func TestPointToPointRing(t *testing.T) {
	rt := newTestRT(t, 3)
	aid, err := rt.CreateArray("test.counter", ringSize)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan float64, 1)
	rt.SetReductionClient(aid, func(vals []float64) { done <- vals[0] })
	// One message circulates 3 full laps then all elements contribute:
	// only index 0's final hop contributes, so seed contributions from the
	// others via epContribute after quiescing the ring? Simpler: run the
	// ring until hops exhausted, then reduce over all elements.
	rt.send(aid, 0, epRing, encInt(21)) // 21 hops over 7 elements = 3 laps
	// Wait for the ring to finish: the last hop contributes a single
	// value, but the reduction needs all 7 elements. Trigger the rest.
	rt.quiesceWait()
	for i := 1; i < 7; i++ {
		rt.send(aid, i, epContribute, nil)
	}
	// Element 0 contributed 1 during the final ring hop... but epRing with
	// hops==0 lands on index 21%7 == 0, which contributed already.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ring reduction never completed")
	}
	// Verify every element was visited 3 times via a sum reduction.
	sum := make(chan float64, 1)
	rt.SetReductionClient(aid, func(vals []float64) { sum <- vals[0] })
	rt.Broadcast(aid, epContribute, nil)
	select {
	case <-sum:
	case <-time.After(5 * time.Second):
		t.Fatal("second reduction never completed")
	}
}

func TestReductionOps(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		vals [][]float64
		want []float64
	}{
		{ReduceSum, [][]float64{{1, 2}, {3, 4}}, []float64{4, 6}},
		{ReduceMax, [][]float64{{1, 9}, {5, 2}}, []float64{5, 9}},
		{ReduceMin, [][]float64{{1, 9}, {5, 2}}, []float64{1, 2}},
	}
	for _, tc := range cases {
		var acc []float64
		for _, v := range tc.vals {
			acc = tc.op.apply(acc, v)
		}
		for i := range tc.want {
			if acc[i] != tc.want[i] {
				t.Errorf("op %v: acc = %v, want %v", tc.op, acc, tc.want)
			}
		}
	}
}

func TestShrinkPreservesState(t *testing.T) {
	rt := newTestRT(t, 8)
	aid, err := rt.CreateArray("test.counter", 32)
	if err != nil {
		t.Fatal(err)
	}
	rt.Broadcast(aid, epAdd, encInt(3))
	rt.quiesceWait()

	if err := rt.RescaleTo(4); err != nil {
		t.Fatalf("RescaleTo(4): %v", err)
	}
	if got := rt.NumPEs(); got != 4 {
		t.Fatalf("NumPEs = %d, want 4", got)
	}

	done := make(chan float64, 1)
	rt.SetReductionClient(aid, func(vals []float64) { done <- vals[0] })
	rt.Broadcast(aid, epContribute, nil)
	select {
	case sum := <-done:
		if sum != 96 { // 32 elements × 3
			t.Errorf("sum after shrink = %g, want 96", sum)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reduction after shrink never completed")
	}
}

func TestExpandPreservesStateAndPopulatesNewPEs(t *testing.T) {
	rt := newTestRT(t, 2)
	aid, err := rt.CreateArray("test.counter", 16)
	if err != nil {
		t.Fatal(err)
	}
	rt.Broadcast(aid, epAdd, encInt(7))
	rt.quiesceWait()

	if err := rt.RescaleTo(8); err != nil {
		t.Fatalf("RescaleTo(8): %v", err)
	}
	if got := rt.NumPEs(); got != 8 {
		t.Fatalf("NumPEs = %d, want 8", got)
	}

	// All 8 PEs should host at least one of the 16 chares after expand LB.
	rt.mu.Lock()
	inc := rt.inc
	rt.mu.Unlock()
	inc.pauseAll()
	empty := 0
	for _, p := range inc.pes {
		if len(p.chares) == 0 {
			empty++
		}
	}
	inc.resumeAll()
	if empty != 0 {
		t.Errorf("%d PEs empty after expand LB", empty)
	}

	done := make(chan float64, 1)
	rt.SetReductionClient(aid, func(vals []float64) { done <- vals[0] })
	rt.Broadcast(aid, epContribute, nil)
	select {
	case sum := <-done:
		if sum != 112 { // 16 × 7
			t.Errorf("sum after expand = %g, want 112", sum)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reduction after expand never completed")
	}
}

func TestRescaleStatsRecorded(t *testing.T) {
	rt := newTestRT(t, 4)
	if _, err := rt.CreateArray("test.counter", 8); err != nil {
		t.Fatal(err)
	}
	if err := rt.RescaleTo(2); err != nil {
		t.Fatal(err)
	}
	if err := rt.RescaleTo(6); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	if len(stats) != 2 {
		t.Fatalf("recorded %d stats, want 2", len(stats))
	}
	if stats[0].Op != "shrink" || stats[0].OldPEs != 4 || stats[0].NewPEs != 2 {
		t.Errorf("stats[0] = %+v", stats[0])
	}
	if stats[1].Op != "expand" || stats[1].OldPEs != 2 || stats[1].NewPEs != 6 {
		t.Errorf("stats[1] = %+v", stats[1])
	}
	if stats[0].CheckpointBytes <= 0 {
		t.Error("shrink recorded no checkpoint bytes")
	}
	if stats[0].Total <= 0 || stats[1].Total <= 0 {
		t.Error("zero total rescale time")
	}
	if s := stats[0].String(); s == "" {
		t.Error("empty stats string")
	}
}

func TestRescaleToSameCountIsNoop(t *testing.T) {
	rt := newTestRT(t, 4)
	if err := rt.RescaleTo(4); err != nil {
		t.Fatal(err)
	}
	if n := len(rt.Stats()); n != 0 {
		t.Errorf("no-op rescale recorded %d stats", n)
	}
}

func TestRescaleToInvalid(t *testing.T) {
	rt := newTestRT(t, 4)
	if err := rt.RescaleTo(0); err == nil {
		t.Error("RescaleTo(0) succeeded")
	}
}

func TestBalanceMovesLoad(t *testing.T) {
	rt := newTestRT(t, 4)
	aid, err := rt.CreateArray("test.counter", 12)
	if err != nil {
		t.Fatal(err)
	}
	// Manufacture imbalance: pretend all load sits on PE 0's chares.
	rt.mu.Lock()
	inc := rt.inc
	rt.mu.Unlock()
	inc.pauseAll()
	for id := range inc.pes[0].chares {
		inc.pes[0].loads[id] = 10.0
	}
	assign, err := lb.Greedy(inc.loadDatabase())
	inc.resumeAll()
	if err != nil {
		t.Fatal(err)
	}

	moved, err := balance(rt, assign)
	if err != nil {
		t.Fatalf("balance: %v", err)
	}
	if moved == 0 {
		t.Error("balance moved nothing despite imbalance")
	}
	_ = aid
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	rt := newTestRT(t, 4)
	aid, err := rt.CreateArray("test.counter", 8)
	if err != nil {
		t.Fatal(err)
	}
	rt.Broadcast(aid, epAdd, encInt(11))
	rt.quiesceWait()

	// The checkpoint and restore RescaleTo runs, without the resize.
	rt.mu.Lock()
	inc := rt.inc
	rt.mu.Unlock()
	inc.quiesce()
	inc.pauseAll()
	bytes, err := checkpoint(inc, rt.cfg.Store, "preempt/job1/")
	inc.resumeAll()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if bytes <= 0 {
		t.Error("checkpoint wrote no bytes")
	}

	// Mutate state, then restore — the mutation must be rolled back.
	rt.Broadcast(aid, epAdd, encInt(100))
	rt.quiesceWait()
	inc.stop()
	fresh := newIncarnation(rt, len(inc.pes))
	if err := restore(rt, fresh, "preempt/job1/"); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rt.mu.Lock()
	rt.inc = fresh
	rt.mu.Unlock()

	done := make(chan float64, 1)
	rt.SetReductionClient(aid, func(vals []float64) { done <- vals[0] })
	rt.Broadcast(aid, epContribute, nil)
	select {
	case sum := <-done:
		if sum != 88 { // 8 × 11, not 8 × 111
			t.Errorf("sum after restore = %g, want 88", sum)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reduction after restore never completed")
	}
}

func TestRequestRescaleServicedAtBoundary(t *testing.T) {
	rt := newTestRT(t, 6)
	if _, err := rt.CreateArray("test.counter", 12); err != nil {
		t.Fatal(err)
	}
	done := rt.RequestRescale(3)
	if got := rt.PendingRescale(); got != 3 {
		t.Fatalf("PendingRescale = %d, want 3", got)
	}
	performed, err := rt.ServicePendingRescale()
	if err != nil || !performed {
		t.Fatalf("ServicePendingRescale = %v, %v", performed, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("rescale result: %v", err)
	}
	if rt.NumPEs() != 3 {
		t.Fatalf("NumPEs = %d, want 3", rt.NumPEs())
	}
	// Nothing pending now.
	if performed, _ := rt.ServicePendingRescale(); performed {
		t.Error("second ServicePendingRescale performed a rescale")
	}
}

func TestRequestRescaleCoalesces(t *testing.T) {
	rt := newTestRT(t, 4)
	if _, err := rt.CreateArray("test.counter", 8); err != nil {
		t.Fatal(err)
	}
	first := rt.RequestRescale(2)
	second := rt.RequestRescale(3)
	if err := <-first; err == nil {
		t.Error("superseded request did not fail")
	}
	if _, err := rt.ServicePendingRescale(); err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second request: %v", err)
	}
	if rt.NumPEs() != 3 {
		t.Fatalf("NumPEs = %d, want 3", rt.NumPEs())
	}
}

func TestServeCCSShrinkExpand(t *testing.T) {
	rt := newTestRT(t, 8)
	if _, err := rt.CreateArray("test.counter", 16); err != nil {
		t.Fatal(err)
	}
	var iter atomic.Int64
	h, err := rt.ServeCCS(CCSOptions{
		Addr: "127.0.0.1:0",
		Status: func() ccs.StatusReply {
			return ccs.StatusReply{NumPEs: rt.NumPEs(), Iteration: int(iter.Load()), TotalIters: 100}
		},
	})
	if err != nil {
		t.Fatalf("ServeCCS: %v", err)
	}
	defer h.Close()

	// Emulate the application's iteration loop servicing rescales.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			iter.Add(1)
			if _, err := rt.ServicePendingRescale(); err != nil {
				t.Errorf("ServicePendingRescale: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	c, err := ccs.Dial(h.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Shrink(4); err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if rt.NumPEs() != 4 {
		t.Fatalf("NumPEs after CCS shrink = %d", rt.NumPEs())
	}
	if err := c.Expand(8, []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}); err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if rt.NumPEs() != 8 {
		t.Fatalf("NumPEs after CCS expand = %d", rt.NumPEs())
	}
	st, err := c.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if st.NumPEs != 8 {
		t.Errorf("Query NumPEs = %d", st.NumPEs)
	}
	if n := len(rt.Stats()); n != 2 {
		t.Errorf("%d rescales recorded, want 2", n)
	}
}

func TestServeCCSDecline(t *testing.T) {
	rt := newTestRT(t, 4)
	if _, err := rt.CreateArray("test.counter", 8); err != nil {
		t.Fatal(err)
	}
	h, err := rt.ServeCCS(CCSOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c, err := ccs.Dial(h.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Shrink(0); err == nil {
		t.Error("shrink to 0 PEs reported success")
	}
	if rt.NumPEs() != 4 {
		t.Errorf("NumPEs changed despite decline: %d", rt.NumPEs())
	}
}

func TestManyRescaleCycles(t *testing.T) {
	rt := newTestRT(t, 8)
	aid, err := rt.CreateArray("test.counter", 24)
	if err != nil {
		t.Fatal(err)
	}
	rt.Broadcast(aid, epAdd, encInt(1))
	rt.quiesceWait()
	sizes := []int{4, 6, 2, 8, 3, 8}
	for _, n := range sizes {
		if err := rt.RescaleTo(n); err != nil {
			t.Fatalf("RescaleTo(%d): %v", n, err)
		}
		// State intact after every cycle.
		done := make(chan float64, 1)
		rt.SetReductionClient(aid, func(vals []float64) { done <- vals[0] })
		rt.Broadcast(aid, epContribute, nil)
		select {
		case sum := <-done:
			if sum != 24 {
				t.Fatalf("after RescaleTo(%d): sum = %g, want 24", n, sum)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reduction timed out after RescaleTo(%d)", n)
		}
	}
}

func TestMessageToMigratedChareIsForwarded(t *testing.T) {
	rt := newTestRT(t, 4)
	aid, err := rt.CreateArray("test.counter", 4)
	if err != nil {
		t.Fatal(err)
	}
	rt.Broadcast(aid, epAdd, encInt(2))
	rt.quiesceWait()
	// Rescale so objects move; messages sent after still arrive.
	if err := rt.RescaleTo(2); err != nil {
		t.Fatal(err)
	}
	rt.Broadcast(aid, epAdd, encInt(2))
	rt.quiesceWait()
	done := make(chan float64, 1)
	rt.SetReductionClient(aid, func(vals []float64) { done <- vals[0] })
	rt.Broadcast(aid, epContribute, nil)
	select {
	case sum := <-done:
		if sum != 16 {
			t.Errorf("sum = %g, want 16", sum)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reduction timed out")
	}
}

func TestLoadsSurviveRescale(t *testing.T) {
	rt := newTestRT(t, 4)
	aid, err := rt.CreateArray("test.counter", 8)
	if err != nil {
		t.Fatal(err)
	}
	rt.Broadcast(aid, epAdd, encInt(1))
	rt.quiesceWait()
	if err := rt.RescaleTo(2); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	inc := rt.inc
	rt.mu.Unlock()
	inc.pauseAll()
	total := 0
	for _, p := range inc.pes {
		total += len(p.loads)
	}
	inc.resumeAll()
	if total != 8 {
		t.Errorf("loads for %d chares survived, want 8", total)
	}
	_ = aid
}

func TestShutdownIdempotent(t *testing.T) {
	rt, err := New(Config{PEs: 2, RestartLatency: ZeroRestartLatency})
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	rt.Shutdown() // must not panic or deadlock
	if err := rt.RescaleTo(4); err == nil {
		t.Error("RescaleTo succeeded after Shutdown")
	}
	if _, err := rt.CreateArray("test.counter", 2); err == nil {
		t.Error("CreateArray succeeded after Shutdown")
	}
}

func TestMsgqFIFOAndClose(t *testing.T) {
	q := newMsgq()
	for i := 0; i < 10; i++ {
		q.push(message{index: i})
	}
	if q.len() != 10 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 10; i++ {
		m, ok := q.pop()
		if !ok || m.index != i {
			t.Fatalf("pop %d = %+v, %v", i, m, ok)
		}
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Error("pop succeeded on closed empty queue")
	}
	q.push(message{index: 99}) // dropped silently
	if q.len() != 0 {
		t.Error("push to closed queue was enqueued")
	}
}

func TestDefaultRestartLatencyShape(t *testing.T) {
	if DefaultRestartLatency(64) <= DefaultRestartLatency(4) {
		t.Error("restart latency must grow with PE count")
	}
	if ZeroRestartLatency(64) != 0 {
		t.Error("ZeroRestartLatency is not zero")
	}
}
