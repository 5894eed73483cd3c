package charm

import (
	"fmt"
	"sync"

	"elastichpc/internal/lb"
	"elastichpc/internal/shm"
)

// arrayMeta is the incarnation-independent description of a chare array.
type arrayMeta struct {
	id       int
	typ      *chareType
	n        int
	onReduce func(vals []float64)

	// reduction state, guarded by redMu
	redMu    sync.Mutex
	redCount int
	redAcc   []float64
	redOp    ReduceOp
}

// Runtime is a Charm++-style runtime instance. Create one with New, create
// chare arrays, exchange messages, and optionally rescale with RescaleTo.
// A Runtime survives rescaling: arrays and reduction clients persist across
// incarnations, exactly like application state survives a Charm++
// checkpoint/restart rescale.
type Runtime struct {
	cfg Config

	mu     sync.Mutex // guards arrays slice, inc swap, stats, closed
	arrays []*arrayMeta
	inc    *incarnation
	store  *shm.Store
	gen    int // checkpoint generation counter
	stats  []RescaleStats
	closed bool

	// rescaleMu serializes rescale/balance operations.
	rescaleMu sync.Mutex

	pending   *pendingRescale
	pendingMu sync.Mutex
}

// pendingRescale records a rescale request (e.g. from CCS) waiting for the
// application to reach its next load-balancing step.
type pendingRescale struct {
	target int
	done   chan error
}

// New creates a runtime with cfg.PEs processing elements.
func New(cfg Config) (*Runtime, error) {
	if cfg.PEs < 1 {
		return nil, fmt.Errorf("charm: config needs at least 1 PE, got %d", cfg.PEs)
	}
	if cfg.Store == nil {
		cfg.Store = shm.NewStore(0)
	}
	if cfg.RescaleLB == nil {
		cfg.RescaleLB = lb.Greedy{}
	}
	if cfg.RunLB == nil {
		cfg.RunLB = lb.Refine{}
	}
	if cfg.RestartLatency == nil {
		cfg.RestartLatency = DefaultRestartLatency
	}
	rt := &Runtime{cfg: cfg, store: cfg.Store}
	rt.inc = newIncarnation(rt, cfg.PEs)
	return rt, nil
}

// NumPEs returns the current incarnation's PE count.
func (rt *Runtime) NumPEs() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.inc.pes)
}

// Stats returns the rescale statistics recorded so far.
func (rt *Runtime) Stats() []RescaleStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]RescaleStats(nil), rt.stats...)
}

// Store returns the checkpoint store (useful for inspecting checkpoints).
func (rt *Runtime) Store() *shm.Store { return rt.store }

// Shutdown stops all PEs. The runtime must not be used afterwards.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	rt.inc.stop()
}

// CreateArray creates an n-element chare array of the registered type and
// returns its array ID. Elements are placed block-wise across PEs and
// constructed with the type's factory; initialize them with a broadcast.
func (rt *Runtime) CreateArray(typeName string, n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("charm: array must have at least 1 element, got %d", n)
	}
	ct, err := lookupType(typeName)
	if err != nil {
		return 0, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return 0, fmt.Errorf("charm: runtime is shut down")
	}
	meta := &arrayMeta{id: len(rt.arrays), typ: ct, n: n}
	rt.arrays = append(rt.arrays, meta)
	inc := rt.inc
	numPE := len(inc.pes)
	inc.pauseAll()
	for i := 0; i < n; i++ {
		peID := i * numPE / n // block mapping
		id := lb.ObjID{Array: meta.id, Index: i}
		inc.pes[peID].chares[id] = ct.factory()
		inc.place(id, peID)
	}
	inc.resumeAll()
	return meta.id, nil
}

// SetReductionClient registers fn to run when a reduction over the array
// completes. fn runs on its own goroutine (the "main chare" context).
func (rt *Runtime) SetReductionClient(array int, fn func(vals []float64)) {
	meta := rt.arrayMeta(array)
	meta.redMu.Lock()
	meta.onReduce = fn
	meta.redMu.Unlock()
}

// Broadcast sends an entry-method invocation to every element of the array.
func (rt *Runtime) Broadcast(array, entry int, data []byte) {
	meta := rt.arrayMeta(array)
	for i := 0; i < meta.n; i++ {
		rt.send(array, i, entry, data)
	}
}

// Send delivers an entry-method invocation to one element.
func (rt *Runtime) Send(array, index, entry int, data []byte) {
	rt.send(array, index, entry, data)
}

func (rt *Runtime) arrayMeta(array int) *arrayMeta {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if array < 0 || array >= len(rt.arrays) {
		panic(fmt.Sprintf("charm: unknown array %d", array))
	}
	return rt.arrays[array]
}

func (rt *Runtime) arrayEntries(array int) []Entry { return rt.arrayMeta(array).typ.entries }

func (rt *Runtime) send(array, index, entry int, data []byte) {
	rt.mu.Lock()
	inc := rt.inc
	rt.mu.Unlock()
	inc.send(array, index, entry, data)
}

// contribute implements Ctx.Contribute.
func (rt *Runtime) contribute(array int, vals []float64, op ReduceOp) {
	meta := rt.arrayMeta(array)
	var fire func(vals []float64)
	var result []float64
	meta.redMu.Lock()
	if meta.redCount == 0 {
		meta.redOp = op
		meta.redAcc = nil
	}
	meta.redAcc = meta.redOp.apply(meta.redAcc, vals)
	meta.redCount++
	if meta.redCount == meta.n {
		meta.redCount = 0
		result = meta.redAcc
		meta.redAcc = nil
		fire = meta.onReduce
	}
	meta.redMu.Unlock()
	if result != nil && fire != nil {
		// Run the reduction client off the PE goroutine so it can call
		// Broadcast/RescaleTo without deadlocking the scheduler.
		go fire(result)
	}
}

// RequestRescale records a rescale request to be honoured at the next
// ServicePendingRescale call (the application's next load-balancing step,
// per paper §2.2: "the application triggers rescaling during the next
// load-balancing step after receiving the signal"). The returned channel
// receives the rescale outcome.
func (rt *Runtime) RequestRescale(target int) <-chan error {
	done := make(chan error, 1)
	rt.pendingMu.Lock()
	if rt.pending != nil {
		// Coalesce: the newest request wins; fail the old one.
		rt.pending.done <- fmt.Errorf("charm: rescale superseded by newer request")
	}
	rt.pending = &pendingRescale{target: target, done: done}
	rt.pendingMu.Unlock()
	return done
}

// PendingRescale reports the target PE count of a pending rescale request,
// or 0 if none is pending.
func (rt *Runtime) PendingRescale() int {
	rt.pendingMu.Lock()
	defer rt.pendingMu.Unlock()
	if rt.pending == nil {
		return 0
	}
	return rt.pending.target
}

// ServicePendingRescale performs a pending rescale, if any. The application
// calls it at iteration/LB boundaries when the runtime is quiescent. It
// reports whether a rescale was performed.
func (rt *Runtime) ServicePendingRescale() (bool, error) {
	rt.pendingMu.Lock()
	req := rt.pending
	rt.pending = nil
	rt.pendingMu.Unlock()
	if req == nil {
		return false, nil
	}
	err := rt.RescaleTo(req.target)
	req.done <- err
	return true, err
}
