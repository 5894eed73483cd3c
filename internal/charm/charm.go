// Package charm implements a Charm++-style message-driven parallel runtime
// with migratable objects (chares), measurement-based load balancing, and
// dynamic shrink/expand of the processing-element (PE) count — the substrate
// the paper's elastic scheduler depends on (paper §2.1–2.2).
//
// Model:
//
//   - Each PE is a goroutine with a message queue and a scheduler loop that
//     delivers messages to destination objects (the non-SMP build: one PE per
//     worker, as used in the paper §3.1).
//   - Applications are decomposed into chare arrays whose elements are
//     Pupable objects. Overdecomposition (more chares than PEs) enables load
//     balancing and rescaling.
//   - Entry methods are registered per chare type and invoked via messages.
//     The runtime looks up the destination PE in a location manager,
//     serializes nothing for local semantics (payloads are byte slices owned
//     by the receiver), and enqueues the message on the destination PE.
//   - Rescaling follows §2.2: on shrink, the load balancer first moves
//     objects off the doomed PEs, then the application state is checkpointed
//     to (emulated) shared memory, the runtime is restarted with the new PE
//     count, and state is restored. On expand, restart happens first and a
//     load-balance step follows to populate the new PEs.
package charm

import (
	"fmt"
	"sync"
	"time"

	"elastichpc/internal/lb"
	"elastichpc/internal/pup"
	"elastichpc/internal/shm"
)

// Chare is a migratable object. All state referenced by Pup migrates with
// the object; anything else must be reconstructible.
type Chare interface {
	pup.Pupable
}

// Ctx is the execution context handed to an entry method. It is only valid
// for the duration of the call.
type Ctx struct {
	rt    *Runtime
	Array int // array this chare belongs to
	Index int // this chare's index within the array
}

// NumPEs returns the PE count of the current incarnation.
func (c *Ctx) NumPEs() int { return c.rt.NumPEs() }

// Send delivers an entry-method invocation to element (array, index).
func (c *Ctx) Send(array, index, entry int, data []byte) {
	c.rt.send(array, index, entry, data)
}

// Contribute adds this chare's contribution to the current reduction over
// its array. When every element has contributed, the array's reduction
// client runs with the combined values.
func (c *Ctx) Contribute(vals []float64, op ReduceOp) {
	c.rt.contribute(c.Array, vals, op)
}

// EntryFn is the body of an entry method.
type EntryFn func(obj Chare, ctx *Ctx, data []byte)

// Entry describes one entry method of a chare type.
type Entry struct {
	Name string
	Fn   EntryFn
}

// chareType is a registered migratable type.
type chareType struct {
	name    string
	factory func() Chare
	entries []Entry
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]*chareType)
)

// RegisterType registers a chare type by name with its factory and entry
// table. Registering the same name twice replaces the previous registration
// (types are registered in init functions; replacement keeps tests
// independent).
func RegisterType(name string, factory func() Chare, entries []Entry) {
	if name == "" || factory == nil {
		panic("charm: RegisterType requires a name and factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = &chareType{name: name, factory: factory, entries: entries}
}

func lookupType(name string) (*chareType, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	ct, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("charm: chare type %q not registered", name)
	}
	return ct, nil
}

// ReduceOp combines reduction contributions element-wise.
type ReduceOp int

// Supported reduction operations.
const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

func (op ReduceOp) apply(acc, vals []float64) []float64 {
	if acc == nil {
		return append([]float64(nil), vals...)
	}
	if len(acc) != len(vals) {
		// Contribution shape mismatch is a programming error.
		panic(fmt.Sprintf("charm: reduction contribution has %d values, expected %d", len(vals), len(acc)))
	}
	switch op {
	case ReduceSum:
		for i, v := range vals {
			acc[i] += v
		}
	case ReduceMax:
		for i, v := range vals {
			if v > acc[i] {
				acc[i] = v
			}
		}
	case ReduceMin:
		for i, v := range vals {
			if v < acc[i] {
				acc[i] = v
			}
		}
	}
	return acc
}

// Config configures a Runtime.
type Config struct {
	// PEs is the initial number of processing elements. Must be >= 1.
	PEs int
	// Store is the shared-memory checkpoint store. If nil a private
	// unlimited store is created.
	Store *shm.Store
	// RescaleLB is the strategy used at shrink/expand time. Defaults to
	// GreedyLB, matching Charm++ practice when every object moves anyway.
	RescaleLB lb.Strategy
	// RunLB is the strategy for in-run Balance() calls. Defaults to
	// RefineLB (minimize migrations).
	RunLB lb.Strategy
	// RestartLatency models the out-of-process restart cost (mpirun +
	// MPI_Init) that the in-process goroutine restart does not pay.
	// Defaults to DefaultRestartLatency; set to ZeroRestartLatency to
	// measure only the real in-process work.
	RestartLatency func(pes int) time.Duration
}

// DefaultRestartLatency models MPI startup cost: a fixed mpirun launch cost
// plus a per-rank connection-establishment term. Calibrated so the Figure 5
// curves have the paper's shape (restart grows with ranks and dominates
// small-problem rescales).
func DefaultRestartLatency(pes int) time.Duration {
	return 100*time.Millisecond + time.Duration(pes)*12*time.Millisecond
}

// ZeroRestartLatency disables the modelled restart cost.
func ZeroRestartLatency(int) time.Duration { return 0 }

// RescaleStats records the duration of each rescaling phase (paper §4.2).
type RescaleStats struct {
	Op              string // "shrink" or "expand"
	OldPEs, NewPEs  int
	LoadBalance     time.Duration
	Checkpoint      time.Duration
	Restart         time.Duration
	Restore         time.Duration
	Total           time.Duration
	CheckpointBytes int64
	Migrations      int
}

// String formats the stats like the paper's Figure 5 series.
func (s RescaleStats) String() string {
	return fmt.Sprintf("%s %d->%d lb=%v ckpt=%v restart=%v restore=%v total=%v bytes=%d",
		s.Op, s.OldPEs, s.NewPEs, s.LoadBalance, s.Checkpoint, s.Restart, s.Restore, s.Total, s.CheckpointBytes)
}
