// Package lb implements measurement-based load balancing in the style of
// Charm++'s load balancing framework. The runtime records per-chare wall time
// into a Database; Greedy computes a new chare→PE assignment from it.
//
// The assignment respects the set of available PEs: during a shrink the
// runtime marks the PEs being removed as unavailable, so every object moves
// off them (paper §2.2).
package lb

import (
	"fmt"
	"sort"
)

// ObjID identifies a migratable object (array ID + element index).
type ObjID struct {
	Array int
	Index int
}

// ObjLoad is one object's measured load and current placement.
type ObjLoad struct {
	ID   ObjID
	PE   int
	Load float64 // measured wall seconds since the last LB step
}

// Database holds the instrumentation snapshot handed to a strategy.
type Database struct {
	// Objs lists every migratable object with its measured load.
	Objs []ObjLoad
	// NumPEs is the number of PEs in the current incarnation.
	NumPEs int
	// Available[pe] reports whether objects may be assigned to pe. A
	// shrink marks doomed PEs unavailable.
	Available []bool
	// Background[pe] is non-migratable load on pe (e.g. runtime overhead).
	Background []float64
}

// NewDatabase returns a database for n PEs with all PEs available.
func NewDatabase(n int) *Database {
	av := make([]bool, n)
	for i := range av {
		av[i] = true
	}
	return &Database{NumPEs: n, Available: av, Background: make([]float64, n)}
}

// AvailablePEs returns the indices of available PEs in increasing order.
func (db *Database) AvailablePEs() []int {
	var pes []int
	for i, ok := range db.Available {
		if ok {
			pes = append(pes, i)
		}
	}
	return pes
}

// Validate checks internal consistency.
func (db *Database) Validate() error {
	if db.NumPEs <= 0 {
		return fmt.Errorf("lb: database has %d PEs", db.NumPEs)
	}
	if len(db.Available) != db.NumPEs {
		return fmt.Errorf("lb: available mask has %d entries for %d PEs", len(db.Available), db.NumPEs)
	}
	if len(db.AvailablePEs()) == 0 {
		return fmt.Errorf("lb: no PEs available")
	}
	for _, o := range db.Objs {
		if o.PE < 0 || o.PE >= db.NumPEs {
			return fmt.Errorf("lb: object %v on out-of-range PE %d", o.ID, o.PE)
		}
		if o.Load < 0 {
			return fmt.Errorf("lb: object %v has negative load %g", o.ID, o.Load)
		}
	}
	return nil
}

// Assignment maps each object to its destination PE.
type Assignment map[ObjID]int

// Greedy implements GreedyLB and returns an assignment covering every object
// in db, onto available PEs only: sort objects by decreasing load and
// repeatedly place the heaviest object on the least-loaded available PE. This
// ignores current placement, so it achieves near-optimal balance at the cost
// of many migrations — the strategy Charm++ uses at rescale time, when every
// object moves anyway because the runtime restarts.
func Greedy(db *Database) (Assignment, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	avail := db.AvailablePEs()
	objs := append([]ObjLoad(nil), db.Objs...)
	sort.SliceStable(objs, func(i, j int) bool { return objs[i].Load > objs[j].Load })
	loads := make(map[int]float64, len(avail))
	for _, pe := range avail {
		loads[pe] = db.Background[pe]
	}
	out := make(Assignment, len(objs))
	for _, o := range objs {
		best := avail[0]
		for _, pe := range avail[1:] {
			if loads[pe] < loads[best] {
				best = pe
			}
		}
		out[o.ID] = best
		loads[best] += o.Load
	}
	return out, nil
}
