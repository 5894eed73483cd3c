// Package lb implements measurement-based load balancing strategies in the
// style of Charm++'s load balancing framework. The runtime records per-chare
// wall time into a Database; a Strategy computes a new chare→PE assignment.
//
// Strategies must respect the set of available PEs: during a shrink the
// runtime marks the PEs being removed as unavailable, so the strategy moves
// every object off them (paper §2.2).
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

// Strategy computes a new assignment from a load database.
type Strategy interface {
	// Assign returns a full assignment covering every object in db. It
	// must only assign objects to available PEs.
	Assign(db *Database) (Assignment, error)
}

// Greedy implements GreedyLB: sort objects by decreasing load and repeatedly
// place the heaviest object on the least-loaded available PE. This ignores
// current placement, so it achieves near-optimal balance at the cost of many
// migrations — the strategy Charm++ uses at rescale time, when every object
// moves anyway because the runtime restarts.
type Greedy struct{}

// Assign implements Strategy.
func (Greedy) Assign(db *Database) (Assignment, error) {
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

// Refine implements RefineLB: keep current placement and migrate objects off
// overloaded PEs onto underloaded ones until every PE is within tolerance of
// the mean. It minimizes migrations, which suits periodic in-run rebalancing.
type Refine struct{}

// refineTolerance is the max/mean load overshoot Refine allows.
const refineTolerance = 1.05

// Assign implements Strategy.
func (Refine) Assign(db *Database) (Assignment, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	avail := db.AvailablePEs()
	availSet := make(map[int]bool, len(avail))
	for _, pe := range avail {
		availSet[pe] = true
	}

	out := make(Assignment, len(db.Objs))
	loads := make(map[int]float64, len(avail))
	for _, pe := range avail {
		loads[pe] = db.Background[pe]
	}
	// Objects on unavailable PEs must move; seed them via greedy placement
	// onto the least-loaded PE. Objects on available PEs stay put initially.
	perPE := make(map[int][]ObjLoad)
	var displaced []ObjLoad
	for _, o := range db.Objs {
		if availSet[o.PE] {
			out[o.ID] = o.PE
			loads[o.PE] += o.Load
			perPE[o.PE] = append(perPE[o.PE], o)
		} else {
			displaced = append(displaced, o)
		}
	}
	sort.SliceStable(displaced, func(i, j int) bool { return displaced[i].Load > displaced[j].Load })
	for _, o := range displaced {
		best := avail[0]
		for _, pe := range avail[1:] {
			if loads[pe] < loads[best] {
				best = pe
			}
		}
		out[o.ID] = best
		loads[best] += o.Load
		perPE[best] = append(perPE[best], ObjLoad{ID: o.ID, PE: best, Load: o.Load})
	}

	var total float64
	for _, pe := range avail {
		total += loads[pe]
	}
	mean := total / float64(len(avail))
	if mean == 0 {
		return out, nil
	}
	threshold := mean * refineTolerance

	// Iteratively move the best-fitting object from the most loaded PE to
	// the least loaded PE. Bounded by the object count to guarantee
	// termination.
	for iter := 0; iter < len(db.Objs)+1; iter++ {
		hi, lo := avail[0], avail[0]
		for _, pe := range avail[1:] {
			if loads[pe] > loads[hi] {
				hi = pe
			}
			if loads[pe] < loads[lo] {
				lo = pe
			}
		}
		if loads[hi] <= threshold || hi == lo {
			break
		}
		// Pick the largest object on hi that fits under the threshold
		// at lo without re-overloading it.
		gap := loads[hi] - loads[lo]
		bestIdx := -1
		var bestLoad float64
		for i, o := range perPE[hi] {
			if o.Load < gap && o.Load > bestLoad {
				bestIdx, bestLoad = i, o.Load
			}
		}
		if bestIdx < 0 {
			break
		}
		o := perPE[hi][bestIdx]
		perPE[hi] = append(perPE[hi][:bestIdx], perPE[hi][bestIdx+1:]...)
		perPE[lo] = append(perPE[lo], ObjLoad{ID: o.ID, PE: lo, Load: o.Load})
		out[o.ID] = lo
		loads[hi] -= o.Load
		loads[lo] += o.Load
	}
	return out, nil
}

// Rotate assigns objects round-robin across available PEs regardless of
// load. It is a deliberately naive baseline used in ablation benches.
type Rotate struct{}

// Assign implements Strategy.
func (Rotate) Assign(db *Database) (Assignment, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	avail := db.AvailablePEs()
	out := make(Assignment, len(db.Objs))
	objs := append([]ObjLoad(nil), db.Objs...)
	sort.SliceStable(objs, func(i, j int) bool {
		if objs[i].ID.Array != objs[j].ID.Array {
			return objs[i].ID.Array < objs[j].ID.Array
		}
		return objs[i].ID.Index < objs[j].ID.Index
	})
	for i, o := range objs {
		out[o.ID] = avail[i%len(avail)]
	}
	return out, nil
}
