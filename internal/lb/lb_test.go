package lb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkDB(loads []float64, numPE int) *Database {
	db := NewDatabase(numPE)
	for i, l := range loads {
		db.Objs = append(db.Objs, ObjLoad{ID: ObjID{Array: 0, Index: i}, PE: i % numPE, Load: l})
	}
	return db
}

// maxLoad returns the heaviest per-PE load under assignment a, including
// background load.
func maxLoad(db *Database, a Assignment) float64 {
	loads := peLoads(db, a)
	var m float64
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}

// peLoads returns the per-PE load under assignment a, including background.
func peLoads(db *Database, a Assignment) []float64 {
	loads := append([]float64(nil), db.Background...)
	for _, o := range db.Objs {
		pe := o.PE
		if dst, ok := a[o.ID]; ok {
			pe = dst
		}
		loads[pe] += o.Load
	}
	return loads
}

// imbalance returns max/mean PE load over available PEs (1.0 = perfectly
// balanced). Returns 0 when there is no load.
func imbalance(db *Database, a Assignment) float64 {
	loads := peLoads(db, a)
	avail := db.AvailablePEs()
	var sum, max float64
	for _, pe := range avail {
		sum += loads[pe]
		if loads[pe] > max {
			max = loads[pe]
		}
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(avail))
	return max / mean
}

func TestGreedyBalances(t *testing.T) {
	db := mkDB([]float64{8, 1, 1, 1, 1, 1, 1, 1, 1}, 4)
	a, err := Greedy{}.Assign(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(db.Objs) {
		t.Fatalf("assignment covers %d of %d objects", len(a), len(db.Objs))
	}
	// Heaviest object must be alone-ish: its PE load should be exactly 8
	// because 8 >= sum of the rest (8 vs 8) and greedy places it first.
	loads := peLoads(db, a)
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	if max > 8 {
		t.Errorf("greedy max load = %g, want <= 8", max)
	}
}

func TestGreedyRespectsAvailability(t *testing.T) {
	db := mkDB([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	db.Available[3] = false
	a, err := Greedy{}.Assign(db)
	if err != nil {
		t.Fatal(err)
	}
	for id, pe := range a {
		if pe == 3 {
			t.Errorf("object %v assigned to unavailable PE 3", id)
		}
	}
}

func TestGreedyAccountsBackground(t *testing.T) {
	db := mkDB([]float64{1, 1, 1, 1}, 2)
	db.Background[0] = 100
	a, err := Greedy{}.Assign(db)
	if err != nil {
		t.Fatal(err)
	}
	for id, pe := range a {
		if pe == 0 {
			t.Errorf("object %v placed on PE with huge background load", id)
		}
	}
}

func TestRefineMovesOffUnavailable(t *testing.T) {
	db := mkDB([]float64{1, 1, 1, 1, 1, 1, 1, 1}, 4)
	db.Available[0] = false
	a, err := Refine{}.Assign(db)
	if err != nil {
		t.Fatal(err)
	}
	for id, pe := range a {
		if pe == 0 {
			t.Errorf("refine left object %v on unavailable PE", id)
		}
	}
}

func TestRefineImprovesImbalance(t *testing.T) {
	// Everything piled on PE 0.
	db := NewDatabase(4)
	for i := 0; i < 16; i++ {
		db.Objs = append(db.Objs, ObjLoad{ID: ObjID{Index: i}, PE: 0, Load: 1})
	}
	before := imbalance(db, nil)
	a, err := Refine{}.Assign(db)
	if err != nil {
		t.Fatal(err)
	}
	after := imbalance(db, a)
	if after >= before {
		t.Errorf("refine did not improve imbalance: %g -> %g", before, after)
	}
	if after > 1.3 {
		t.Errorf("refine imbalance %g too high", after)
	}
}

// migrations counts how many objects a moves relative to the database
// placement.
func migrations(a Assignment, db *Database) int {
	n := 0
	for _, o := range db.Objs {
		if dst, ok := a[o.ID]; ok && dst != o.PE {
			n++
		}
	}
	return n
}

func TestRefineMinimizesMigrations(t *testing.T) {
	// Already balanced: refine should move nothing, greedy may move a lot.
	db := mkDB([]float64{1, 1, 1, 1, 1, 1, 1, 1}, 4)
	a, err := Refine{}.Assign(db)
	if err != nil {
		t.Fatal(err)
	}
	if m := migrations(a, db); m != 0 {
		t.Errorf("refine migrated %d objects on a balanced system", m)
	}
}

func TestRotateRoundRobin(t *testing.T) {
	db := mkDB([]float64{5, 4, 3, 2, 1, 0.5}, 3)
	a, err := Rotate{}.Assign(db)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, pe := range a {
		counts[pe]++
	}
	for pe, c := range counts {
		if c != 2 {
			t.Errorf("rotate put %d objects on PE %d, want 2", c, pe)
		}
	}
}

func TestValidateRejectsBadDB(t *testing.T) {
	db := NewDatabase(2)
	db.Objs = append(db.Objs, ObjLoad{ID: ObjID{}, PE: 5, Load: 1})
	if err := db.Validate(); err == nil {
		t.Error("Validate accepted out-of-range PE")
	}
	db2 := NewDatabase(2)
	db2.Objs = append(db2.Objs, ObjLoad{ID: ObjID{}, PE: 0, Load: -1})
	if err := db2.Validate(); err == nil {
		t.Error("Validate accepted negative load")
	}
	db3 := NewDatabase(2)
	db3.Available[0] = false
	db3.Available[1] = false
	if err := db3.Validate(); err == nil {
		t.Error("Validate accepted zero available PEs")
	}
	var db4 Database
	if err := db4.Validate(); err == nil {
		t.Error("Validate accepted zero PEs")
	}
}

func TestImbalanceNoLoad(t *testing.T) {
	db := NewDatabase(4)
	if got := imbalance(db, nil); got != 0 {
		t.Errorf("imbalance with no load = %g, want 0", got)
	}
}

// Property: every strategy produces a complete assignment onto available PEs,
// and greedy's max load never exceeds twice the optimal lower bound
// (classic LPT-style guarantee, loose here).
func TestQuickStrategiesComplete(t *testing.T) {
	strategies := []Strategy{Greedy{}, Refine{}, Rotate{}}
	f := func(seed int64, nObj uint8, nPE uint8, nUnavail uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numPE := int(nPE%8) + 2
		numObj := int(nObj%32) + 1
		db := NewDatabase(numPE)
		for i := 0; i < numObj; i++ {
			db.Objs = append(db.Objs, ObjLoad{
				ID: ObjID{Index: i}, PE: rng.Intn(numPE), Load: rng.Float64() * 10,
			})
		}
		// Mark some PEs unavailable but keep at least one.
		unavail := int(nUnavail) % numPE
		for i := 0; i < unavail; i++ {
			db.Available[i] = false
		}
		for _, s := range strategies {
			a, err := s.Assign(db)
			if err != nil {
				return false
			}
			if len(a) != numObj {
				return false
			}
			for _, o := range db.Objs {
				pe, ok := a[o.ID]
				if !ok || !db.Available[pe] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: greedy achieves max load <= mean + heaviest object (standard
// greedy bound), over available PEs.
func TestQuickGreedyBound(t *testing.T) {
	f := func(seed int64, nObj uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numPE := 4
		numObj := int(nObj%64) + 4
		db := NewDatabase(numPE)
		var total, heaviest float64
		for i := 0; i < numObj; i++ {
			l := rng.Float64() * 5
			total += l
			if l > heaviest {
				heaviest = l
			}
			db.Objs = append(db.Objs, ObjLoad{ID: ObjID{Index: i}, PE: rng.Intn(numPE), Load: l})
		}
		a, err := Greedy{}.Assign(db)
		if err != nil {
			return false
		}
		mean := total / float64(numPE)
		return maxLoad(db, a) <= mean+heaviest+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
