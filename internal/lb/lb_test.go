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
	a, err := Greedy(db)
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
	a, err := Greedy(db)
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
	a, err := Greedy(db)
	if err != nil {
		t.Fatal(err)
	}
	for id, pe := range a {
		if pe == 0 {
			t.Errorf("object %v placed on PE with huge background load", id)
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

// Property: Greedy produces a complete assignment onto available PEs.
func TestQuickStrategiesComplete(t *testing.T) {
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
		a, err := Greedy(db)
		if err != nil || len(a) != numObj {
			return false
		}
		for _, o := range db.Objs {
			pe, ok := a[o.ID]
			if !ok || !db.Available[pe] {
				return false
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
		a, err := Greedy(db)
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
