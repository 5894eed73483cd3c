package sim

// Ledger mirrors the accumulator layout the spec table pins: a run total and
// its open sub for two of the sums, plus a window bound the table leaves out.
type Ledger struct {
	utilArea, utilSub float64
	wSum, finWSub     float64
	lastEnd           float64
}

// Use feeds an open sub-accumulator: allowed in ledger.go.
func (l *Ledger) Use(area float64) { l.utilSub += area }

// seal folds the subs into the totals and resets them: allowed in ledger.go.
func (l *Ledger) seal() {
	l.utilArea += l.utilSub
	l.wSum += l.finWSub
	l.utilSub, l.finWSub = 0, 0
}
