// pkgpath: elastichpc/internal/sim

// Package sim exercises sealedfloat with a fixture Ledger carrying the real
// accumulator field names: only ledger.go may write them, and the simulator
// that embeds the ledger feeds it through its methods.
package sim

// Simulator embeds its ledger by value, as the real one does.
type Simulator struct {
	ledger Ledger
	jobs   int
}

// advance goes through the ledger's method: not flagged.
func (s *Simulator) advance(d float64) {
	s.ledger.Use(d)
	s.jobs++
}

// badFeed adds a term to a sub straight from the event loop: flagged even
// though the sum it feeds is the right one.
func (s *Simulator) badFeed(d float64) {
	s.ledger.utilSub += d // want "writes are allowed only in ledger.go"
}
