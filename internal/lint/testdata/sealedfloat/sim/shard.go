package sim

// reconcile is the bug class the analyzer exists for: a shard-path partial
// sum regroups the float fold and diverges from sequential by an ULP.
func (s *Simulator) reconcile(other *Simulator) {
	s.ledger.utilArea += other.ledger.utilArea // want "Ledger.utilArea is an order-sensitive accumulator"
	s.ledger.wSum++                            // want "order-sensitive accumulator"
	if other.ledger.lastEnd > s.ledger.lastEnd {
		s.ledger.lastEnd = other.ledger.lastEnd // a max is exact under any grouping: not flagged
	}
	s.jobs += other.jobs // ints merge exactly: not flagged
}

// adopt copies a whole ledger, which regroups nothing: not flagged.
func (s *Simulator) adopt(other *Simulator) { s.ledger = other.ledger }

// reset shows plain stores are fenced too: a reset outside ledger.go
// desynchronizes the seal positions.
func (s *Simulator) reset() {
	s.ledger.utilSub = 0 // want "seal-fold discipline"
}
