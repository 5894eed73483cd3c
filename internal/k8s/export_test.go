package k8s

// Stats returns the store's counters so far.
func (s *Store) Stats() StoreStats { return s.stats }
