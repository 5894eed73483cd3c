package k8s

// Stats returns the store's counters so far.
func (s *Store) Stats() StoreStats { return s.stats }

// Get fetches a private copy of the object, reporting whether it exists: the
// entry to the Get-change-Update bodies index_test.go holds Modify, Bind and
// SetPodStatus to.
func (s *Store) Get(kind Kind, key string) (Object, bool) {
	obj, ok := s.View(kind, key)
	if !ok {
		return nil, false
	}
	return s.copyOf(obj), true
}
