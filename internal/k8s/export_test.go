package k8s

// setPhase moves the pod a view shows to the phase. The view must be of
// the pod stored now.
func setPhase(store *Store, view *Pod, phase PodPhase) bool {
	status := view.Status
	status.Phase = phase
	return store.SetPodStatus(view.handle, status) == nil
}

// Len reports queued keys.
func (q *Workqueue) Len() int { return q.order.len() }

// Stats returns the store's counters so far.
func (s *Store) Stats() StoreStats { return s.stats }

// Get fetches a private copy of the object, reporting whether it exists: the
// entry to the Get-change-Update bodies index_test.go holds Modify, Bind and
// SetPodStatus to.
func (s *Store) Get(kind Kind, key string) (Object, bool) {
	obj, ok := s.View(kind, s.Lookup(key))
	if !ok {
		return nil, false
	}
	s.stats.Copied++
	return obj.DeepCopy(), true
}
