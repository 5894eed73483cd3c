// Package shm emulates the Linux shared-memory segment store that Charm++
// uses for in-memory checkpointing during shrink/expand. The paper mounts a
// memory-backed emptyDir at /dev/shm in each pod; here the equivalent is an
// in-process keyed byte store with per-segment and per-store size accounting,
// plus an optional capacity limit mirroring the pod's shm size limit.
//
// Segments survive runtime restarts (the store outlives runtime incarnations)
// which is exactly the property checkpoint/restart rescaling relies on.
package shm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNotFound is returned when a requested segment does not exist.
var ErrNotFound = errors.New("shm: segment not found")

// ErrNoSpace is returned when writing a segment would exceed the store limit.
var ErrNoSpace = errors.New("shm: store capacity exceeded")

// Store is a thread-safe in-memory segment store. The zero value is NOT
// usable; call NewStore.
type Store struct {
	mu       sync.RWMutex
	limit    int64 // 0 means unlimited
	used     int64
	segments map[string][]byte
}

// NewStore returns an empty store. limit is the maximum total bytes the store
// may hold (0 = unlimited), mirroring a pod's /dev/shm size.
func NewStore(limit int64) *Store {
	return &Store{limit: limit, segments: make(map[string][]byte)}
}

// Write stores data under key, replacing any previous segment. The data is
// copied. Returns ErrNoSpace if the store limit would be exceeded.
func (s *Store) Write(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := int64(len(s.segments[key]))
	next := s.used - old + int64(len(data))
	if s.limit > 0 && next > s.limit {
		return fmt.Errorf("%w: writing %q (%d bytes) would use %d of %d",
			ErrNoSpace, key, len(data), next, s.limit)
	}
	s.segments[key] = append([]byte(nil), data...)
	s.used = next
	return nil
}

// Read returns a copy of the segment stored under key.
func (s *Store) Read(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.segments[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return append([]byte(nil), data...), nil
}

// Delete removes the segment stored under key. Deleting a missing key is a
// no-op, matching shm_unlink semantics for our purposes.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.used -= int64(len(s.segments[key]))
	delete(s.segments, key)
}

// DeletePrefix removes every segment whose key begins with prefix and
// reports how many were removed. Used to clear a checkpoint generation.
func (s *Store) DeletePrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, v := range s.segments {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			s.used -= int64(len(v))
			delete(s.segments, k)
			n++
		}
	}
	return n
}

// KeysPrefix returns the sorted keys that begin with prefix.
func (s *Store) KeysPrefix(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.segments {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Used reports the total bytes currently stored.
func (s *Store) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Len reports the number of segments.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.segments)
}
