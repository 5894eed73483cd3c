// pkgpath: elastichpc/internal/charm

// Package outofscope shows a package outside the simulated-clock contract
// may read real time: the Charm++ runtime measures the work its PEs really
// do to balance their load.
package outofscope

import "time"

// elapsed times a real operation.
func elapsed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
