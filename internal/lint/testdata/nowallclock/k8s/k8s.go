// pkgpath: elastichpc/internal/k8s

// Package k8s shows the Kubernetes emulation is under the simulated-clock
// contract: its time comes from the event loop's virtual clock, so a
// wall-clock read is flagged.
package k8s

import "time"

// created stamps an object with real time: flagged.
func created() time.Time {
	return time.Now() // want "reads the wall clock"
}
