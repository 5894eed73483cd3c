package cluster

import (
	"testing"

	"elastichpc/internal/core"
	"elastichpc/internal/k8s"
	"elastichpc/internal/sim"
)

// TestStoreCountersTable1Elastic pins the API store's counters for the Table
// 1 workload under the elastic policy. They are a pure function of the run,
// so "reads stopped copying" is gated by a count that repeats on any host
// rather than by wall time. The 664 scans look at 7,413 objects and copy
// none: every copy left is a write's stored copy (1,524 less the deletes) or
// a Get. When every scan listed and deep-copied its whole kind, the same run
// made 3,169 lists and 134,263 copies.
func TestStoreCountersTable1Elastic(t *testing.T) {
	c, err := New(DefaultConfig(core.Elastic))
	if err != nil {
		t.Fatal(err)
	}
	w := sim.Table1Workload()
	c.SubmitWorkload(w)
	if err := c.Run(len(w.Jobs), 10_000_000); err != nil {
		t.Fatal(err)
	}
	want := k8s.StoreStats{Writes: 1524, Scans: 664, Visited: 7413, Copied: 2180}
	if got := c.Store.Stats(); got != want {
		t.Errorf("store counters = %+v, want %+v", got, want)
	}
}
