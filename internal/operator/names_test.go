package operator

import "testing"

// TestJobNamesMatchTheNameFunctions holds the name table to the one spelling
// of each name format: every name it cuts equals LauncherName's, NodelistName's
// or WorkerName's byte for byte, for ordinals 0–64 and for a job whose own
// name carries the worker infix; workerIndex parses every worker name back to
// its ordinal, and past the table worker falls back to WorkerName. The table
// is presized, so it costs its string and its worker slice and nothing more,
// whether its ordinals have one digit, two or three.
func TestJobNamesMatchTheNameFunctions(t *testing.T) {
	for _, job := range []string{"j1", "job-w03-17", "a-worker-3", "x-worker-"} {
		names := newJobNames(job, 65)
		if names.launcher != LauncherName(job) || names.nodelist != NodelistName(job) {
			t.Errorf("job %q: table launcher %q and nodelist %q, want %q and %q",
				job, names.launcher, names.nodelist, LauncherName(job), NodelistName(job))
		}
		for i := 0; i <= 65; i++ {
			name := names.worker(job, i)
			if name != WorkerName(job, i) {
				t.Errorf("job %q: worker %d is %q, want %q", job, i, name, WorkerName(job, i))
			}
			if got := workerIndex(job, name); got != i {
				t.Errorf("job %q: workerIndex(%q) = %d, want %d", job, name, got, i)
			}
		}
	}
	for _, n := range []int{1, 9, 10, 11, 64, 99, 100, 101, 1000} {
		if allocs := testing.AllocsPerRun(10, func() { newJobNames("job-w03-17", n) }); allocs != 2 {
			t.Errorf("a table of %d workers allocates %v times, want 2", n, allocs)
		}
	}
}
