package operator

import (
	"reflect"
	"strings"
	"testing"

	"elastichpc/internal/k8s"
)

// TestJobNamesMatchTheNameFunctions holds the name table to the one spelling
// of each name format: every name it cuts equals LauncherName's, NodelistName's
// or WorkerName's byte for byte, for ordinals 0–64 and for a job whose own
// name carries the worker infix; workerIndex parses every worker name back to
// its ordinal, and past the table worker falls back to WorkerName. The table
// is presized, so it costs its string, its worker slice and its three label
// maps, two allocations each, and nothing more, whether its ordinals have one
// digit, two or three: 8. Reconcile and writeNodelist build no labels of
// their own; the table's are all a job's objects carry.
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
		if allocs := testing.AllocsPerRun(10, func() { newJobNames("job-w03-17", n) }); allocs != 8 {
			t.Errorf("a table of %d workers allocates %v times, want 8", n, allocs)
		}
	}
}

// runningNodelist is the reference nodelist: the names of the Running
// workers below ordinal desired, in ordinal order, read from the job's pods.
// The controller built every nodelist this way, and joined it with
// strings.Join for the ConfigMap, before it cut both from the name table.
func runningNodelist(workers []k8s.OwnedPod, desired int) []string {
	hosts := make([]string, 0, desired)
	for _, w := range workers {
		if w.Ordinal < desired && w.Pod.Status.Phase == k8s.PodRunning {
			hosts = append(hosts, w.Pod.Name)
		}
	}
	return hosts
}

// TestNodelistMatchesRunningWorkers holds the name table's nodelist of
// workers 0 to d-1 to runningNodelist over a job whose workers 0 to n+1 all
// run — what the controller has read when it writes one — and its text to
// the reference joined with newlines, for d = 0 to n+2: inside the table,
// where both are cut from it without an allocation and the list is capped,
// and past it, where they are built. Job names carrying the worker infix
// are included.
func TestNodelistMatchesRunningWorkers(t *testing.T) {
	for _, job := range []string{"j1", "job-w03-17", "a-worker-3", "x-worker-"} {
		for _, n := range []int{0, 1, 9, 10, 11, 64} {
			names := newJobNames(job, n)
			workers := make([]k8s.OwnedPod, n+2)
			for i := range workers {
				pod := &k8s.Pod{ObjectMeta: k8s.ObjectMeta{Name: WorkerName(job, i)}}
				pod.Status.Phase = k8s.PodRunning
				workers[i] = k8s.OwnedPod{Ordinal: i, Pod: pod}
			}
			for d := 0; d <= n+2; d++ {
				want := runningNodelist(workers, d)
				list, text := names.hosts(job, d)
				if !reflect.DeepEqual(list, want) {
					t.Fatalf("job %q, %d names, %d workers: nodelist %q, reference %q", job, n, d, list, want)
				}
				if text != strings.Join(want, "\n") {
					t.Fatalf("job %q, %d names, %d workers: text %q, reference %q", job, n, d, text, strings.Join(want, "\n"))
				}
				if d > n {
					continue
				}
				if cap(list) != d {
					t.Errorf("job %q, %d names, %d workers: the list's capacity is %d, so an append writes into the table", job, n, d, cap(list))
				}
				if allocs := testing.AllocsPerRun(10, func() { names.hosts(job, d) }); allocs != 0 {
					t.Errorf("job %q, %d names, %d workers: a nodelist within the table allocates %v times", job, n, d, allocs)
				}
			}
		}
	}
}
