// Package operator implements the paper's Kubernetes operator for Charm++
// jobs (§3.1): a CharmJob custom resource extending the MPI Operator's job
// with minReplicas/maxReplicas/priority fields (§3.2.1), and a controller
// that launches launcher+worker pods, maintains the nodelist the Charm++
// runtime uses to connect to workers, and drives the shrink/expand protocol:
//
//	shrink: signal the application over CCS → await the acknowledgment →
//	        remove the extra pods;
//	expand: add new pods → update the nodelist → signal the application.
//
// The package also provides Manager, which embeds the elastic scheduling
// policy (internal/core) into the operator the way the paper integrates its
// scheduler, actuating policy decisions by mutating CharmJob specs.
package operator

import (
	"fmt"
	"maps"
	"strconv"
	"strings"

	"elastichpc/internal/k8s"
)

// JobPhase is a CharmJob's lifecycle phase.
type JobPhase string

// CharmJob phases.
const (
	JobPending   JobPhase = "Pending"   // created, pods not all running
	JobRunning   JobPhase = "Running"   // application launched
	JobRescaling JobPhase = "Rescaling" // shrink/expand in flight
	JobSucceeded JobPhase = "Succeeded"
	// JobPreempted marks a job checkpoint-stopped by a forced capacity
	// reclaim (node loss, spot preemption). The controller leaves it
	// alone until the policy scheduler restarts it, which resets the
	// phase to Pending.
	JobPreempted JobPhase = "Preempted"
)

// CharmJobSpec is the desired state. Replicas is the knob the elastic
// scheduler turns; the paper's operator rescales a job "when the deployment
// YAML file is modified".
type CharmJobSpec struct {
	// MinReplicas and MaxReplicas bound the malleable allocation (§3.2.1).
	MinReplicas int
	MaxReplicas int
	// Priority is the user-defined priority; larger is more important.
	Priority int
	// Replicas is the desired worker count, maintained by the scheduler.
	Replicas int
	// CPUPerWorker is the vCPU request per worker pod (1 in the paper's
	// non-SMP, one-PE-per-worker configuration).
	CPUPerWorker int
	// ShmBytes sizes the memory-backed emptyDir mounted at /dev/shm.
	ShmBytes int64
	// Workload describes what the job computes; the emulation uses it to
	// model runtime (grid size and iteration count for Jacobi2D).
	Workload WorkloadSpec
	// CheckpointPeriod enables fault tolerance (paper §3.2.2): the
	// application checkpoints every CheckpointPeriod iterations, and the
	// controller relaunches a failed job from its last checkpoint ("the
	// extra restart parameter"). 0 restarts failed jobs from scratch.
	CheckpointPeriod int
}

// WorkloadSpec describes the application the job runs.
type WorkloadSpec struct {
	Grid  int
	Steps int
}

// CharmJobStatus is the observed state.
type CharmJobStatus struct {
	Phase JobPhase
	// ReadyReplicas is the number of Running worker pods.
	ReadyReplicas int
	// LaunchedReplicas is the worker count the application currently runs
	// with (updated after each completed rescale). The workers it runs on
	// are listed in the job's nodelist ConfigMap (NodelistName).
	LaunchedReplicas int
	// Rescales counts completed shrink/expand operations.
	Rescales int
	// Restarts counts failure-triggered relaunches (§3.2.2 fault
	// tolerance).
	Restarts int
	// Preemptions counts forced checkpoint-stops from capacity reclaims.
	Preemptions int
}

// CharmJob is the custom resource.
type CharmJob struct {
	k8s.ObjectMeta
	Spec   CharmJobSpec
	Status CharmJobStatus
}

// Meta implements k8s.Object.
func (j *CharmJob) Meta() *k8s.ObjectMeta { return &j.ObjectMeta }

// Kind implements k8s.Object.
func (j *CharmJob) Kind() k8s.Kind { return k8s.KindCharmJob }

// DeepCopy implements k8s.Object.
func (j *CharmJob) DeepCopy() k8s.Object {
	cp := *j
	cp.Labels = maps.Clone(j.Labels)
	return &cp
}

// Validate checks the spec.
func (j *CharmJob) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("operator: job has no name")
	}
	if j.Spec.MinReplicas < 1 || j.Spec.MaxReplicas < j.Spec.MinReplicas {
		return fmt.Errorf("operator: job %s: bad replica bounds [%d,%d]",
			j.Name, j.Spec.MinReplicas, j.Spec.MaxReplicas)
	}
	if j.Spec.CPUPerWorker < 1 {
		return fmt.Errorf("operator: job %s: cpuPerWorker %d", j.Name, j.Spec.CPUPerWorker)
	}
	if j.Spec.CheckpointPeriod < 0 {
		return fmt.Errorf("operator: job %s: checkpointPeriod %d (0 = restart from scratch)",
			j.Name, j.Spec.CheckpointPeriod)
	}
	return nil
}

// workerInfix joins a job's name to a worker's ordinal: the one spelling of
// the worker name format, which WorkerName, the name table and workerIndex
// share.
const workerInfix = "-worker-"

// WorkerName returns the name of worker pod i for the job.
func WorkerName(job string, i int) string { return job + workerInfix + strconv.Itoa(i) }

// LauncherName returns the job's launcher pod name.
func LauncherName(job string) string { return job + "-launcher" }

// NodelistName returns the job's nodelist ConfigMap name.
func NodelistName(job string) string { return job + "-nodelist" }

// jobNames is a job's name table: the names of its launcher, its nodelist
// and its workers 0 to len(workers)-1, all cut from one string. The worker
// names follow one another in it newline-separated; list is that run, the
// nodelist of every worker in the table.
type jobNames struct {
	launcher, nodelist string
	workers            []string
	list               string
}

// listLen is the length of the nodelist of a job's workers 0 to n-1: their
// names, newline-separated.
func listLen(job string, n int) int {
	if n <= 0 {
		return 0
	}
	size := n*(len(job)+len(workerInfix)+2) - 1 // a digit and a newline each, bar the last newline
	for p := 10; p < n; p *= 10 {
		size += n - p // the ordinals from p up carry another digit
	}
	return size
}

// newJobNames builds the name table of a job with n workers in one presized
// string: two allocations, that string and the worker slice. The launcher
// and nodelist names are LauncherName's and NodelistName's, built on the
// stack when they fit its 32-byte buffer; a worker's is WorkerName's format.
func newJobNames(job string, n int) jobNames {
	launcher, nodelist := LauncherName(job), NodelistName(job)
	var b strings.Builder
	b.Grow(len(launcher) + len(nodelist) + listLen(job, n))
	b.WriteString(launcher)
	b.WriteString(nodelist)
	// A string the builder handed out stays valid as it grows, so each name
	// is cut as soon as it is written.
	names := jobNames{
		launcher: b.String()[:len(launcher)],
		nodelist: b.String()[len(launcher):],
		workers:  make([]string, n),
	}
	start := b.Len()
	var digits [20]byte
	for i := range names.workers {
		if i > 0 {
			b.WriteByte('\n')
		}
		at := b.Len()
		b.WriteString(job)
		b.WriteString(workerInfix)
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		names.workers[i] = b.String()[at:]
	}
	names.list = b.String()[start:]
	return names
}

// worker returns worker i's name: the table's, or WorkerName's past its end.
// The store does not validate a CharmJob, so Spec.Replicas may exceed the
// table, which is sized for what the job may and the cluster can run.
func (n jobNames) worker(job string, i int) string {
	if i < len(n.workers) {
		return n.workers[i]
	}
	return WorkerName(job, i)
}

// hosts returns the nodelist of workers 0 to d-1: their names in ordinal
// order and the same names newline-separated, the text the launcher mounts.
// Within the table both are cut from it, and the slice is capped, so an
// append to it cannot write into the table; past its end they are built.
func (n jobNames) hosts(job string, d int) ([]string, string) {
	if d <= len(n.workers) {
		return n.workers[:d:d], n.list[:listLen(job, d)]
	}
	hosts := make([]string, d)
	for i := range hosts {
		hosts[i] = n.worker(job, i)
	}
	return hosts, strings.Join(hosts, "\n")
}

// AppRuntime is the controller's channel to the running Charm++ application
// — the CCS interface in the real system. Launch/Shrink/Expand block until
// the application acknowledges (the controller relies on the shrink ack
// before deleting pods). The cluster emulation implements this with the
// modelled application; examples implement it with a real charm.Runtime.
//
// A nodelist handed to Launch or Expand is a read-only view of the
// controller's name table for the job: it stays valid after the call, but
// an implementation must not write into it.
type AppRuntime interface {
	// Launch starts the application on the given worker nodelist.
	Launch(job *CharmJob, nodelist []string) error
	// Shrink asks the application to shrink to newReplicas and returns
	// after the acknowledgment.
	Shrink(job *CharmJob, newReplicas int) error
	// Expand asks the application to expand to newReplicas using the
	// updated nodelist.
	Expand(job *CharmJob, newReplicas int, nodelist []string) error
	// Stop tears the application down (job finished or cancelled).
	Stop(job *CharmJob)
}
