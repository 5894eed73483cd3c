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
	// with (updated after each completed rescale).
	LaunchedReplicas int
	// Nodelist is the worker list handed to the Charm++ runtime.
	Nodelist []string
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
	cp.Status.Nodelist = append([]string(nil), j.Status.Nodelist...)
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

// WorkerName returns the name of worker pod i for the job.
func WorkerName(job string, i int) string { return job + "-worker-" + strconv.Itoa(i) }

// LauncherName returns the job's launcher pod name.
func LauncherName(job string) string { return job + "-launcher" }

// NodelistName returns the job's nodelist ConfigMap name.
func NodelistName(job string) string { return job + "-nodelist" }

// AppRuntime is the controller's channel to the running Charm++ application
// — the CCS interface in the real system. Launch/Shrink/Expand block until
// the application acknowledges (the controller relies on the shrink ack
// before deleting pods). The cluster emulation implements this with the
// modelled application; examples implement it with a real charm.Runtime.
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
