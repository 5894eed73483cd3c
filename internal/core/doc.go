// Package core implements the paper's primary contribution: a priority-based
// elastic job scheduling policy for malleable HPC jobs (paper §3.2, Figures
// 2 and 3), plus the three baseline policies it is evaluated against
// (rigid-min, rigid-max, moldable — paper §4.3).
//
// The scheduler is clock- and substrate-agnostic: it tracks slot accounting
// itself and drives an Actuator interface, so the same policy code runs
// inside the discrete-event simulator (internal/sim) and inside the
// Kubernetes operator (internal/operator) — mirroring how the paper's
// simulator and EKS deployment share one policy.
//
// Beyond the paper's fixed-capacity model, the scheduler supports a
// time-varying cluster: SetCapacity applies availability events (node
// failures and repairs, spot preemptions, maintenance drains, capacity
// bursts) and Preempt reclaims slots on demand. Forced reclaims shrink
// victims to their policy minimum in increasing priority order and
// checkpoint-requeue jobs that cannot shrink, bypassing the rescale-gap and
// cost/benefit gates that voluntary rescales respect — the hardware is
// already gone. CapacityStats counts how losses were absorbed.
//
// Invariant maintained across every operation: the sum of running jobs'
// replicas (plus per-job overhead slots) and the free-slot count equals the
// current capacity.
//
// The scheduler is incremental: redistribution passes early-out when no
// slot, queue, or capacity state changed since the last completed pass (and
// no blocking rescale gap has expired), the wait queue is one heap per
// distinct slot need so a rescale-gap kick touches only the waiting jobs that
// can act (nothing at all when the free-plus-freeable budget cannot place
// even the smallest waiting job), and priority/gap comparisons run on cached
// integer keys. The early-outs are
// decision-transparent — Config.FullRedistribute disables them, and the
// equivalence tests pin incremental ≡ full across policies and workloads.
// docs/ARCHITECTURE.md lists the invariants.
//
// The decision log (Config.EnableLog, Scheduler.Log) is an audit trail of
// effects; a waiting job that a pass examines and puts back is not one. So
// the scheduler takes one path whether or not anyone is watching: record and
// recordCapacity are the only readers of EnableLog.
package core
