// Package elastichpc is a from-scratch reproduction of "An elastic job
// scheduler for HPC applications on the cloud" (Bhosale, Chandrasekar, Kale,
// Kokkila-Schumacher — SC Workshops '25, arXiv:2510.15147).
//
// It provides the pieces below. The module has no external consumers, so
// each lives under internal/ and is imported by its own name — by the CLIs
// under cmd/, the walkthroughs under examples/ and the benchmark under
// bench/ alike:
//
//   - a Charm++-style message-driven runtime with migratable objects,
//     measurement-based load balancing, and checkpoint/restart shrink-expand
//     (internal/charm), controllable over a CCS-style socket protocol
//     (internal/ccs);
//   - the paper's two evaluation applications, Jacobi2D and LeanMD, built on
//     that runtime (internal/apps);
//   - a Kubernetes substrate (object store with watches, affinity-scoring
//     pod scheduler, kubelet, controller framework — internal/k8s) and a
//     Charm operator with the CharmJob CRD and the §3.1 rescale protocol
//     (internal/operator);
//   - the priority-based elastic scheduling policy of Figures 2–3 plus the
//     rigid-min / rigid-max / moldable baselines (internal/core);
//   - a discrete-event scheduling simulator with calibrated performance
//     models (internal/sim, internal/model) and a full-stack deterministic
//     cluster emulation on a virtual clock (internal/cluster); the simulator
//     pools its events and job records, indexes the scheduler's wait queue,
//     and offers a streaming result mode that sustains million-job
//     workloads in O(running jobs) memory;
//   - a workload-scenario engine (internal/workload) whose generators —
//     uniform, Poisson, bursty, diurnal, and trace replay — feed both the
//     simulator and the emulation, with parallel sweep harnesses over
//     scenarios, policies, and seeds;
//   - a cluster-availability engine (same package) whose capacity profiles —
//     node failure/repair, spot preemption, maintenance drains, diurnal
//     capacity tides, and trace replay — drive time-varying capacity through
//     both backends via core.Scheduler.SetCapacity, with resilience metrics
//     (goodput, work lost, preemptions survived by shrinking vs. requeued)
//     and an availability sweep axis;
//   - a federated multi-cluster meta-scheduler (internal/federation) that
//     routes one workload stream across N pluggable member clusters
//     (simulator- or emulation-backed) — round-robin, least-loaded over
//     per-member machines, availability traces, and an M/G/1 delay term,
//     priority-aware, or random-seeded — runs the members concurrently with
//     results bit-identical to sequential execution, optionally rebalances
//     the fleet in periodic rounds that checkpoint-migrate jobs off
//     backlogged or draining members, and aggregates exact fleet-wide
//     metrics (utilization over summed delivered capacity, weighted
//     response/completion, imbalance) plus the migration log;
//   - a versioned, machine-readable experiment-report schema
//     (internal/metrics) that every harness CLI emits via -json.
//
// This package exports nothing; it holds the repository-wide tests (the
// documents name what exists, no export goes uncalled, the examples run).
package elastichpc
