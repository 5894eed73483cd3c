// Package metrics defines the versioned, machine-readable experiment-report
// schema every harness emits: the discrete-event simulator's runs and
// sweeps (internal/sim), the full-stack cluster emulation
// (internal/cluster), and the timed cells of the charm-runtime benchmarks
// (cmd/charmbench). One schema means one artifact format every CLI's -json
// writes, and reports that remain parseable as the repo evolves. (The CI
// regression gate does not read it: bench/ keeps its own JSON-lines records,
// see scripts/bench-gate.sh.)
//
// The Schema field is bumped on schema growth and checked on every Read:
// writers always emit the current generation (SchemaVersion), readers
// accept everything back to MinReadableSchema — v2 added the resilience
// aggregates to Run as a strict superset of v1, so v1 artifacts keep
// loading — and newer generations are rejected rather than misinterpreted.
package metrics
