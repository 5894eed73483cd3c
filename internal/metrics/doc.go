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
// writers emit the current generation (SchemaVersion), and a report of any
// other generation is rejected rather than misinterpreted.
package metrics
