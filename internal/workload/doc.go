// Package workload is the scenario engine shared by every execution
// backend: the discrete-event simulator (internal/sim), the full-stack
// cluster emulation (internal/cluster), and the cmd tools all consume the
// same Workload and AvailabilityTrace values, so one scenario definition
// can be generated once and replayed across harnesses.
//
// # Job scenarios
//
// The paper's evaluation (§4.3) uses a single workload shape — n jobs drawn
// uniformly from four size classes at a fixed submission gap; this package
// keeps that as the Uniform baseline and adds richer arrival processes
// (Poisson, flash-crowd bursts, diurnal cycles) plus trace replay: a
// workload saved to a CSV trace file loads back exactly, for reproducible
// experiments.
//
// # Trace encoding and decoding
//
// A generator builds its workload in one pass: the job slice is sized up
// front, the class mix is resolved once, and every job ID is appended to one
// buffer sized for all of them, each ID a substring of it. The savers write
// each row from one reused buffer through one bufio.Writer, with numbers
// from strconv ('g', -1 for floats), and quote a string field exactly where
// encoding/csv.Writer does (held to it by the tests and fuzz targets): a
// field is quoted when it is `\.`, holds a ',', '"', '\r' or '\n', or starts
// with a Unicode space, and never when it is empty; inside quotes every '"'
// is doubled. So neither side allocates per job.
//
// A CSV trace file is read through one window of at most 64 kB, twice: once
// to count its rows and their ID bytes, so the job list and one ID buffer
// are each allocated once at their final size, and once to scan it, in the
// language encoding/csv reads with TrimLeadingSpace (held to that reader by
// the tests' ReadAll oracle). Each job's ID is copied into the ID buffer and
// nothing else of the file is kept, so the decoders' allocations do not grow
// with the trace's length, and a trace already in submission order is not
// sorted again. A quoted "\r\n" reads back as "\n", as encoding/csv reads
// it; every other field reads back as it was written.
//
// # Availability scenarios
//
// AvailabilityProfile is the capacity-side twin of Generator: profiles for
// node failure/repair (FailureRepair), spot preemption (SpotPreemption),
// maintenance drains (MaintenanceDrain), and diurnal capacity tides
// (DiurnalCapacity) generate reproducible AvailabilityTrace timelines that
// drive core.Scheduler.SetCapacity through both backends, saved to and
// replayed from CSV trace files as job workloads are.
//
// Every generator and profile is deterministic per seed: the same seed
// always yields an identical workload or trace, which is what makes
// parallel sweep execution bit-identical to sequential.
package workload
