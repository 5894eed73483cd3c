// Package sim is the discrete-event scheduling simulator of paper §4.3.1:
// it replays a stream of malleable-job submissions against the four
// scheduling policies, modelling job runtimes with the strong-scaling model
// and charging the four-phase rescale overhead on every shrink/expand. It
// reports the paper's four metrics — total time, cluster utilization,
// weighted mean response time, and weighted mean completion time — plus the
// resilience aggregates (goodput, work lost, preemptions survived by
// shrinking vs. requeued) when the cluster's capacity varies over the run.
//
// # Event loop
//
// The hot path is allocation-free at steady state: events and job records
// are pooled, submissions stream from a sorted cursor instead of being
// pre-pushed into the event heap, and in streaming mode (Config.Streaming)
// per-job state is recycled at completion so a multi-million-job workload
// needs only O(running jobs) memory. Availability events stream from their
// own cursor over Config.Availability the same way. Job identities are
// interned to int32 slab indices (core.Job.Ref), equal-timestamp event
// batches share one scheduler kick re-arm, and the decision log is opt-in
// (Config.LogDecisions), so the default streaming path allocates nothing
// per job.
//
// # Execution modes
//
// Run executes the loop whole (Config.Shards == 1, the sequential
// reference), or partitions it in time into epochs that are simulated
// speculatively in parallel and reconciled into the same bits (shard.go).
// The default, Shards == 0, decides for itself: one epoch per GOMAXPROCS
// processor where the run is large enough (16 k jobs an epoch — smaller runs
// are the sequential loop, unplanned) and the drain predictor finds every cut
// its margin of idle slack (the rescale gap plus 420 s of predicted idle
// time); otherwise it declines, at the cost of two allocation-free passes
// over the submissions, and the first boundary that does not drain cancels
// what speculation is left. Shards == N > 1 plans up to N epochs
// unconditionally. Decisions, the Result and Processed() are the sequential
// loop's at every width. Callers that already fan runs out over a RunTasks
// pool of more than one worker (sweep cells, a federation's batch members)
// resolve the unset value to 1 so parallelism is not nested, and the stepping
// API (Begin/StepTo/Finish) never shards.
//
// # Determinism
//
// Every run is a pure function of (workload, availability trace, config):
// at equal timestamps, capacity events apply before submissions, which
// apply before completions and kicks; ties within each class keep trace,
// workload, and push order respectively. Streaming and retained runs
// accumulate their aggregates through the identical call sequence and agree
// bit-for-bit, as do sequential and parallel sweep executions — and logged
// and unlogged runs: Config.LogDecisions only observes.
package sim
