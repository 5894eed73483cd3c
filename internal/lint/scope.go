package lint

import "strings"

// The scope tables name the packages each invariant governs. They are keyed
// by import path (after test-variant normalization) so the same analyzers
// behave identically under the driver and the test harness, which
// type-checks its fixtures under these real paths.

// module is the root module path of this repository.
const module = "elastichpc"

// deterministicPkgs are the packages whose outputs are contractually
// bit-identical across execution modes (the conformance matrix's subjects):
// any source of scheduling-order or float-fold nondeterminism in them is a
// correctness bug, not a style issue. The Kubernetes emulation (k8s,
// operator, cluster) runs on its event loop's virtual clock and is pinned
// byte for byte by the elasticsim -backend cluster goldens and the
// benchmark's expected results, so it is held to the same contract.
var deterministicPkgs = map[string]bool{
	module + "/internal/core":        true,
	module + "/internal/sim":         true,
	module + "/internal/federation":  true,
	module + "/internal/conformance": true,
	module + "/internal/workload":    true,
	module + "/internal/k8s":         true,
	module + "/internal/operator":    true,
	module + "/internal/cluster":     true,
}

// boundaryPkgs are the packages the CLIs, examples and benchmark enter a run
// through: their entry points must return errors, never panic across the
// caller's frame (as an event-loop callback panicking out of cluster.Run
// would).
var boundaryPkgs = map[string]bool{
	module + "/internal/sim":        true,
	module + "/internal/federation": true,
	module + "/internal/cluster":    true,
}

// inDeterministic reports whether the pass's package is under the
// determinism contract.
func inDeterministic(p *Pass) bool { return deterministicPkgs[p.Path()] }

// orderedOutputPkgs are held to ordered output without the rest of the
// determinism contract. runspec is the CLIs' shared flag table — its
// rejection messages and unknown-key errors are CLI output.
var orderedOutputPkgs = map[string]bool{
	module + "/internal/runspec": true,
}

// inOrderedOutput additionally covers the CLIs and orderedOutputPkgs: a main
// package that ranges a map while printing emits lines in random order, which
// breaks diffable output and golden files even where no simulation contract
// applies.
func inOrderedOutput(p *Pass) bool {
	return inDeterministic(p) || strings.HasPrefix(p.Path(), module+"/cmd/") ||
		orderedOutputPkgs[p.Path()]
}

// blessedConcurrency lists the only (package, file) sites allowed to create
// goroutines or channels inside deterministic packages: the RunTasks worker
// pool (results indexed, error lowest-index-wins) and the chained-speculation
// shard pipeline (per-epoch done channels, reconciled sequentially). Every
// other goroutine is a place a float fold can reorder.
var blessedConcurrency = map[[2]string]bool{
	{module + "/internal/sim", "pool.go"}:  true,
	{module + "/internal/sim", "shard.go"}: true,
}

// sealedSpec pins a set of order-sensitive float accumulator fields to the
// files allowed to write them.
type sealedSpec struct {
	pkg     string
	typ     string
	fields  map[string]bool
	allowed map[string]bool
}

// sealedSpecs encodes the seal-fold discipline of sim.Ledger (sim/ledger.go):
// the run totals are folded only by its seal and replay, and the open
// sub-accumulators are fed only through its methods, so every write to these
// fields lives in ledger.go. Accumulating them anywhere else — say, a
// per-shard partial sum added during reconciliation — is exactly the
// order-sensitive fold the 1-ULP UsedSlotSec fuzz finding came from.
var sealedSpecs = []sealedSpec{{
	pkg: module + "/internal/sim", typ: "Ledger",
	fields: map[string]bool{
		"utilArea": true, "utilSub": true,
		"wSum": true, "wResp": true, "wComp": true,
		"finWSub": true, "finRespSub": true, "finCompSub": true,
		"overheadArea": true, "ovhSub": true,
		"workLost": true, "lostSub": true,
	},
	allowed: map[string]bool{"ledger.go": true},
}}

// corePkg and ringFile anchor the ringlogonly analyzer: decision records are
// created and stored only by the logRing append paths in core's log.go.
const (
	corePkg  = module + "/internal/core"
	ringFile = "log.go"
)
