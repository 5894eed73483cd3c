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
// correctness bug, not a style issue.
var deterministicPkgs = map[string]bool{
	module + "/internal/core":        true,
	module + "/internal/sim":         true,
	module + "/internal/federation":  true,
	module + "/internal/conformance": true,
	module + "/internal/workload":    true,
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
// rejection messages and unknown-key errors are CLI output. The Kubernetes
// emulation is pinned byte for byte by the kubesim goldens and the
// benchmark's expected results, and its store's indexes are where map order
// would leak into them.
var orderedOutputPkgs = map[string]bool{
	module + "/internal/runspec":  true,
	module + "/internal/k8s":      true,
	module + "/internal/operator": true,
	module + "/internal/cluster":  true,
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

// sealedSpecs encodes the seal-fold discipline from sim/merge.go: the run
// totals are folded only by seal()/mergeSegments() in merge.go, and the open
// sub-accumulators are fed only by the event loop in sim.go (merge.go may
// reset and carry them). Accumulating these fields anywhere else — say, a
// per-shard partial sum added during reconciliation — is exactly the
// order-sensitive fold the 1-ULP UsedSlotSec fuzz finding came from.
var sealedSpecs = []sealedSpec{
	{
		pkg: module + "/internal/sim", typ: "Simulator",
		fields: map[string]bool{
			"utilArea": true, "wSum": true, "wResp": true,
			"wComp": true, "overheadArea": true, "workLost": true,
		},
		allowed: map[string]bool{"merge.go": true},
	},
	{
		pkg: module + "/internal/sim", typ: "Simulator",
		fields: map[string]bool{
			"utilSub": true, "finWSub": true, "finRespSub": true,
			"finCompSub": true, "ovhSub": true, "lostSub": true,
		},
		allowed: map[string]bool{"sim.go": true, "merge.go": true},
	},
}

// corePkg and ringFile anchor the ringlogonly analyzer: decision records are
// created and stored only by the logRing append paths in core's log.go.
const (
	corePkg  = module + "/internal/core"
	ringFile = "log.go"
)
