package conformance

import (
	"fmt"
	"strings"
	"testing"
)

// TestMatrixEquivalence runs the full equivalence matrix — every sim,
// federation, and cluster cell — and fails with the differ's
// divergence window on any non-identical stream. The race-equivalence CI
// job re-runs it under -race at two GOMAXPROCS widths.
func TestMatrixEquivalence(t *testing.T) {
	opt := DefaultMatrixOptions()
	if testing.Short() {
		opt.Seeds = opt.Seeds[:1]
		opt.Cluster = false
	}
	for _, c := range Cases(opt) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			fails, err := c.Run(DefaultWindow)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fails {
				t.Errorf("%s: candidate %s diverged:\n%s%s", f.Case, f.Candidate, f.Report, f.Reproduce)
			}
		})
	}
}

// TestMatrixCheckReportsPlantedMutation: the matrix's own comparison step
// turns one mutated decision into a Failure that says where — the case, the
// candidate and the decision index — keeps both streams for the artifacts,
// and carries the conftest line that re-runs the candidate; an identical
// candidate adds nothing.
func TestMatrixCheckReportsPlantedMutation(t *testing.T) {
	spec := Cases(DefaultMatrixOptions())[0].Refs[0].Spec
	ref, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	k := len(ref.Decisions) / 2
	mut := cloneStream(ref)
	mut.Decisions[k].Replicas++

	cand := Candidate{Name: "streaming"}
	if fails := check(nil, DefaultWindow, "sim/min_replicas/seed1/uniform", cand, ref, cloneStream(ref)); len(fails) != 0 {
		t.Fatalf("an identical candidate produced %d failures:\n%s", len(fails), fails[0].Report)
	}
	fails := check(nil, DefaultWindow, "sim/min_replicas/seed1/uniform", cand, ref, mut)
	if len(fails) != 1 {
		t.Fatalf("%d failures for one mutated decision, want 1", len(fails))
	}
	f := fails[0]
	if f.Case != "sim/min_replicas/seed1/uniform" || f.Candidate != "streaming" || f.Ref != ref || f.Got != mut {
		t.Errorf("failure names case %q, candidate %q; want sim/min_replicas/seed1/uniform, streaming and both streams", f.Case, f.Candidate)
	}
	if want := fmt.Sprintf("decisions[%d]", k); !strings.Contains(f.Report, want) {
		t.Errorf("report does not name %s:\n%s", want, f.Report)
	}
	want := "conftest -record -backend sim -gap 45 -jobs 60 -log -policy min_replicas -scenario uniform -seed 1 -shards 1"
	if f.Reproduce != want {
		t.Errorf("reproduce line:\n got %s\nwant %s", f.Reproduce, want)
	}

	// An unlogged candidate is compared on its summary, and its line turns
	// off the log -record keeps by default.
	spec.Log = false
	unlogged, err := spec.Execute()
	if err != nil {
		t.Fatal(err)
	}
	unlogged.Summary.Requeues++
	fails = check(nil, DefaultWindow, "sim/min_replicas/seed1/uniform", Candidate{Name: "unlogged", Project: summaryOnly}, ref, unlogged)
	if len(fails) != 1 || !strings.Contains(fails[0].Report, "requeues") || !strings.HasSuffix(fails[0].Reproduce, " -log=false") {
		t.Errorf("unlogged failure %+v: want one summary divergence naming requeues, re-run with -log=false", fails)
	}
}

// TestRebalanceCellsMigrateOffDrainedMember: every federation rebalance
// cell's last member runs the drain profile, and its rebalancer moves jobs
// off that member as well as off the backed-up member 0 — the two donor kinds
// the matrix's federation cells exist to exercise. A change to the drain
// profile or to how a fleet applies it that leaves the last member nothing to
// donate fails here, not silently in a green matrix.
func TestRebalanceCellsMigrateOffDrainedMember(t *testing.T) {
	cells := 0
	for _, c := range Cases(DefaultMatrixOptions()) {
		if !strings.HasPrefix(c.Name, "federation/") || !strings.HasSuffix(c.Name, "/rebalance") {
			continue
		}
		cells++
		spec := c.Refs[0].Spec
		st, err := spec.Execute()
		if err != nil {
			t.Fatal(err)
		}
		from := make([]int, spec.Clusters)
		for _, m := range st.Migrations {
			from[m.From]++
		}
		if from[0] == 0 || from[spec.Clusters-1] == 0 {
			t.Errorf("%s: migrations by donor %v: want some off member 0 and off the drained member %d",
				c.Name, from, spec.Clusters-1)
		}
	}
	if cells == 0 {
		t.Fatal("no federation rebalance cell in the matrix")
	}
}
