package conformance

import (
	"fmt"
	"strings"
	"testing"

	"elastichpc/internal/core"
)

// TestMatrixEquivalence runs the full equivalence matrix — every sim,
// extension, federation, and cluster cell — and fails with the differ's
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
			fails, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fails {
				t.Errorf("%s: candidate %s diverged:\n%s", f.Case, f.Candidate, f.Report)
			}
		})
	}
}

// TestMatrixCheckReportsPlantedMutation: the matrix's own comparison step
// turns one mutated decision into a Failure that says where — the case, the
// candidate and the decision index — and keeps both streams for the
// artifacts; an identical candidate adds nothing.
func TestMatrixCheckReportsPlantedMutation(t *testing.T) {
	ref := recordedSim(t, core.Elastic, nil)
	k := len(ref.Decisions) / 2
	mut := cloneStream(ref)
	mut.Decisions[k].Replicas++

	opt := DefaultMatrixOptions()
	if fails := check(nil, opt, "sim/seed1/elastic", "streaming", ref, cloneStream(ref)); len(fails) != 0 {
		t.Fatalf("an identical candidate produced %d failures:\n%s", len(fails), fails[0].Report)
	}
	fails := check(nil, opt, "sim/seed1/elastic", "streaming", ref, mut)
	if len(fails) != 1 {
		t.Fatalf("%d failures for one mutated decision, want 1", len(fails))
	}
	f := fails[0]
	if f.Case != "sim/seed1/elastic" || f.Candidate != "streaming" || f.Ref != ref || f.Got != mut {
		t.Errorf("failure names case %q, candidate %q; want sim/seed1/elastic, streaming and both streams", f.Case, f.Candidate)
	}
	if want := fmt.Sprintf("decisions[%d]", k); !strings.Contains(f.Report, want) {
		t.Errorf("report does not name %s:\n%s", want, f.Report)
	}
}
