package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elastichpc/internal/conformance"
)

// TestSaveStreamsOrderDeterministic pins the artifact write order: ref
// first, then got. The pre-fix code ranged a two-entry map, so the pair hit
// disk — and error reporting picked a file — in per-run random order.
func TestSaveStreamsOrderDeterministic(t *testing.T) {
	dir := t.TempDir()
	ref := &conformance.Stream{Version: conformance.StreamVersion, Label: "ref"}
	got := &conformance.Stream{Version: conformance.StreamVersion, Label: "got"}
	base := filepath.Join(dir, "case")
	if err := saveStreams(base, ref, got); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".ref.json", ".got.json"} {
		data, err := os.ReadFile(base + suffix)
		if err != nil {
			t.Fatalf("expected %s%s written: %v", base, suffix, err)
		}
		want := strings.TrimSuffix(strings.TrimPrefix(suffix, "."), ".json")
		if !strings.Contains(string(data), `"label": "`+want+`"`) && !strings.Contains(string(data), `"label":"`+want+`"`) {
			t.Fatalf("%s does not carry label %q:\n%s", suffix, want, data)
		}
	}

	// With an unwritable base every save fails; the error must always name
	// the ref file — the first of the fixed order — never the got file.
	bad := filepath.Join(dir, "missing", "case")
	for i := 0; i < 8; i++ {
		err := saveStreams(bad, ref, got)
		if err == nil {
			t.Fatal("expected an error for an unwritable artifact base")
		}
		if !strings.Contains(err.Error(), "case.ref.json") {
			t.Fatalf("error does not deterministically name the ref file: %v", err)
		}
	}
}
