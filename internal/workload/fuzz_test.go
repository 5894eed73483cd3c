package workload

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"
)

// goldenInput reads one of the trace files the elasticsim CLI goldens replay.
func goldenInput(f *testing.F, name string) []byte {
	data, err := os.ReadFile("../../cmd/elasticsim/testdata/" + name)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzLoadWorkload holds both job-trace decoders to the contract every run
// read from a file relies on: hostile bytes are an error, never a panic; a
// decoded workload is no larger than its input (nothing a few bytes can
// inflate); whatever decodes re-encodes to a document that decodes to
// the same workload; and the CSV decoder's scanner agrees with the
// encoding/csv ReadAll-based decoder it replaced (persist_ref_test.go) on
// every input — both reject, or both accept the same workload.
func FuzzLoadWorkload(f *testing.F) {
	csv := goldenInput(f, "wl.csv")
	w, err := loadCSVReader(bytes.NewReader(csv))
	if err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	if err := Save(&doc, w, "burst scenario, seed 7"); err != nil {
		f.Fatal(err)
	}
	f.Add(csv, true)
	f.Add(doc.Bytes(), false)
	f.Add([]byte("id,class,priority,submit_at\n\" a\",small,1,-0\n"), true)
	for _, seed := range scannerJobDocs {
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, asCSV bool) {
		load, save := Load, func(out io.Writer, w Workload) error { return Save(out, w, "") }
		if asCSV {
			load, save = loadCSVReader, SaveCSV
		}
		w, err := load(bytes.NewReader(data))
		if asCSV {
			requireSameVerdict(t, data, w, err, loadCSVReference)
		}
		if err != nil {
			return
		}
		if len(w.Jobs) > len(data) {
			t.Fatalf("%d jobs decoded from %d bytes", len(w.Jobs), len(data))
		}
		var buf bytes.Buffer
		if err := save(&buf, w); err != nil {
			t.Fatalf("accepted workload does not re-encode: %v", err)
		}
		again, err := load(&buf)
		if err != nil {
			t.Fatalf("re-encoded workload does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("round trip changed the workload:\nfirst:  %+v\nsecond: %+v", w, again)
		}
	})
}

// FuzzLoadAvailability is FuzzLoadWorkload for the capacity-trace decoders.
func FuzzLoadAvailability(f *testing.F) {
	csv := goldenInput(f, "cap.csv")
	tr, err := loadAvailabilityCSVReader(bytes.NewReader(csv))
	if err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	if err := SaveAvailability(&doc, tr, "drain profile, seed 7, base 64"); err != nil {
		f.Fatal(err)
	}
	f.Add(csv, true)
	f.Add(doc.Bytes(), false)
	for _, seed := range scannerAvailabilityDocs {
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, asCSV bool) {
		load, save := LoadAvailability, func(out io.Writer, tr AvailabilityTrace) error { return SaveAvailability(out, tr, "") }
		if asCSV {
			load, save = loadAvailabilityCSVReader, SaveAvailabilityCSV
		}
		tr, err := load(bytes.NewReader(data))
		if asCSV {
			requireSameVerdict(t, data, tr, err, loadAvailabilityCSVReference)
		}
		if err != nil {
			return
		}
		if len(tr.Events) > len(data) {
			t.Fatalf("%d events decoded from %d bytes", len(tr.Events), len(data))
		}
		var buf bytes.Buffer
		if err := save(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := load(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip changed the trace:\nfirst:  %+v\nsecond: %+v", tr, again)
		}
	})
}
