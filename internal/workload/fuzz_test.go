package workload

import (
	"bytes"
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

// FuzzLoadWorkload holds the job-trace decoder to the contract every run read
// from a file relies on: hostile bytes are an error, never a panic; a decoded
// workload is no larger than its input (nothing a few bytes can inflate);
// whatever decodes re-encodes to a document that decodes to the same
// workload; and the scanner agrees with the encoding/csv ReadAll-based
// decoder it replaced (persist_ref_test.go) on every input — both reject, or
// both accept the same workload.
func FuzzLoadWorkload(f *testing.F) {
	f.Add(goldenInput(f, "wl.csv"))
	// Out of submission order, with a tie: the loader's stable sort, which a
	// saved trace never takes.
	f.Add([]byte("id,class,priority,submit_at\nb,large,2,5\na,small,1,0\nc,medium,3,0\n"))
	f.Add([]byte("id,class,priority,submit_at\n\" a\",small,1,-0\n"))
	for _, seed := range scannerJobDocs {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := loadCSVReader(bytes.NewReader(data))
		requireSameVerdict(t, data, w, err, loadCSVReference)
		if err != nil {
			return
		}
		if len(w.Jobs) > len(data) {
			t.Fatalf("%d jobs decoded from %d bytes", len(w.Jobs), len(data))
		}
		var buf bytes.Buffer
		if err := saveCSV(&buf, w); err != nil {
			t.Fatalf("accepted workload does not re-encode: %v", err)
		}
		again, err := loadCSVReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded workload does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("round trip changed the workload:\nfirst:  %+v\nsecond: %+v", w, again)
		}
	})
}

// FuzzLoadAvailability is FuzzLoadWorkload for the capacity-trace decoder.
func FuzzLoadAvailability(f *testing.F) {
	f.Add(goldenInput(f, "cap.csv"))
	f.Add([]byte("at,capacity\n50,8\n10,4\n10,6\n0,64\n")) // out of order, with a tie
	for _, seed := range scannerAvailabilityDocs {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := loadAvailabilityCSVReader(bytes.NewReader(data))
		requireSameVerdict(t, data, tr, err, loadAvailabilityCSVReference)
		if err != nil {
			return
		}
		if len(tr.Events) > len(data) {
			t.Fatalf("%d events decoded from %d bytes", len(tr.Events), len(data))
		}
		var buf bytes.Buffer
		if err := saveAvailabilityCSV(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := loadAvailabilityCSVReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("round trip changed the trace:\nfirst:  %+v\nsecond: %+v", tr, again)
		}
	})
}
