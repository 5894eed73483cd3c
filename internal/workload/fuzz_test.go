package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"elastichpc/internal/model"
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
// both accept the same workload. The document is read through a window the
// fuzzer chooses (window mod its length, plus one byte), which must decode it
// as the whole document in one window does, error text included.
func FuzzLoadWorkload(f *testing.F) {
	f.Add(goldenInput(f, "wl.csv"), uint16(7))
	// Out of submission order, with a tie: the loader's stable sort, which a
	// saved trace never takes.
	f.Add([]byte("id,class,priority,submit_at\nb,large,2,5\na,small,1,0\nc,medium,3,0\n"), uint16(0))
	f.Add([]byte("id,class,priority,submit_at\n\" a\",small,1,-0\n"), uint16(2))
	for i, seed := range scannerJobDocs {
		f.Add([]byte(seed), uint16(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, window uint16) {
		doc := string(data)
		w, err := requireWindowUnseen(t, doc, 1+int(window)%(len(doc)+1), loadCSV)
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
	f.Add(goldenInput(f, "cap.csv"), uint16(5))
	f.Add([]byte("at,capacity\n50,8\n10,4\n10,6\n0,64\n"), uint16(3)) // out of order, with a tie
	for i, seed := range scannerAvailabilityDocs {
		f.Add([]byte(seed), uint16(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, window uint16) {
		doc := string(data)
		tr, err := requireWindowUnseen(t, doc, 1+int(window)%(len(doc)+1), loadAvailabilityCSV)
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

// hostilePieces are what a fuzzed ID is built from besides ASCII: every byte
// encoding/csv.Writer quotes a field for, the `\.` it always quotes, leading
// Unicode spaces, a byte that is not UTF-8, and the "\r\n" a reader turns
// into "\n".
var hostilePieces = []string{`"`, ",", "\r", "\n", "\r\n", " ", "\t", "\u00a0", "\u0085", "\u2028", `\.`, "\xff"}

// fuzzJob is one job of a fuzzed workload as bytes: an ID length, the ID's
// bytes (ASCII stands for itself, a byte from 0x80 up for a hostile piece),
// then the class, the priority's and the submit time's bits.
func fuzzJob(id []byte, class byte, priority int64, at float64) []byte {
	b := append([]byte{byte(len(id))}, id...)
	b = append(b, class)
	b = binary.LittleEndian.AppendUint64(b, uint64(priority))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(at))
}

// fuzzWorkload decodes fuzzJob's layout until the bytes run out: any ID of up
// to 15 pieces, any class up to one past the last, any priority and any
// float bits.
func fuzzWorkload(data []byte) Workload {
	var w Workload
	for len(data) > 0 {
		n := min(int(data[0]%16), len(data)-1)
		var id strings.Builder
		for _, c := range data[1 : 1+n] {
			if c < 0x80 {
				id.WriteByte(c)
			} else {
				id.WriteString(hostilePieces[int(c-0x80)%len(hostilePieces)])
			}
		}
		data = data[1+n:]
		if len(data) < 17 {
			break
		}
		w.Jobs = append(w.Jobs, JobSpec{
			ID:       id.String(),
			Class:    model.Class(data[0] % 5),
			Priority: int(int64(binary.LittleEndian.Uint64(data[1:]))),
			SubmitAt: math.Float64frombits(binary.LittleEndian.Uint64(data[9:])),
		})
		data = data[17:]
	}
	return w
}

// FuzzSaveWorkload holds the job-trace encoder to encoding/csv.Writer
// (saveCSVReference, persist_ref_test.go): equal bytes for any workload,
// hostile IDs and any float bits included. And what it writes decodes back:
// to the same workload when the job validator takes it, or to an error when
// the validator rejects it. The one difference is encoding/csv's own: a
// quoted "\r\n" reads back as "\n".
func FuzzSaveWorkload(f *testing.F) {
	f.Add(slices.Concat(fuzzJob([]byte("job-00"), 0, 1, 0), fuzzJob([]byte("job-w01-02"), 2, 5, 29000)))
	// Equal submit times share their text; 0 and -0 compare equal but do not.
	f.Add(slices.Concat(fuzzJob([]byte("a"), 0, 1, 0), fuzzJob([]byte("b"), 0, 1, 0),
		fuzzJob([]byte("c"), 0, 1, math.Copysign(0, -1)), fuzzJob([]byte("d"), 0, 1, 0)))
	f.Add(slices.Concat(
		fuzzJob(nil, 0, 1, 0),                            // empty
		fuzzJob([]byte{0x80 + 10}, 1, 2, 1),              // `\.`
		fuzzJob([]byte{'a', 0x80 + 1, 'b'}, 2, 3, 1e300), // a comma
		fuzzJob([]byte{0x80, 'q', 0x80, 0x80}, 3, 4, math.Copysign(0, -1)),
		fuzzJob([]byte{'c', 0x80 + 2, 'l', 0x80 + 4, 'x', 0x80 + 3}, 4, -3, math.NaN()),
		fuzzJob([]byte{0x80 + 7, 'n', 'b', 's', 'p'}, 0, 1<<40, math.Inf(-1)),
		fuzzJob([]byte{0x80 + 8, 0x80 + 9, 0x80 + 11}, 1, 1, 5e-324),
		fuzzJob([]byte{0x80 + 5, 'l', 'e', 'a', 'd'}, 2, 1, 1e9),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWorkload(data)
		var got, want bytes.Buffer
		if err := saveCSV(&got, w); err != nil {
			t.Fatal(err)
		}
		if err := saveCSVReference(&want, w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("saveCSV wrote\n%q\nencoding/csv writes\n%q", got.Bytes(), want.Bytes())
		}
		var jobs jobList
		var wantErr error
		for _, j := range w.Jobs {
			if wantErr = jobs.add(strings.ReplaceAll(j.ID, "\r\n", "\n"), j.Class.String(), j.Priority, j.SubmitAt); wantErr != nil {
				break
			}
		}
		var wantW Workload
		if wantErr == nil {
			wantW, wantErr = jobs.workload()
		}
		back, err := loadCSVDoc(got.String(), got.Len())
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decoding what was saved: %v; the validator: %v\n%q", err, wantErr, got.Bytes())
		}
		if err == nil && !reflect.DeepEqual(back, wantW) {
			t.Fatalf("round trip changed the workload:\nsaved:   %+v\ndecoded: %+v", wantW, back)
		}
	})
}

// FuzzSaveAvailability is FuzzSaveWorkload for the capacity-trace encoder:
// events of any float bits and any capacity.
func FuzzSaveAvailability(f *testing.F) {
	event := func(at float64, capacity int64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(at))
		return binary.LittleEndian.AppendUint64(b, uint64(capacity))
	}
	f.Add(slices.Concat(event(0, 64), event(31500, 56), event(1.5e7, 64)))
	f.Add(slices.Concat(event(math.NaN(), -1), event(math.Inf(1), 1<<50), event(math.Copysign(0, -1), 0), event(1e-310, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr AvailabilityTrace
		for ; len(data) >= 16; data = data[16:] {
			tr.Events = append(tr.Events, CapacityEvent{
				At:       math.Float64frombits(binary.LittleEndian.Uint64(data)),
				Capacity: int(int64(binary.LittleEndian.Uint64(data[8:]))),
			})
		}
		var got, want bytes.Buffer
		if err := saveAvailabilityCSV(&got, tr); err != nil {
			t.Fatal(err)
		}
		if err := saveAvailabilityCSVReference(&want, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("saveAvailabilityCSV wrote\n%q\nencoding/csv writes\n%q", got.Bytes(), want.Bytes())
		}
		wantTr, wantErr := availabilityFromEvents(slices.Clone(tr.Events))
		back, err := loadAvailabilityCSVDoc(got.String(), got.Len())
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decoding what was saved: %v; the validator: %v\n%q", err, wantErr, got.Bytes())
		}
		if err == nil && !reflect.DeepEqual(back, wantTr) {
			t.Fatalf("round trip changed the trace:\nsaved:   %+v\ndecoded: %+v", wantTr, back)
		}
	})
}
