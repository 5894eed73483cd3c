package workload

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"elastichpc/internal/model"
)

// The two CSV decoders as they were before they read row by row: every row
// materialised by csv.ReadAll, then a list of entries, then the jobs or
// events. Their bodies are kept verbatim (only renamed, and the job decoder
// holding submit instants to model.MaxSeconds as jobList.add does) as the
// oracle the streaming decoders are held to — both reject, or both accept the
// same value.

// JobEntry and AvailabilityEntry are the entry rows the reference decoders
// build: one serialized job submission and one serialized capacity event.
type JobEntry struct {
	ID       string
	Class    string
	Priority int
	SubmitAt float64
}

type AvailabilityEntry struct {
	At       float64
	Capacity int
}

// loadCSVReference is the CSV job-trace decoder at the parent of the
// row-by-row one.
func loadCSVReference(r io.Reader) (Workload, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return Workload{}, fmt.Errorf("workload: csv: %w", err)
	}
	if len(rows) == 0 {
		return Workload{}, fmt.Errorf("workload: csv document is empty")
	}
	if len(rows[0]) != len(csvHeader) || !equalFold(rows[0], csvHeader) {
		return Workload{}, fmt.Errorf("workload: csv header %v, want %v", rows[0], csvHeader)
	}
	var entries []JobEntry
	for i, rec := range rows[1:] {
		prio, err := strconv.Atoi(rec[2])
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d priority: %w", i+1, err)
		}
		at, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d submit_at: %w", i+1, err)
		}
		entries = append(entries, JobEntry{ID: rec[0], Class: rec[1], Priority: prio, SubmitAt: at})
	}
	return fromEntriesReference(entries)
}

// fromEntriesReference validates serialized jobs and returns them sorted by submit
// time (stable, so simultaneous submissions keep file order).
func fromEntriesReference(entries []JobEntry) (Workload, error) {
	if len(entries) == 0 {
		return Workload{}, fmt.Errorf("workload: document has no jobs")
	}
	var w Workload
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		if e.ID == "" {
			return Workload{}, fmt.Errorf("workload: job %d has no id", i)
		}
		if seen[e.ID] {
			return Workload{}, fmt.Errorf("workload: duplicate job id %q", e.ID)
		}
		seen[e.ID] = true
		class, err := classByName(e.Class)
		if err != nil {
			return Workload{}, err
		}
		if e.Priority < 1 {
			return Workload{}, fmt.Errorf("workload: job %q priority %d < 1", e.ID, e.Priority)
		}
		if e.SubmitAt < 0 || math.IsNaN(e.SubmitAt) || math.IsInf(e.SubmitAt, 0) || e.SubmitAt > model.MaxSeconds {
			return Workload{}, fmt.Errorf("workload: job %q submitAt %v", e.ID, e.SubmitAt)
		}
		w.Jobs = append(w.Jobs, JobSpec{
			ID: e.ID, Class: class, Priority: e.Priority, SubmitAt: e.SubmitAt,
		})
	}
	sort.SliceStable(w.Jobs, func(i, j int) bool { return w.Jobs[i].SubmitAt < w.Jobs[j].SubmitAt })
	return w, nil
}

// loadAvailabilityCSVReference is the CSV capacity-trace decoder at the same
// parent, with the capacity-trace validation applied.
func loadAvailabilityCSVReference(r io.Reader) (AvailabilityTrace, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return AvailabilityTrace{}, fmt.Errorf("workload: availability csv: %w", err)
	}
	if len(rows) == 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: availability csv document is empty")
	}
	if len(rows[0]) != len(availabilityCSVHeader) || !equalFold(rows[0], availabilityCSVHeader) {
		return AvailabilityTrace{}, fmt.Errorf("workload: availability csv header %v, want %v",
			rows[0], availabilityCSVHeader)
	}
	var entries []AvailabilityEntry
	for i, rec := range rows[1:] {
		at, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv row %d at: %w", i+1, err)
		}
		capacity, err := strconv.Atoi(rec[1])
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv row %d capacity: %w", i+1, err)
		}
		entries = append(entries, AvailabilityEntry{At: at, Capacity: capacity})
	}
	return availabilityFromEntriesReference(entries)
}

// availabilityFromEntriesReference validates serialized events, sorted stably by time
// (simultaneous events keep file order, matching the job-trace loader).
func availabilityFromEntriesReference(entries []AvailabilityEntry) (AvailabilityTrace, error) {
	if len(entries) == 0 {
		return AvailabilityTrace{}, fmt.Errorf("workload: availability document has no events")
	}
	var tr AvailabilityTrace
	for _, e := range entries {
		tr.Events = append(tr.Events, CapacityEvent{At: e.At, Capacity: e.Capacity})
	}
	sortCapacityEvents(tr.Events)
	if err := tr.Validate(); err != nil {
		return AvailabilityTrace{}, err
	}
	return tr, nil
}

// loadCSVReader and loadAvailabilityCSVReader put the CSV decoders behind an
// io.Reader, the shape of their references.
func loadCSVReader(r io.Reader) (Workload, error) {
	doc, err := io.ReadAll(r)
	if err != nil {
		return Workload{}, err
	}
	return loadCSV(string(doc))
}

func loadAvailabilityCSVReader(r io.Reader) (AvailabilityTrace, error) {
	doc, err := io.ReadAll(r)
	if err != nil {
		return AvailabilityTrace{}, err
	}
	return loadAvailabilityCSV(string(doc))
}

// requireSameVerdict fails unless a decoder and its reference both reject the
// input or both accept it with equal values. Which of two errors in one file
// is reported differs by design (the reference finds every CSV syntax error
// before it looks at a header or a value), so error text is not compared.
func requireSameVerdict[T any](t *testing.T, data []byte, got T, err error, ref func(io.Reader) (T, error)) {
	t.Helper()
	want, refErr := ref(bytes.NewReader(data))
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoder error %v, reference error %v, on %q", err, refErr, data)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoder and reference accept %q as different values:\ndecoder:   %+v\nreference: %+v", data, got, want)
	}
}

// scannerJobDocs and scannerAvailabilityDocs take every exit of csvScanner,
// in each trace format. TestLoadCSVMatchesReference holds them to the oracle,
// and the fuzz targets start from them.
var scannerJobDocs = []string{
	"id,class,priority,submit_at\r\na,small,1,0\r\nb,large,2,5\r\n",                // CRLF rows
	"id,class,priority,submit_at\na,small,1,0\r",                                   // a lone \r before EOF
	"id,class,priority,submit_at\na,small,1,0\r\r",                                 // only the last \r dropped
	"id,class,priority,submit_at\r\n\r\n\r\na,small,1,0\r\n\r\n",                   // \r\n-only blank lines
	"\"id\",class,\"priority\",submit_at\n\"a,b\",small,1,0\n",                     // a quoted ID with a ','
	"id,class,priority,submit_at\n\"a\"\"b\",small,1,0\n\"\"\"\",small,1,1\n",      // ... with `""`
	"id,class,priority,submit_at\n\"a\r\nb\nc\",small,1,0\n",                       // ... with newlines
	"id,class,priority,submit_at\n\"a\",small,1,\"0\"\r\n\"b\",small,1,\"1\"\r",    // quote then line end
	"id,class,priority,submit_at\n\u00a0a,\u0085small, 1,\t0\n\u2028b,small,1,1\n", // Unicode space
	"id,class,priority,submit_at\n\xffa,small,1,0\n",                               // not UTF-8, not space
	"id,class,priority,submit_at\na\"b,small,1,0\n",                                // a bare quote
	"id,class,priority,submit_at\n\"a\"b,small,1,0\n",                              // text after a closing quote
	"id,class,priority,submit_at\n\"a\"\r,small,1,0\n",                             // ... a '\r' not ending the input
	"id,class,priority,submit_at\na,small,1,0\n\"b,small,1,0",                      // an unterminated quote at EOF
	"id,class,priority,submit_at\na,small,1\n",                                     // a short row
	"id,class,priority,submit_at\na,small,1, \r\n",                                 // space ending a row
	"id,class,priority,submit_at\na,small,1,0,\n",                                  // a long row
	"id,class,priority,submit_at\na,small,1,0\nb,small,1,5",                        // a last row with no newline
	" \r\n", // a row of one empty field
}

var scannerAvailabilityDocs = []string{
	"at,capacity\r\n0,4\r\n10,8\r",
	"at,capacity\r\n\r\n0,4\r\n\r\n",
	"\"at\",\"capacity\"\n\"0\",\"4\"\n",
	"at,capacity\n\u00a00,\u00854\n",
	"at,capacity\n0\",4\n",
	"at,capacity\n\"0\"x,4\n",
	"at,capacity\n\"0,4\n",
	"at,capacity\n0\n",
	"at,capacity\n0,4\n10,8",
	"at,capacity\n\"1\r\n\",4\n",
}

// TestLoadCSVMatchesReference runs the differential on inputs chosen to take
// every exit of both decoders, so it holds without the fuzzer.
func TestLoadCSVMatchesReference(t *testing.T) {
	for _, doc := range append([]string{
		"", "\n", "id,class,priority\n", "ID, Class ,PRIORITY,submit_at\nA,small,1,0\n",
		"id,class,priority,submit_at\n", "id,class,priority,submit_at\na,small,x,0\n",
		"id,class,priority,submit_at\na,small,1,zzz\n", "id,class,priority,submit_at\na,gigantic,1,0\n",
		"id,class,priority,submit_at\na,small,1,0\na,small,1,1\n", "id,class,priority,submit_at\n,small,1,0\n",
		"id,class,priority,submit_at\na,small,0,0\n", "id,class,priority,submit_at\na,small,1,NaN\n",
		"id,class,priority,submit_at\na,small,1,0\nb,small,1\n", "id,class,priority,submit_at\na,small,1,0\n\"b,small,1,0\n",
		"id,class,priority,submit_at\nb,xlarge,2,7\n\" a\",small,1,-0\nc,medium,5,7\nd,large,1,1e3\n",
		"bogus\na,small,x,0\n\"", "id,class,priority,submit_at\na,small,x,0\nb,small\n",
	}, scannerJobDocs...) {
		w, err := loadCSVReader(strings.NewReader(doc))
		requireSameVerdict(t, []byte(doc), w, err, loadCSVReference)
	}
	for _, doc := range append([]string{
		"", "at\n", "AT, capacity\n0,4\n", "at,capacity\n", "at,capacity\nx,4\n", "at,capacity\n0,x\n",
		"at,capacity\n0,0\n", "at,capacity\n-1,4\n", "at,capacity\nInf,4\n", "at,capacity\n0,4\n5\n",
		"at,capacity\n50,8\n10,4\n10,6\n0,64\n", "at,capacity\n0,4\n\"",
	}, scannerAvailabilityDocs...) {
		tr, err := loadAvailabilityCSVReader(strings.NewReader(doc))
		requireSameVerdict(t, []byte(doc), tr, err, loadAvailabilityCSVReference)
	}
}

// TestLoadCSVAllocsDoNotScale is the decoder's runner-independent regression
// row: a trace 16 times longer costs the same allocations, decoded from a
// string or read from its file, up to the validated workload. (The reference
// costs two a row — the row's string and its []string — before its entries
// and jobs.)
func TestLoadCSVAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	const slack = 2
	dir := t.TempDir()
	var perSize [2][2]float64
	for i, rows := range []int{2_000, 32_000} {
		w, err := Poisson{Jobs: rows, MeanGap: 170}.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%d.csv", rows))
		if err := SaveFile(path, w, ""); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(data)
		perSize[i][0] = testing.AllocsPerRun(3, func() {
			if _, err := loadCSV(doc); err != nil {
				t.Fatal(err)
			}
		})
		perSize[i][1] = testing.AllocsPerRun(3, func() {
			if _, err := LoadFile(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	for j, name := range []string{"loadCSV", "LoadFile"} {
		short, long := perSize[0][j], perSize[1][j]
		t.Logf("%s: %.0f allocations at 2,000 rows, %.0f at 32,000", name, short, long)
		if long > short+slack {
			t.Errorf("%s allocates %.0f times at 32,000 rows, %.0f at 2,000: want at most %d more",
				name, long, short, slack)
		}
	}
}

// TestCloseWrittenReportsCloseError: a write the kernel deferred fails at
// close, so a saver that drops the close error reports a lost trace as saved.
// No file here fails its close on demand; a file already closed does.
func TestCloseWrittenReportsCloseError(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closeWritten(f, nil); !errors.Is(err, os.ErrClosed) {
		t.Errorf("a failed close after a good write: %v", err)
	}
	if err := closeWritten(f, io.ErrShortWrite); err != io.ErrShortWrite {
		t.Errorf("a failed close after a failed write must report the write: %v", err)
	}
}

// TestSaveFileReportsWriteFailure: /dev/full accepts the open and fails the
// write. The file savers must not report a trace as saved.
func TestSaveFileReportsWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	if err := SaveFile("/dev/full", MustUniform(4, 90, 7), ""); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("SaveFile on a full device: %v", err)
	}
	tr := AvailabilityTrace{Events: []CapacityEvent{{At: 0, Capacity: 8}}}
	if err := SaveAvailabilityFile("/dev/full", tr, ""); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("SaveAvailabilityFile on a full device: %v", err)
	}
}

// TestSaversReplaceOnlyRegularFiles: saving over a regular file unlinks it
// and writes a new one (another link to the old file keeps the old bytes),
// whereas a symlink, a device and a FIFO are opened where they stand.
func TestSaversReplaceOnlyRegularFiles(t *testing.T) {
	old, next := MustUniform(4, 90, 7), MustUniform(6, 60, 3)
	tr := AvailabilityTrace{Events: []CapacityEvent{{At: 0, Capacity: 8}}}
	savers := []struct {
		name string
		save func(path string) error
		same func(path string) bool // path holds what save writes
	}{
		{"SaveFile", func(p string) error { return SaveFile(p, next, "") }, func(p string) bool {
			w, err := LoadFile(p)
			return err == nil && reflect.DeepEqual(w, next)
		}},
		{"SaveAvailabilityFile", func(p string) error { return SaveAvailabilityFile(p, tr, "") }, func(p string) bool {
			got, err := LoadAvailabilityFile(p)
			return err == nil && reflect.DeepEqual(got, tr)
		}},
	}
	for _, s := range savers {
		t.Run(s.name+"/regular", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.csv")
			if err := SaveFile(path, old, ""); err != nil {
				t.Fatal(err)
			}
			link := filepath.Join(filepath.Dir(path), "old.csv")
			if err := os.Link(path, link); err != nil {
				t.Skip("no hard links here:", err)
			}
			if err := s.save(path); err != nil {
				t.Fatal(err)
			}
			if !s.same(path) {
				t.Error("the path does not hold what was saved")
			}
			if w, err := LoadFile(link); err != nil || !reflect.DeepEqual(w, old) {
				t.Errorf("the old file was written in place: its other link reads %v, %v", w, err)
			}
		})
		t.Run(s.name+"/symlink", func(t *testing.T) {
			dir := t.TempDir()
			target, path := filepath.Join(dir, "target.csv"), filepath.Join(dir, "trace.csv")
			if err := SaveFile(target, old, ""); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink(target, path); err != nil {
				t.Skip("no symlinks here:", err)
			}
			if err := s.save(path); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeSymlink == 0 {
				t.Errorf("the symlink was replaced: %v, %v", fi, err)
			}
			if !s.same(target) {
				t.Error("the link's target does not hold what was saved")
			}
		})
		t.Run(s.name+"/device", func(t *testing.T) {
			fi, err := os.Lstat(os.DevNull)
			if err != nil || fi.Mode()&os.ModeDevice == 0 {
				t.Skip("no null device to write to")
			}
			if err := s.save(os.DevNull); err != nil {
				t.Fatal(err)
			}
			if now, err := os.Lstat(os.DevNull); err != nil || now.Mode() != fi.Mode() {
				t.Errorf("the null device is now %v, %v", now, err)
			}
		})
		t.Run(s.name+"/fifo", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.csv")
			if err := exec.Command("mkfifo", path).Run(); err != nil {
				t.Skip("no mkfifo here:", err)
			}
			// os.Create opens for reading too, so the saver does not wait
			// for this end; opened first, it finds the bytes.
			r, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if err := s.save(path); err != nil {
				t.Fatal(err)
			}
			if got, err := io.ReadAll(r); err != nil || len(got) == 0 {
				t.Errorf("read %d bytes from the FIFO, %v", len(got), err)
			}
			if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
				t.Errorf("the FIFO was replaced: %v, %v", fi, err)
			}
		})
	}
}
