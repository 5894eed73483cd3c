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
)

// The two CSV decoders as they were before they read row by row: every row
// materialised by csv.ReadAll, then a list of entries, then the jobs or
// events. Their bodies are kept verbatim (only renamed) as the oracle the
// streaming decoders are held to — both reject, or both accept the same value.

// loadCSVReference is LoadCSV at the parent of the row-by-row decoder.
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
		if e.SubmitAt < 0 || math.IsNaN(e.SubmitAt) || math.IsInf(e.SubmitAt, 0) {
			return Workload{}, fmt.Errorf("workload: job %q submitAt %v", e.ID, e.SubmitAt)
		}
		w.Jobs = append(w.Jobs, JobSpec{
			ID: e.ID, Class: class, Priority: e.Priority, SubmitAt: e.SubmitAt,
		})
	}
	sort.SliceStable(w.Jobs, func(i, j int) bool { return w.Jobs[i].SubmitAt < w.Jobs[j].SubmitAt })
	return w, nil
}

// loadAvailabilityCSVReference is LoadAvailabilityCSV at the same parent, with
// the validation LoadAvailability applied.
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

// TestLoadCSVMatchesReference runs the differential on inputs chosen to take
// every exit of both decoders, so it holds without the fuzzer.
func TestLoadCSVMatchesReference(t *testing.T) {
	for _, doc := range []string{
		"", "\n", "id,class,priority\n", "ID, Class ,PRIORITY,submit_at\nA,small,1,0\n",
		"id,class,priority,submit_at\n", "id,class,priority,submit_at\na,small,x,0\n",
		"id,class,priority,submit_at\na,small,1,zzz\n", "id,class,priority,submit_at\na,gigantic,1,0\n",
		"id,class,priority,submit_at\na,small,1,0\na,small,1,1\n", "id,class,priority,submit_at\n,small,1,0\n",
		"id,class,priority,submit_at\na,small,0,0\n", "id,class,priority,submit_at\na,small,1,NaN\n",
		"id,class,priority,submit_at\na,small,1,0\nb,small,1\n", "id,class,priority,submit_at\na,small,1,0\n\"b,small,1,0\n",
		"id,class,priority,submit_at\nb,xlarge,2,7\n\" a\",small,1,-0\nc,medium,5,7\nd,large,1,1e3\n",
		"bogus\na,small,x,0\n\"", "id,class,priority,submit_at\na,small,x,0\nb,small\n",
	} {
		w, err := LoadCSV(strings.NewReader(doc))
		requireSameVerdict(t, []byte(doc), w, err, loadCSVReference)
	}
	for _, doc := range []string{
		"", "at\n", "AT, capacity\n0,4\n", "at,capacity\n", "at,capacity\nx,4\n", "at,capacity\n0,x\n",
		"at,capacity\n0,0\n", "at,capacity\n-1,4\n", "at,capacity\nInf,4\n", "at,capacity\n0,4\n5\n",
		"at,capacity\n50,8\n10,4\n10,6\n0,64\n", "at,capacity\n0,4\n\"",
	} {
		tr, err := LoadAvailabilityCSV(strings.NewReader(doc))
		requireSameVerdict(t, []byte(doc), tr, err, loadAvailabilityCSVReference)
	}
}

// TestLoadCSVAllocsPerRow is the decoder's runner-independent regression row:
// a row costs its one string. (The reference costs two — the string and the
// row's []string — before its entries and jobs.)
func TestLoadCSVAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	const rows = 10_000
	w, err := Poisson{Jobs: rows, MeanGap: 170}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := SaveCSV(&doc, w); err != nil {
		t.Fatal(err)
	}
	perRow := testing.AllocsPerRun(3, func() {
		if _, err := LoadCSV(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
	}) / rows
	if perRow > 1.1 {
		t.Errorf("LoadCSV allocates %.2f times per row over %d rows, budget 1.1", perRow, rows)
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
	// SaveFile picks the format by extension, so give /dev/full both names.
	dir := t.TempDir()
	for _, name := range []string{"trace.json", "trace.csv"} {
		path := filepath.Join(dir, name)
		if err := os.Symlink("/dev/full", path); err != nil {
			t.Skip("cannot link to /dev/full:", err)
		}
		if err := SaveFile(path, MustUniform(4, 90, 7), ""); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("SaveFile(%s) on a full device: %v", name, err)
		}
		tr := AvailabilityTrace{Events: []CapacityEvent{{At: 0, Capacity: 8}}}
		if err := SaveAvailabilityFile(path, tr, ""); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("SaveAvailabilityFile(%s) on a full device: %v", name, err)
		}
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
