package workload

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestLoadCSVWindowBoundaries decodes every document the reference test
// holds to the oracle through every window from one byte to the document's
// length (64 bytes too), so a row, a field, a "\r\n", a `""`, a multi-byte
// space and every end-of-input case — a final '\r', a last line with no
// '\n', a quote never closed — each falls across a window's end. Each window
// must give what the whole document in one window gives: the same workload
// or trace, or the same error text and line number; and that must agree with
// the encoding/csv reference.
func TestLoadCSVWindowBoundaries(t *testing.T) {
	windows := func(doc string) []int {
		ws := []int{64}
		for w := 1; w <= len(doc); w++ {
			ws = append(ws, w)
		}
		return ws
	}
	for _, doc := range referenceJobDocs {
		for _, window := range windows(doc) {
			w, err := requireWindowUnseen(t, doc, window, loadCSV)
			requireSameVerdict(t, []byte(doc), w, err, loadCSVReference)
		}
	}
	for _, doc := range referenceAvailabilityDocs {
		for _, window := range windows(doc) {
			tr, err := requireWindowUnseen(t, doc, window, loadAvailabilityCSV)
			requireSameVerdict(t, []byte(doc), tr, err, loadAvailabilityCSVReference)
		}
	}
}

// TestLoadCSVRowLongerThanWindow: a row longer than the 64 kB window a file
// is read through grows the window. Each document holds one such row — an
// unquoted ID, a quoted one with `""`, "\r\n" and ',' in it, a capacity
// trace's instant — between ordinary rows, and must decode as the
// reference decodes it, through a window of the file's size, of 64 kB and of
// one byte.
func TestLoadCSVRowLongerThanWindow(t *testing.T) {
	long := strings.Repeat("x", maxCSVWindow+100)
	quoted := `"` + strings.Repeat(`a""b,c`+"\r\n", maxCSVWindow/8) + `"`
	instant := "1" + strings.Repeat("0", 8) + "." + strings.Repeat("0", maxCSVWindow)
	for _, doc := range []string{
		"id,class,priority,submit_at\na,small,1,0\n" + long + ",small,1,0\nb,large,2,5\n",
		"id,class,priority,submit_at\na,small,1,0\n" + quoted + ",small,1,0\r\nb,large,2,5\r\n",
	} {
		for _, window := range []int{len(doc), maxCSVWindow, 1} {
			w, err := loadCSVDoc(doc, window)
			if err != nil || len(w.Jobs) != 3 {
				t.Fatalf("a %d-byte window: %d jobs, %v", window, len(w.Jobs), err)
			}
			requireSameVerdict(t, []byte(doc), w, err, loadCSVReference)
		}
	}
	doc := "at,capacity\n0,4\n" + instant + ",8\n"
	for _, window := range []int{len(doc), maxCSVWindow, 1} {
		tr, err := loadAvailabilityCSVDoc(doc, window)
		if err != nil || len(tr.Events) != 2 {
			t.Fatalf("a %d-byte window: %d events, %v", window, len(tr.Events), err)
		}
		requireSameVerdict(t, []byte(doc), tr, err, loadAvailabilityCSVReference)
	}
}

// TestLoadersReadNonRegularFiles: a FIFO cannot be read at an offset, so the
// loaders read it whole and decode from memory; it must load as the regular
// file it was fed from does. The traces are longer than a pipe's buffer and
// than the window.
func TestLoadersReadNonRegularFiles(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "fifo.csv")
	if err := exec.Command("mkfifo", fifo).Run(); err != nil {
		t.Skip("no mkfifo here:", err)
	}
	w, err := Uniform{Jobs: 8000, Gap: 90}.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	var tr AvailabilityTrace
	for i := range 8000 {
		tr.Events = append(tr.Events, CapacityEvent{At: float64(i) * 31.5, Capacity: 56 + i%9})
	}
	jobsPath, availPath := filepath.Join(dir, "jobs.csv"), filepath.Join(dir, "avail.csv")
	if err := SaveFile(jobsPath, w, ""); err != nil {
		t.Fatal(err)
	}
	if err := SaveAvailabilityFile(availPath, tr, ""); err != nil {
		t.Fatal(err)
	}
	// feed writes path's bytes into the FIFO; the write waits for a reader,
	// and a reader that stops early fails it.
	feed := func(path string) chan error {
		done := make(chan error, 1)
		go func() {
			data, err := os.ReadFile(path)
			if err == nil {
				err = os.WriteFile(fifo, data, 0o644)
			}
			done <- err
		}()
		return done
	}
	done := feed(jobsPath)
	fromFIFO, err := LoadFile(fifo)
	if err != nil {
		t.Fatal("LoadFile from a FIFO:", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if fromFile, err := LoadFile(jobsPath); err != nil || !reflect.DeepEqual(fromFIFO, fromFile) || !reflect.DeepEqual(fromFile, w) {
		t.Errorf("LoadFile: the FIFO gives %d jobs; the file %d jobs, %v", len(fromFIFO.Jobs), len(fromFile.Jobs), err)
	}
	done = feed(availPath)
	trFIFO, err := LoadAvailabilityFile(fifo)
	if err != nil {
		t.Fatal("LoadAvailabilityFile from a FIFO:", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if trFile, err := LoadAvailabilityFile(availPath); err != nil || !reflect.DeepEqual(trFIFO, trFile) || !reflect.DeepEqual(trFile, tr) {
		t.Errorf("LoadAvailabilityFile: the FIFO gives %d events; the file %d events, %v", len(trFIFO.Events), len(trFile.Events), err)
	}
}

// TestLoadFileBytesPerRow bounds what LoadFile allocates a row: the job
// list, the IDs, the duplicate-ID table and the window, never the file. The
// bounds are the measured values plus about 8 %; a decoder that holds the
// whole file again adds the file's bytes a row (30 on the burst trace, 25 on
// the Poisson one) and fails.
func TestLoadFileBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, row := range []struct {
		gen              Generator
		measured, atMost float64 // bytes a row
	}{
		{Burst{Waves: 400, PerWave: 200, WaveGap: 29000}, 58.2, 63},
		{Poisson{Jobs: 12000, MeanGap: 170}, 60.1, 65},
	} {
		w, err := row.gen.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), row.gen.Name()+".csv")
		if err := SaveFile(path, w, ""); err != nil {
			t.Fatal(err)
		}
		perRow := bytesPerRun(3, func() {
			if _, err := LoadFile(path); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(w.Jobs))
		t.Logf("%s: %.1f bytes a row", row.gen.Name(), perRow)
		if perRow > row.atMost {
			t.Errorf("%s: LoadFile allocates %.1f bytes a row, want at most %g (%g measured)",
				row.gen.Name(), perRow, row.atMost, row.measured)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f allocates
// a call, averaged over runs calls after a warm-up one, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
