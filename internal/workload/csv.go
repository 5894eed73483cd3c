package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// The CSV trace formats: the savers build each row in one reused buffer and
// write it through one bufio.Writer, quoting as encoding/csv.Writer quotes,
// and csvScanner reads them through one window, never holding the whole file.

// csvHeader is the column layout of the CSV trace format.
var csvHeader = []string{"id", "class", "priority", "submit_at"}

// availabilityCSVHeader is the column layout of the CSV capacity-trace
// format.
var availabilityCSVHeader = []string{"at", "capacity"}

// saveBuffer sizes a saver's write buffer for rows rows: room for the whole
// trace, up to 32 kB. An 80 k-job trace (about 2 MB) is then 64 writes, and a
// small trace does not allocate and clear a buffer it cannot fill: a flat
// 32 kB made a 32-job trace's generate-and-save half again as slow.
func saveBuffer(rows int) int { return min(32<<10, 64*(rows+1)) }

// saveCSV writes a workload in the CSV trace format: a header row followed by
// one `id,class,priority,submit_at` row per job.
func saveCSV(w io.Writer, workload Workload) error {
	bw := bufio.NewWriterSize(w, saveBuffer(len(workload.Jobs)))
	row := appendRecord(nil, csvHeader)
	// A burst's jobs share one submit time, so its text is formatted once.
	var atText [32]byte // the longest float64 'g', -1 text is 24 bytes
	at, atBits := atText[:0], uint64(0)
	for i, j := range workload.Jobs {
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("workload: csv: %w", err)
		}
		if bits := math.Float64bits(j.SubmitAt); i == 0 || bits != atBits {
			at, atBits = strconv.AppendFloat(at[:0], j.SubmitAt, 'g', -1, 64), bits
		}
		row = append(appendField(row[:0], j.ID), ',')
		row = append(appendField(row, j.Class.String()), ',')
		row = append(strconv.AppendInt(row, int64(j.Priority), 10), ',')
		row = append(append(row, at...), '\n')
	}
	return flushRows(bw, row, "csv")
}

// loadCSV decodes a CSV trace, the size bytes of r read through a window of
// window bytes, validating it through jobList. A first pass over the document
// counts its rows and the bytes of their first fields, so the job list and
// one ID buffer are each allocated once, at their final size, and every job's
// ID is copied into that buffer: the decoded workload holds its jobs, not the
// file. A row's submit_at is parsed only when its text differs from the row
// before's: a burst's jobs share one submit time, which its saver formats
// once, so a burst-shaped trace parses one time per wave.
func loadCSV(r io.ReaderAt, size int64, window int) (Workload, error) {
	rows, n, idBytes, err := csvBody(r, size, window, "csv", csvHeader)
	if err != nil {
		return Workload{}, err
	}
	jobs := make(jobList, 0, n)
	ids := make(idBuffer, 0, idBytes)
	var atBuf [32]byte  // the longest float64 'g', -1 text is 24 bytes
	atText := atBuf[:0] // the submit_at text at holds
	var at float64
	for row := 1; ; row++ {
		ok, err := rows.next()
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv: %w", err)
		}
		if !ok {
			return jobs.workload()
		}
		rec := rows.row
		prio, err := strconv.Atoi(rec[2])
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d priority: %w", row, err)
		}
		if row == 1 || rec[3] != string(atText) {
			if at, err = strconv.ParseFloat(rec[3], 64); err != nil {
				return Workload{}, fmt.Errorf("workload: csv row %d submit_at: %w", row, err)
			}
			atText = append(atText[:0], rec[3]...)
		}
		if err := jobs.add(ids.clone(rec[0]), rec[1], prio, at); err != nil {
			return Workload{}, err
		}
	}
}

// saveAvailabilityCSV writes a capacity trace in the CSV format: a header
// row followed by one `at,capacity` row per event.
func saveAvailabilityCSV(w io.Writer, tr AvailabilityTrace) error {
	bw := bufio.NewWriterSize(w, saveBuffer(len(tr.Events)))
	row := appendRecord(nil, availabilityCSVHeader)
	for _, ev := range tr.Events {
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("workload: availability csv: %w", err)
		}
		row = append(strconv.AppendFloat(row[:0], ev.At, 'g', -1, 64), ',')
		row = append(strconv.AppendInt(row, int64(ev.Capacity), 10), '\n')
	}
	return flushRows(bw, row, "availability csv")
}

// flushRows writes a saver's last row and flushes; what names the format in
// the error.
func flushRows(bw *bufio.Writer, row []byte, what string) error {
	if _, err := bw.Write(row); err != nil {
		return fmt.Errorf("workload: %s: %w", what, err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("workload: %s: %w", what, err)
	}
	return nil
}

// appendRecord appends fields as one CSV row.
func appendRecord(b []byte, fields []string) []byte {
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendField(b, f)
	}
	return append(b, '\n')
}

// appendField appends s as one CSV field, quoted where encoding/csv.Writer
// quotes one: a field that is `\.`, holds a ',', '"', '\r' or '\n', or starts
// with a Unicode space — never an empty one. Inside quotes every '"' is
// doubled and everything else, line ends included, is written as it is. A
// number strconv formats never needs quotes, so the savers append numbers
// directly.
func appendField(b []byte, s string) []byte {
	if !needsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(append(b, s[:i+1]...), '"')
		s = s[i+1:]
	}
	return append(append(b, s...), '"')
}

func needsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// loadAvailabilityCSV decodes a CSV capacity trace, read as loadCSV reads a
// job trace, validating it through availabilityFromEvents.
func loadAvailabilityCSV(r io.ReaderAt, size int64, window int) (AvailabilityTrace, error) {
	rows, n, _, err := csvBody(r, size, window, "availability csv", availabilityCSVHeader)
	if err != nil {
		return AvailabilityTrace{}, err
	}
	events := make([]CapacityEvent, 0, n)
	for row := 1; ; row++ {
		ok, err := rows.next()
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv: %w", err)
		}
		if !ok {
			return availabilityFromEvents(events)
		}
		rec := rows.row
		at, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv row %d at: %w", row, err)
		}
		capacity, err := strconv.Atoi(rec[1])
		if err != nil {
			return AvailabilityTrace{}, fmt.Errorf("workload: availability csv row %d capacity: %w", row, err)
		}
		events = append(events, CapacityEvent{At: at, Capacity: capacity})
	}
}

// csvBody counts the rows of the size bytes of r and returns a scanner over
// those that follow its header row, which must name header's columns (case
// and surrounding space aside); every row after it must have as many fields.
// n is at least the number of rows after the header and idBytes at least the
// bytes of their unquoted first fields. what names the format in errors.
func csvBody(r io.ReaderAt, size int64, window int, what string, header []string) (rows *csvScanner, n, idBytes int, err error) {
	rows = &csvScanner{
		r: r, size: size, win: make([]byte, 0, max(window, 1)),
		line: 1, row: make([]string, 0, len(header)),
	}
	if n, idBytes, err = rows.count(); err != nil {
		return nil, 0, 0, fmt.Errorf("workload: %s: %w", what, err)
	}
	ok, err := rows.next()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("workload: %s: %w", what, err)
	}
	if !ok {
		return nil, 0, 0, fmt.Errorf("workload: %s document is empty", what)
	}
	if len(rows.row) != len(header) || !equalFold(rows.row, header) {
		return nil, 0, 0, fmt.Errorf("workload: %s header %v, want %v", what, rows.row, header)
	}
	rows.fields = len(header)
	return rows, max(n-1, 0), idBytes, nil
}

func equalFold(a, b []string) bool {
	for i := range a {
		if !strings.EqualFold(strings.TrimSpace(a[i]), b[i]) {
			return false
		}
	}
	return true
}

// bytesString returns b's bytes as a string without copying them, so the
// string reads whatever b holds. An idBuffer never writes the bytes under an
// ID it has handed out; the CSV scanner rewrites its window, so its fields
// are read before its next row and a decoder copies what it keeps.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
