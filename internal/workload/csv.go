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
// and csvScanner reads them from the whole document held in one string.

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

// loadCSV decodes a CSV trace held in one string, validating it through
// jobList. A job's ID is a substring of doc, so the decoder allocates nothing
// per row. A row's submit_at is parsed only when its text differs from the
// row before's: a burst's jobs share one submit time, which its saver
// formats once, so a burst-shaped trace parses one time per wave.
func loadCSV(doc string) (Workload, error) {
	rows, err := csvBody(doc, "csv", csvHeader)
	if err != nil {
		return Workload{}, err
	}
	jobs := make(jobList, 0, strings.Count(doc, "\n"))
	var atText string // the submit_at text at holds
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
		if row == 1 || rec[3] != atText {
			if at, err = strconv.ParseFloat(rec[3], 64); err != nil {
				return Workload{}, fmt.Errorf("workload: csv row %d submit_at: %w", row, err)
			}
			atText = rec[3]
		}
		if err := jobs.add(rec[0], rec[1], prio, at); err != nil {
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

// loadAvailabilityCSV decodes a CSV capacity trace held in one string,
// validating it through availabilityFromEvents.
func loadAvailabilityCSV(doc string) (AvailabilityTrace, error) {
	rows, err := csvBody(doc, "availability csv", availabilityCSVHeader)
	if err != nil {
		return AvailabilityTrace{}, err
	}
	events := make([]CapacityEvent, 0, strings.Count(doc, "\n"))
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

// csvBody returns a scanner over the rows that follow doc's header row, which
// must name header's columns (case and surrounding space aside); every row
// after it must have as many fields. what names the format in errors.
func csvBody(doc, what string, header []string) (*csvScanner, error) {
	rows := &csvScanner{rest: doc, line: 1}
	ok, err := rows.next()
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", what, err)
	}
	if !ok {
		return nil, fmt.Errorf("workload: %s document is empty", what)
	}
	if len(rows.row) != len(header) || !equalFold(rows.row, header) {
		return nil, fmt.Errorf("workload: %s header %v, want %v", what, rows.row, header)
	}
	rows.fields = len(header)
	return rows, nil
}

func equalFold(a, b []string) bool {
	for i := range a {
		if !strings.EqualFold(strings.TrimSpace(a[i]), b[i]) {
			return false
		}
	}
	return true
}

// bytesString returns b's bytes as a string without copying them. The caller
// hands b over: nothing may write to it afterwards, because the decoded
// values keep substrings of the result.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
