package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"
)

// The CSV trace formats: encoding/csv writes them, and csvScanner reads them
// from the whole document held in one string.

// csvHeader is the column layout of the CSV trace format.
var csvHeader = []string{"id", "class", "priority", "submit_at"}

// availabilityCSVHeader is the column layout of the CSV capacity-trace
// format.
var availabilityCSVHeader = []string{"at", "capacity"}

// saveCSV writes a workload in the CSV trace format: a header row followed by
// one `id,class,priority,submit_at` row per job.
func saveCSV(w io.Writer, workload Workload) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("workload: csv: %w", err)
	}
	for _, j := range workload.Jobs {
		rec := []string{
			j.ID, j.Class.String(),
			strconv.Itoa(j.Priority),
			strconv.FormatFloat(j.SubmitAt, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// loadCSV decodes a CSV trace held in one string, validating it through
// jobList. A job's ID is a substring of doc, so the decoder allocates nothing
// per row.
func loadCSV(doc string) (Workload, error) {
	rows, err := csvBody(doc, "csv", csvHeader)
	if err != nil {
		return Workload{}, err
	}
	jobs := make(jobList, 0, strings.Count(doc, "\n"))
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
		at, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return Workload{}, fmt.Errorf("workload: csv row %d submit_at: %w", row, err)
		}
		if err := jobs.add(rec[0], rec[1], prio, at); err != nil {
			return Workload{}, err
		}
	}
}

// saveAvailabilityCSV writes a capacity trace in the CSV format: a header
// row followed by one `at,capacity` row per event.
func saveAvailabilityCSV(w io.Writer, tr AvailabilityTrace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(availabilityCSVHeader); err != nil {
		return fmt.Errorf("workload: availability csv: %w", err)
	}
	for _, ev := range tr.Events {
		rec := []string{
			strconv.FormatFloat(ev.At, 'g', -1, 64),
			strconv.Itoa(ev.Capacity),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: availability csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
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
