package workload

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"os"
	"sort"

	"elastichpc/internal/model"
)

func classByName(name string) (model.Class, error) {
	if c, ok := model.ClassByName(name); ok {
		return c, nil
	}
	return 0, fmt.Errorf("workload: unknown job class %q", name)
}

// jobList is the job-trace validator: add checks a job as its row is decoded,
// workload checks the list as a whole.
type jobList []JobSpec

// add validates one serialized job and appends it.
func (l *jobList) add(id, className string, priority int, submitAt float64) error {
	if id == "" {
		return fmt.Errorf("workload: job %d has no id", len(*l))
	}
	class, err := classByName(className)
	if err != nil {
		return err
	}
	if priority < 1 {
		return fmt.Errorf("workload: job %q priority %d < 1", id, priority)
	}
	if !(submitAt >= 0 && submitAt <= model.MaxSeconds) {
		return fmt.Errorf("workload: job %q submitAt %v: want 0 to %g s", id, submitAt, model.MaxSeconds)
	}
	*l = append(*l, JobSpec{ID: id, Class: class, Priority: priority, SubmitAt: submitAt})
	return nil
}

// workload rejects an empty list and duplicate IDs and returns the jobs sorted
// by submit time (stable, so simultaneous submissions keep file order); a list
// already in that order, as a saved trace is, is not sorted again.
func (l jobList) workload() (Workload, error) {
	if len(l) == 0 {
		return Workload{}, fmt.Errorf("workload: document has no jobs")
	}
	if id, dup := duplicateID(l); dup {
		return Workload{}, fmt.Errorf("workload: duplicate job id %q", id)
	}
	w := Workload{Jobs: l}
	if !w.InSubmitOrder() {
		sort.SliceStable(l, func(i, j int) bool { return l[i].SubmitAt < l[j].SubmitAt })
	}
	return w, nil
}

// duplicateID returns the first job ID in l that an earlier job has too. The
// set of IDs seen is one open-addressed table, ⌈1.5·len(l)⌉ slots probed
// linearly from a multiply-shift of the ID's hash, so the check costs one
// allocation of 6 bytes a job however long the trace is (a map grows a table
// per thousand or so keys). A slot holds a job's index + 1 and, in the bits
// above it, bits of its hash, so a probe reads the job it holds only when
// those match.
func duplicateID(l []JobSpec) (string, bool) {
	n := uint64(len(l) + (len(l)+1)/2)
	slots := make([]uint32, n) // 0 = free
	shift := uint(bits.Len(uint(len(l))))
	hashBits := ^uint32(0) << shift // 0 once an index takes all 32 bits
	seed := maphash.MakeSeed()
	for i, j := range l {
		hash := maphash.String(seed, j.ID)
		mark := uint32(hash)<<shift | uint32(i+1)
		h, _ := bits.Mul64(hash, n) // in [0, n)
		for ; ; h++ {
			if h == n {
				h = 0
			}
			slot := slots[h]
			if slot == 0 {
				slots[h] = mark
				break
			}
			if (slot^mark)&hashBits == 0 && l[slot&^hashBits-1].ID == j.ID {
				return j.ID, true
			}
		}
	}
	return "", false
}

// SaveFile writes a workload to path in the CSV trace format, whatever the
// path is named. The format has no comment row, so comment is not written.
func SaveFile(path string, workload Workload, comment string) error {
	f, err := CreateFresh(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return closeWritten(f, saveCSV(f, workload))
}

// CreateFresh opens path for writing as os.Create does, except that a regular
// file already there is unlinked first, not truncated: ext4 takes truncate-
// then-rewrite for a replace and forces the new blocks to disk at close, which
// made saving a small trace over its previous copy cost several times a save
// to a new name. The old file's mode and other links do not carry over.
// Anything else at path — a symlink, a device, a FIFO — is opened in place,
// and so is a file that cannot be unlinked.
func CreateFresh(path string) (*os.File, error) {
	if fi, err := os.Lstat(path); err == nil && fi.Mode().IsRegular() {
		_ = os.Remove(path) // os.Create truncates what is left
	}
	return os.Create(path)
}

// closeWritten closes a file that was just written and returns the write
// error, or else the close error: a write the kernel deferred fails there.
func closeWritten(f *os.File, writeErr error) error {
	if err := f.Close(); err != nil && writeErr == nil {
		return fmt.Errorf("workload: %w", err)
	}
	return writeErr
}

// LoadFile reads a CSV workload trace from path through a window of at most
// 64 kB (loadCSV): the workload keeps its jobs and a copy of their IDs, never
// the file.
func LoadFile(path string) (Workload, error) {
	return loadPath(path, loadCSV)
}

// loadPath decodes the file at path with decode. A regular file is read in
// place, at offsets; anything else — a FIFO, /dev/stdin — cannot be, so it is
// read whole first and decoded from memory.
func loadPath[T any](path string, decode func(io.ReaderAt, int64, int) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return zero, fmt.Errorf("workload: %w", err)
	}
	if fi.Mode().IsRegular() {
		return decode(f, fi.Size(), csvWindow(fi.Size()))
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return zero, fmt.Errorf("workload: %w", err)
	}
	size := int64(len(data))
	return decode(bytes.NewReader(data), size, csvWindow(size))
}
