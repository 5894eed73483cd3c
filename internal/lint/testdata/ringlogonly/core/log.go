// pkgpath: elastichpc/internal/core

// Package core exercises ringlogonly inside core itself: log.go owns the
// Decision type and the ring, scheduler.go must go through it.
package core

// Decision mirrors the real decision record.
type Decision struct {
	JobID    string
	Replicas int
}

// logRing mirrors the real bounded ring.
type logRing struct {
	buf  []Decision
	head int
	n    int
}

// add appends one entry: the only legal write path.
func (r *logRing) add(d Decision) {
	r.buf = append(r.buf, d)
	r.n = len(r.buf)
}

// overwrite rewrites the oldest entry in place, as the real ring does at
// its cap: writes to decisions inside log.go are allowed.
func (r *logRing) overwrite(d Decision) {
	r.buf[r.head] = d
	r.buf[r.head].Replicas++
	copy(r.buf, r.buf[1:])
}

// record builds the Decision inside log.go: allowed.
func record(r *logRing, id string, replicas int) {
	r.add(Decision{JobID: id, Replicas: replicas})
}
