package core

import "math"

// maxSlotNeed is the "no waiting job" value of jobQueue.minNeed, and the
// "any need" limit for jobQueue.best.
const maxSlotNeed = math.MaxInt

// needBucket holds the waiting jobs that need exactly need slots to start, as
// a binary max-heap ordered like Scheduler.before — decreasing effective
// priority, ties broken by earlier submission, then ID.
type needBucket struct {
	need int
	jobs []*Job
	// dead marks a bucket whose head failed the placeable test during the
	// current placeable-only pass (see Scheduler.placeWaiting).
	dead bool
}

// jobQueue is the scheduler's wait queue: one heap per distinct slot need
// (Scheduler.jobNeed — class × policy gives a handful), kept in ascending
// need order. Splitting by need lets a scheduling pass ask "which waiting
// job schedules first among those that could fit this budget" in
// O(buckets) and skip, wholesale, every job whose need the budget rules out.
// A bucket that empties stays in place and keeps its array.
//
// The heap invariants survive the passage of time: queued jobs all age at
// the same AgingRate, so their relative order is constant. The one exception
// is a mixed queue of aged and preempted jobs (preempted jobs do not age) —
// the scheduler re-establishes the invariants with init before popping in
// that configuration.
type jobQueue struct {
	s       *Scheduler
	buckets []needBucket
	n       int
	// preempted counts the waiting jobs still in StatePreempted — the
	// checkpoint marker that a re-enqueue erases and a driver's StartJob
	// reads.
	preempted int
	// scratch is drainSorted's output array, reused across drains.
	scratch []*Job
}

// Len reports the number of waiting jobs.
func (q *jobQueue) Len() int { return q.n }

// minNeed is the smallest slot count any waiting job needs to start,
// maxSlotNeed when the queue is empty.
func (q *jobQueue) minNeed() int {
	for i := range q.buckets {
		if len(q.buckets[i].jobs) > 0 {
			return q.buckets[i].need
		}
	}
	return maxSlotNeed
}

// find returns the index at which the bucket for need sits, or would be
// inserted, and whether it exists.
func (q *jobQueue) find(need int) (int, bool) {
	i := 0
	for i < len(q.buckets) && q.buckets[i].need < need {
		i++
	}
	return i, i < len(q.buckets) && q.buckets[i].need == need
}

// add appends j to its bucket, creating the bucket if necessary, without
// restoring the heap invariant.
func (q *jobQueue) add(j *Job) *needBucket {
	need := q.s.jobNeed(j)
	i, ok := q.find(need)
	if !ok {
		q.buckets = append(q.buckets, needBucket{})
		copy(q.buckets[i+1:], q.buckets[i:])
		q.buckets[i] = needBucket{need: need}
	}
	b := &q.buckets[i]
	b.jobs = append(b.jobs, j)
	q.n++
	if j.State == StatePreempted {
		q.preempted++
	}
	return b
}

// took accounts for j having left the queue.
func (q *jobQueue) took(j *Job) {
	q.n--
	if j.State == StatePreempted {
		q.preempted--
	}
}

// push inserts a job.
func (q *jobQueue) push(j *Job) {
	b := q.add(j)
	b.up(q.s, len(b.jobs)-1)
}

// best returns the index of the bucket whose head schedules first among the
// non-empty buckets needing at most limit slots — skipping dead buckets when
// live is set — or -1 when there is none.
func (q *jobQueue) best(limit int, live bool) int {
	best := -1
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.need > limit {
			break
		}
		if len(b.jobs) == 0 || live && b.dead {
			continue
		}
		if best < 0 || q.s.before(b.jobs[0], q.buckets[best].jobs[0]) {
			best = i
		}
	}
	return best
}

// head returns bucket bi's highest-priority job without removing it. The
// bucket must be non-empty.
func (q *jobQueue) head(bi int) *Job { return q.buckets[bi].jobs[0] }

// pop removes and returns bucket bi's highest-priority job. The bucket must
// be non-empty.
func (q *jobQueue) pop(bi int) *Job {
	b := &q.buckets[bi]
	top := b.jobs[0]
	b.removeAt(q.s, 0)
	q.took(top)
	return top
}

// remove deletes an arbitrary job from the queue: O(bucket) to locate it
// plus O(log n) to sift — the rare fleet-migration withdraw path, never a
// scheduling hot path.
func (q *jobQueue) remove(j *Job) bool {
	bi, ok := q.find(q.s.jobNeed(j))
	if !ok {
		return false
	}
	b := &q.buckets[bi]
	for i, cur := range b.jobs {
		if cur == j {
			b.removeAt(q.s, i)
			q.took(j)
			return true
		}
	}
	return false
}

// revive clears every bucket's dead mark.
func (q *jobQueue) revive() {
	for i := range q.buckets {
		q.buckets[i].dead = false
	}
}

// init re-establishes every bucket's heap invariant in O(n).
func (q *jobQueue) init() {
	for i := range q.buckets {
		b := &q.buckets[i]
		for k := len(b.jobs)/2 - 1; k >= 0; k-- {
			b.down(q.s, k)
		}
	}
}

// bulkAdd inserts a batch of jobs and rebuilds the heaps — O(n), cheaper
// than len(batch) pushes when re-queueing a drained backlog.
func (q *jobQueue) bulkAdd(jobs []*Job) {
	for _, j := range jobs {
		q.add(j)
	}
	q.init()
}

// reset empties the queue, keeping the buckets' arrays.
func (q *jobQueue) reset() {
	for i := range q.buckets {
		b := &q.buckets[i]
		clear(b.jobs)
		b.jobs = b.jobs[:0]
	}
	q.n, q.preempted = 0, 0
}

// visit calls fn for each waiting job — bucket by bucket in ascending need,
// each bucket in heap-array order — stopping early when fn returns false.
func (q *jobQueue) visit(fn func(*Job) bool) {
	for i := range q.buckets {
		for _, j := range q.buckets[i].jobs {
			if !fn(j) {
				return
			}
		}
	}
}

// appendSorted appends the waiting jobs to dst in decreasing priority order
// without disturbing the heaps.
func (q *jobQueue) appendSorted(dst []*Job) []*Job {
	start := len(dst)
	for i := range q.buckets {
		dst = append(dst, q.buckets[i].jobs...)
	}
	q.s.sortJobs(dst[start:])
	return dst
}

// sorted returns a fresh slice of the waiting jobs in decreasing priority
// order.
func (q *jobQueue) sorted() []*Job {
	return q.appendSorted(make([]*Job, 0, q.n))
}

// drainSorted empties the queue and returns every job in decreasing priority
// order. The slice is the queue's scratch array: it is valid until the next
// drain, and callers clear it when done so it pins no job.
func (q *jobQueue) drainSorted() []*Job {
	out := q.appendSorted(q.scratch[:0])
	q.scratch = out[:0]
	q.reset()
	return out
}

func (b *needBucket) up(s *Scheduler, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(b.jobs[i], b.jobs[parent]) {
			return
		}
		b.jobs[i], b.jobs[parent] = b.jobs[parent], b.jobs[i]
		i = parent
	}
}

func (b *needBucket) down(s *Scheduler, i int) {
	n := len(b.jobs)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && s.before(b.jobs[r], b.jobs[child]) {
			child = r
		}
		if !s.before(b.jobs[child], b.jobs[i]) {
			return
		}
		b.jobs[i], b.jobs[child] = b.jobs[child], b.jobs[i]
		i = child
	}
}

// removeAt deletes the job at heap index i, restoring the heap invariant.
func (b *needBucket) removeAt(s *Scheduler, i int) {
	n := len(b.jobs) - 1
	b.jobs[i] = b.jobs[n]
	b.jobs[n] = nil
	b.jobs = b.jobs[:n]
	if i < n {
		b.down(s, i)
		b.up(s, i)
	}
}
