package charm

import (
	"sync"
	"sync/atomic"
	"time"

	"elastichpc/internal/lb"
)

// pe is one processing element: a scheduler goroutine, its message queue,
// and the chares it currently hosts. Chare state is only ever touched by the
// PE's scheduler loop or by the coordinator while the PE is parked at a
// pause point, so no per-chare locking is needed.
type pe struct {
	id    int
	queue *msgq

	// chares and loads are owned by the scheduler goroutine, except while
	// the PE is paused (coordinator access) — see incarnation.pauseAll.
	chares map[lb.ObjID]Chare
	loads  map[lb.ObjID]float64

	pauseAck chan struct{}
	resume   chan struct{}
	done     chan struct{}
}

func newPE(id int) *pe {
	return &pe{
		id:       id,
		queue:    newMsgq(),
		chares:   make(map[lb.ObjID]Chare),
		loads:    make(map[lb.ObjID]float64),
		pauseAck: make(chan struct{}),
		resume:   make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// run is the PE scheduler loop (paper §2.1: "Each Processing Element runs a
// scheduler and has a message queue").
func (p *pe) run(inc *incarnation) {
	defer close(p.done)
	for {
		m, ok := p.queue.pop()
		if !ok {
			return
		}
		switch m.kind {
		case kInvoke:
			p.deliver(inc, m)
			inc.inflight.Add(-1)
		case kPause:
			p.pauseAck <- struct{}{}
			<-p.resume
		case kStop:
			return
		}
	}
}

// deliver invokes the entry method on the destination chare, timing the call
// for the load-balancing database.
func (p *pe) deliver(inc *incarnation, m message) {
	id := lb.ObjID{Array: m.array, Index: m.index}
	obj, ok := p.chares[id]
	if !ok {
		// The object migrated after the message was routed; re-route.
		// This mirrors Charm++'s location-manager forwarding.
		inc.rt.send(m.array, m.index, m.entry, m.data)
		return
	}
	entries := inc.rt.arrayEntries(m.array)
	if m.entry < 0 || m.entry >= len(entries) {
		panic("charm: entry index out of range")
	}
	ctx := &Ctx{rt: inc.rt, Array: m.array, Index: m.index}
	start := time.Now()
	entries[m.entry].Fn(obj, ctx, m.data)
	p.loads[id] += time.Since(start).Seconds()
}

// incarnation is one "launch" of the runtime: a fixed set of PEs plus the
// location manager. Rescaling tears down the incarnation and builds a new
// one from the checkpoint, matching Charm++'s checkpoint/restart rescale.
type incarnation struct {
	rt    *Runtime
	pes   []*pe
	locMu sync.RWMutex
	loc   map[lb.ObjID]int // object -> hosting PE

	inflight atomic.Int64 // invoke messages enqueued but not yet processed
	wg       sync.WaitGroup
}

func newIncarnation(rt *Runtime, numPE int) *incarnation {
	inc := &incarnation{rt: rt, loc: make(map[lb.ObjID]int)}
	for i := 0; i < numPE; i++ {
		inc.pes = append(inc.pes, newPE(i))
	}
	for _, p := range inc.pes {
		inc.wg.Add(1)
		go func(p *pe) {
			defer inc.wg.Done()
			p.run(inc)
		}(p)
	}
	return inc
}

// lookup returns the PE hosting the object, or -1.
func (inc *incarnation) lookup(id lb.ObjID) int {
	inc.locMu.RLock()
	defer inc.locMu.RUnlock()
	if pe, ok := inc.loc[id]; ok {
		return pe
	}
	return -1
}

// place records that id lives on pe. Called at creation, migration, restore.
func (inc *incarnation) place(id lb.ObjID, pe int) {
	inc.locMu.Lock()
	inc.loc[id] = pe
	inc.locMu.Unlock()
}

// send routes an invoke message to the hosting PE.
func (inc *incarnation) send(array, index, entry int, data []byte) {
	id := lb.ObjID{Array: array, Index: index}
	pe := inc.lookup(id)
	if pe < 0 {
		panic("charm: send to unknown object")
	}
	inc.inflight.Add(1)
	inc.pes[pe].queue.push(message{kind: kInvoke, array: array, index: index, entry: entry, data: data})
}

// quiesce waits until no invoke messages are in flight. Callers must ensure
// no new work is being injected (the runtime rescales at iteration barriers,
// so this holds by construction).
func (inc *incarnation) quiesce() {
	for inc.inflight.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// pauseAll parks every PE at a pause point and returns after all have
// acknowledged. While paused, the coordinator may access chare maps freely.
func (inc *incarnation) pauseAll() {
	for _, p := range inc.pes {
		p.queue.push(message{kind: kPause})
	}
	for _, p := range inc.pes {
		<-p.pauseAck
	}
}

// resumeAll releases PEs parked by pauseAll.
func (inc *incarnation) resumeAll() {
	for _, p := range inc.pes {
		p.resume <- struct{}{}
	}
}

// stop shuts down every PE scheduler and waits for them to exit.
func (inc *incarnation) stop() {
	for _, p := range inc.pes {
		p.queue.close()
	}
	inc.wg.Wait()
}

// loadDatabase snapshots measured loads into an LB database. Must be called
// while paused or stopped.
func (inc *incarnation) loadDatabase() *lb.Database {
	db := lb.NewDatabase(len(inc.pes))
	for _, p := range inc.pes {
		for id, load := range p.loads {
			db.Objs = append(db.Objs, lb.ObjLoad{ID: id, PE: p.id, Load: load})
		}
	}
	return db
}
