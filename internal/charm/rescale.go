package charm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"elastichpc/internal/lb"
	"elastichpc/internal/pup"
	"elastichpc/internal/shm"
)

// migrate physically moves chares to match the assignment. PEs must be
// paused. Each migration packs the object with PUP, removes it from the
// source, and unpacks a fresh instance at the destination — the same
// serialize/transfer/rebuild work a distributed runtime performs.
func migrate(inc *incarnation, assign lb.Assignment) (int, error) {
	moved := 0
	for id, dst := range assign {
		src := inc.lookup(id)
		if src == dst {
			continue
		}
		if src < 0 || src >= len(inc.pes) || dst < 0 || dst >= len(inc.pes) {
			return moved, fmt.Errorf("charm: migrate %v: bad PEs %d->%d", id, src, dst)
		}
		srcPE, dstPE := inc.pes[src], inc.pes[dst]
		obj := srcPE.chares[id]
		data, err := pup.Pack(obj)
		if err != nil {
			return moved, fmt.Errorf("charm: pack %v: %w", id, err)
		}
		fresh := inc.rt.arrayMeta(id.Array).typ.factory()
		if err := pup.Unpack(fresh, data); err != nil {
			return moved, fmt.Errorf("charm: unpack %v: %w", id, err)
		}
		delete(srcPE.chares, id)
		dstPE.chares[id] = fresh
		dstPE.loads[id] = srcPE.loads[id]
		delete(srcPE.loads, id)
		inc.place(id, dst)
		moved++
	}
	return moved, nil
}

// RescaleTo changes the PE count to newPEs using the checkpoint/restart
// protocol of paper §2.2:
//
//	shrink:  LB off doomed PEs → checkpoint to shm → restart → restore
//	expand:  checkpoint to shm → restart with more PEs → restore → LB
//
// The caller must be at a barrier (quiescent application). Per-phase timings
// are recorded and retrievable via Stats.
func (rt *Runtime) RescaleTo(newPEs int) error {
	rt.rescaleMu.Lock()
	defer rt.rescaleMu.Unlock()

	if newPEs < 1 {
		return fmt.Errorf("charm: cannot rescale to %d PEs", newPEs)
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return fmt.Errorf("charm: runtime is shut down")
	}
	inc := rt.inc
	rt.mu.Unlock()

	oldPEs := len(inc.pes)
	if newPEs == oldPEs {
		return nil
	}
	op := "expand"
	if newPEs < oldPEs {
		op = "shrink"
	}
	stats := RescaleStats{Op: op, OldPEs: oldPEs, NewPEs: newPEs}
	totalStart := time.Now()

	inc.quiesce()
	inc.pauseAll()

	// Phase 1 (shrink only): disable assignment to the PEs being removed
	// and move their objects away (paper: "the load balancer moves objects
	// out of the processes to be killed").
	if op == "shrink" {
		t0 := time.Now()
		db := inc.loadDatabase()
		for pe := newPEs; pe < oldPEs; pe++ {
			db.Available[pe] = false
		}
		if len(db.Objs) > 0 {
			assign, err := lb.Greedy(db)
			if err != nil {
				inc.resumeAll()
				return fmt.Errorf("charm: shrink LB: %w", err)
			}
			moved, err := migrate(inc, assign)
			if err != nil {
				inc.resumeAll()
				return err
			}
			stats.Migrations += moved
		}
		stats.LoadBalance = time.Since(t0)
	}

	// Phase 2: checkpoint every PE's chares to shared memory, in parallel
	// across PEs (each pod writes its own /dev/shm segment).
	rt.gen++
	prefix := fmt.Sprintf("ckpt/gen%d/", rt.gen)
	t0 := time.Now()
	bytes, err := checkpoint(inc, rt.cfg.Store, prefix)
	if err != nil {
		inc.resumeAll()
		return fmt.Errorf("charm: checkpoint: %w", err)
	}
	stats.Checkpoint = time.Since(t0)
	stats.CheckpointBytes = bytes

	// Phase 3: restart — tear down the old incarnation and build a new one
	// with the target PE count. The modelled RestartLatency stands in for
	// mpirun + MPI_Init cost of an out-of-process restart.
	t0 = time.Now()
	inc.resumeAll()
	inc.stop()
	if d := rt.cfg.RestartLatency(newPEs); d > 0 {
		time.Sleep(d)
	}
	fresh := newIncarnation(rt, newPEs)
	stats.Restart = time.Since(t0)

	// Phase 4: restore chare state from the checkpoint. Objects that were
	// on PE p land on PE p of the new incarnation (valid for shrink after
	// phase 1; for expand the extra PEs start empty).
	t0 = time.Now()
	if err := restore(rt, fresh, prefix); err != nil {
		return fmt.Errorf("charm: restore: %w", err)
	}
	stats.Restore = time.Since(t0)
	rt.cfg.Store.DeletePrefix(prefix)

	rt.mu.Lock()
	rt.inc = fresh
	rt.mu.Unlock()

	// Phase 5 (expand only): a load-balancing step distributes objects
	// onto the new PEs (paper: "A load balancing step is performed after
	// the restart").
	if op == "expand" {
		t0 = time.Now()
		fresh.pauseAll()
		db := fresh.loadDatabase()
		if len(db.Objs) > 0 {
			assign, err := lb.Greedy(db)
			if err != nil {
				fresh.resumeAll()
				return fmt.Errorf("charm: expand LB: %w", err)
			}
			moved, err := migrate(fresh, assign)
			if err != nil {
				fresh.resumeAll()
				return err
			}
			stats.Migrations += moved
		}
		fresh.resumeAll()
		stats.LoadBalance = time.Since(t0)
	}

	stats.Total = time.Since(totalStart)
	rt.mu.Lock()
	rt.stats = append(rt.stats, stats)
	rt.mu.Unlock()
	return nil
}

// peCheckpoint is the serialized image of one PE's chares.
type peCheckpoint struct {
	PE      int
	Arrays  []int // parallel arrays: array id, element index, load, data
	Indices []int
	Loads   []float64
	Blobs   [][]byte
}

// Pup implements pup.Pupable.
func (c *peCheckpoint) Pup(p *pup.PUP) {
	p.Int(&c.PE)
	p.Ints(&c.Arrays)
	p.Ints(&c.Indices)
	p.Float64s(&c.Loads)
	n := len(c.Blobs)
	p.Int(&n)
	if p.IsUnpacking() {
		c.Blobs = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		p.Bytes_(&c.Blobs[i])
	}
}

// checkpoint packs every PE's chares into the store under prefix, one
// segment per PE, in parallel. Returns the total checkpoint size.
func checkpoint(inc *incarnation, store *shm.Store, prefix string) (int64, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int64
		first error
	)
	for _, p := range inc.pes {
		wg.Add(1)
		go func(p *pe) {
			defer wg.Done()
			ck := &peCheckpoint{PE: p.id}
			// Deterministic order for reproducible checkpoints.
			ids := make([]lb.ObjID, 0, len(p.chares))
			for id := range p.chares {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool {
				if ids[i].Array != ids[j].Array {
					return ids[i].Array < ids[j].Array
				}
				return ids[i].Index < ids[j].Index
			})
			for _, id := range ids {
				blob, err := pup.Pack(p.chares[id])
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				ck.Arrays = append(ck.Arrays, id.Array)
				ck.Indices = append(ck.Indices, id.Index)
				ck.Loads = append(ck.Loads, p.loads[id])
				ck.Blobs = append(ck.Blobs, blob)
			}
			data, err := pup.Pack(ck)
			if err == nil {
				err = store.Write(fmt.Sprintf("%spe%d", prefix, p.id), data)
			}
			mu.Lock()
			if err != nil && first == nil {
				first = err
			}
			total += int64(len(data))
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	return total, first
}

// restore loads every checkpoint segment under prefix into the new
// incarnation, in parallel. Objects keep their checkpointed PE id; segments
// from PEs beyond the new count are redistributed onto PE (old % new) — this
// only happens if a caller restores a checkpoint into a smaller incarnation
// without the shrink-side LB (e.g. failure recovery).
func restore(rt *Runtime, inc *incarnation, prefix string) error {
	keys := rt.cfg.Store.KeysPrefix(prefix)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	inc.pauseAll()
	defer inc.resumeAll()
	// Unpack segments in parallel, then place serially (map writes).
	cks := make([]*peCheckpoint, len(keys))
	for i, key := range keys {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			data, err := rt.cfg.Store.Read(key)
			if err == nil {
				ck := &peCheckpoint{}
				if err = pup.Unpack(ck, data); err == nil {
					cks[i] = ck
					return
				}
			}
			mu.Lock()
			if first == nil {
				first = fmt.Errorf("segment %s: %w", key, err)
			}
			mu.Unlock()
		}(i, key)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	for _, ck := range cks {
		if ck == nil {
			continue
		}
		target := ck.PE
		if target >= len(inc.pes) {
			target = ck.PE % len(inc.pes)
		}
		p := inc.pes[target]
		for i := range ck.Arrays {
			id := lb.ObjID{Array: ck.Arrays[i], Index: ck.Indices[i]}
			meta := rt.arrayMeta(id.Array)
			obj := meta.typ.factory()
			if err := pup.Unpack(obj, ck.Blobs[i]); err != nil {
				return fmt.Errorf("object %v: %w", id, err)
			}
			p.chares[id] = obj
			p.loads[id] = ck.Loads[i]
			inc.place(id, target)
		}
	}
	return nil
}
