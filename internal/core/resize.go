package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

// Resizing follows level hashing as the paper describes (§3.1, §3.7): a new
// top level with twice the current top's segments is allocated, the old top
// becomes the bottom level without rehashing, and the old bottom's records
// are rehashed ("drained") into the new structure. The persistent state
// machine uses the paper's level numbers — 2 while the new level is being
// requested, 3 while rehashing — with each transition committed by one
// atomic 8-byte persist of the state word.
//
// The drain itself is incremental and parallel: the pointer swap (state
// 2→3) is an atomic level-pair publication — no reader is excluded, not
// even briefly. The swap publishes the drain task, then the new pair, then
// bumps the global epoch and waits one grace period (every session slot
// idle or past the bump, see epoch.go) before the drain starts; the grace
// exists solely so that a straggler critical section still holding the old
// pair finishes any placement into the old bottom before a drain worker can
// scan past it. The old bottom is then rehashed by four drain workers
// (Options.drainWorkers), each owning a disjoint bucket range with its own
// NVM handle and its own persisted progress word, working in 64-bucket
// chunks (drainChunkBuckets) under per-slot OCF locks only. Foreground operations proceed
// throughout state 3 — they walk the drain level as a third lookup level
// until it empties — and foreground writers that run out of space during
// state 3 help drain before retrying. Records move as groups of staged moves
// through the one write protocol (groupcommit.go): up to one batch chunk
// of records (batchChunk) share the three barriers. A crash mid-drain resumes from the
// per-range progress words, which only ever under-report — a chunk's word
// is persisted after its last group's clears — and re-draining a bucket is
// idempotent because a move stages behind an existence check.

// drainRange is one worker's share of the drain level's buckets. Claiming is
// in-memory (the chunk cursor); completion is durable (the progress word
// advances only over a contiguous prefix of finished chunks, so a crash can
// only under-report progress).
type drainRange struct {
	idx    int
	lo, hi int64        // bucket bounds [lo, hi)
	next   atomic.Int64 // claim cursor, starts at the resumed completedTo

	// completedTo tracks the durably finished contiguous prefix; doneChunks
	// parks out-of-order chunk completions (start → end) until the prefix
	// reaches them.
	mu          sync.Mutex
	completedTo int64
	doneChunks  map[int64]int64
}

// drainTask is one in-progress rehash of an old bottom level.
type drainTask struct {
	src    *level
	ranges []*drainRange
	chunk  int64

	// remaining counts buckets not yet durably complete; the worker whose
	// completion drops it to zero finalises the resize.
	remaining atomic.Int64

	began      time.Time
	finalState tableState // stable state persisted at completion
	blocking   bool       // drained inline under the exclusive resize lock

	// ready is closed when the drain may start scanning the source level:
	// for a live expansion, once the post-swap grace period has elapsed (so
	// every straggler critical section that could still place a record into
	// the old bottom has exited); immediately for blocking/recovery tasks,
	// whose exclusivity makes stragglers impossible. Workers and helpers
	// must not claim chunks before ready.
	ready chan struct{}

	failed   atomic.Bool
	failOnce sync.Once
	err      error
	done     chan struct{} // closed at completion or failure
}

// fail records the first error and releases waiters. The task stays
// installed: the table remains in state 3 with the drain level readable, so
// no records are lost. Waiters parked on done surface err once; the next
// expansion attempt retires the task and resumes from the persisted progress
// (retryFailedDrain), so a transient failure never freezes growth for good.
func (task *drainTask) fail(err error) {
	task.failOnce.Do(func() {
		task.err = err
		task.failed.Store(true)
		close(task.done)
	})
}

// claim hands out the next unprocessed chunk, preferring the worker's own
// range and stealing from the others once it empties. ok=false means no
// work is left to claim (completion may still be in flight elsewhere).
func (task *drainTask) claim(worker int) (r *drainRange, lo, hi int64, ok bool) {
	n := len(task.ranges)
	for i := 0; i < n; i++ {
		r := task.ranges[(worker+i)%n]
		for {
			cur := r.next.Load()
			if cur >= r.hi {
				break
			}
			end := cur + task.chunk
			if end > r.hi {
				end = r.hi
			}
			if r.next.CompareAndSwap(cur, end) {
				return r, cur, end, true
			}
		}
	}
	return nil, 0, 0, false
}

// expand grows the table. observedGen is the generation the caller saw when
// it ran out of space: if another goroutine already expanded, expand returns
// immediately and the caller retries.
//
// With an incremental drain already running, expand helps finish it instead
// of starting another doubling — the caller retries against the swapped-in
// structure once the drain completes. Otherwise expand performs the state
// transitions and pointer swap under the exclusive lock, then either drains
// inline (Options.BlockingResize, the stop-the-world baseline) or returns
// immediately with background workers draining, so the caller's retry
// proceeds against the new top level while the rehash is still in flight.
func (t *Table) expand(observedGen uint64) error {
	// A doubling rehashes and promotes whole levels, so the recovery sweep
	// must have built them all first.
	t.waitSwept()
	for {
		if task := t.draining.Load(); task != nil {
			if !task.failed.Load() {
				return t.helpDrain(task)
			}
			// A failed drain is not terminal: the failure may have been
			// transient (retry-budget exhaustion under churn, momentary
			// fullness), and the persisted per-range progress supports an
			// idempotent resume. Retire the task and drain again rather than
			// freezing growth until restart.
			if task = t.retryFailedDrain(task); task != nil {
				return t.helpDrain(task)
			}
			continue // retired or superseded; re-evaluate
		}

		t.resizeMu.Lock()
		st := t.state()
		if st.generation != observedGen {
			t.resizeMu.Unlock()
			return nil // somebody else expanded first
		}
		if t.draining.Load() != nil {
			// Installed between our check and the lock; help (or retry) it.
			t.resizeMu.Unlock()
			continue
		}
		return t.expandLocked(st)
	}
}

// expandLocked performs the doubling proper. Caller holds resizeMu
// exclusively with no drain task installed; expandLocked releases it.
func (t *Table) expandLocked(st tableState) error {
	began := time.Now()
	h := t.dev.NewHandle()

	// Pick the descriptor slot not currently in use.
	free := uint8(0)
	for free == st.top || free == st.bottom {
		free++
	}

	// Paper state 2: new level requested.
	t.setState(h, tableState{levelNumber: levelNumRequest, top: st.top, bottom: st.bottom, drain: free, generation: st.generation})

	pr := t.pair()
	m := pr.top.m
	newSegs := 2 * pr.top.segments
	base, err := t.dev.Alloc(h, newSegs*m*BucketWords, nvm.BlockWords)
	if err != nil {
		// Roll back to stable; the table is full for real.
		t.setState(h, tableState{levelNumber: levelNumStable, top: st.top, bottom: st.bottom, drain: levelSlotUnused, generation: st.generation + 1})
		t.resizeMu.Unlock()
		return fmt.Errorf("%w: device cannot hold a %d-segment level: %v", scheme.ErrFull, newSegs, err)
	}
	t.writeLevelDescriptor(h, free, base, newSegs)

	drainLvl := pr.bottom
	task := t.newDrainTask(drainLvl, int64(t.opts.drainWorkers), began, t.opts.BlockingResize,
		tableState{levelNumber: levelNumStable, top: free, bottom: st.top, drain: levelSlotUnused, generation: st.generation + 1})
	t.persistDrainProgress(h, task)

	// Paper state 3: pointers switched, rehash in progress. From here the
	// drain level is reachable through the persisted descriptor and the
	// progress words.
	t.setState(h, tableState{levelNumber: levelNumRehash, top: free, bottom: st.top, drain: st.bottom, generation: st.generation})

	if task.blocking {
		// Baseline mode: quiesce every session, swap, drain to completion,
		// then let sessions back in — the stop-the-world behaviour the
		// BlockingResize experiments measure.
		t.epochExclude()
		t.draining.Store(task)
		t.lv.Store(&tablePair{top: newLevel(base, newSegs, m), bottom: pr.top})
		if t.hot != nil {
			t.hot.promote(newSegs, m)
		}
		t.epochGlobal.Add(1)
		t.runDrainWorkers(task)
		t.epochRelease()
		t.resizeMu.Unlock()
		return task.err
	}

	// Live swap. Publication order matters: the drain task must be visible
	// before the new pair is (walkLevels loads the pair first, then the
	// task), so a reader that observes the new pair always also observes the
	// drain level — the old bottom would otherwise silently vanish from its
	// walk while still holding records.
	t.draining.Store(task)
	t.lv.Store(&tablePair{top: newLevel(base, newSegs, m), bottom: pr.top})
	if t.hot != nil {
		// promote already composes with concurrent hot readers and mutators;
		// no exclusivity needed.
		t.hot.promote(newSegs, m)
	}
	target := t.epochGlobal.Add(1)
	t.resizeMu.Unlock()
	t.o.resizeSwap(st.generation, time.Since(began))

	// The swap is done and the caller may retry against the new top
	// immediately; only the drain start waits for the grace period, off the
	// caller's path.
	go func() {
		t.waitGrace(target)
		close(task.ready)
		for w := 0; w < len(task.ranges); w++ {
			go t.drainWorker(task, w)
		}
	}()
	return nil
}

// helpDrain is the foreground writer's contribution during state 3: rehash
// chunks until none are left to claim, then wait for the last in-flight
// chunk to complete. The generation bumps at completion, so the caller's
// retry observes the finished doubling.
func (t *Table) helpDrain(task *drainTask) error {
	// Don't touch the source level before the post-swap grace period ends —
	// same rule as the background workers (who are only started after it).
	select {
	case <-task.ready:
	case <-task.done:
		return task.err
	}
	h := t.dev.NewHandle()
	base := h.Stats()
	var group []pendingCommit
	for !task.failed.Load() {
		r, lo, hi, ok := task.claim(0)
		if !ok {
			break
		}
		t.drainChunk(h, &group, task, r, lo, hi)
		t.o.rec.DrainHelp()
	}
	t.o.rec.AddNVM(h.Stats().Sub(base))
	<-task.done
	return task.err
}

// retryFailedDrain retires a failed drain task and installs a replacement
// rebuilt from the persisted per-range progress words, resuming the rehash
// where it durably left off (re-draining is idempotent — see resumeDrainTask).
// Returns the replacement for the caller to help along, or nil when the
// failed task was already superseded or the resumed task had nothing left to
// do. Stragglers still finishing chunks of the failed task are harmless: they
// only advance durable progress, and concurrent re-drains of a bucket compose
// through the per-slot locks and the existence check.
func (t *Table) retryFailedDrain(failed *drainTask) *drainTask {
	t.resizeMu.Lock()
	if t.draining.Load() != failed {
		// Another goroutine already retired it (or a fresh expansion won the
		// race); the caller re-evaluates against the current task.
		t.resizeMu.Unlock()
		return nil
	}
	h := t.dev.NewHandle()
	task := t.resumeDrainTask(h, failed.src, failed.finalState)
	task.blocking = false // resumed live: chunks take the shared lock
	t.draining.Store(task)
	t.resizeMu.Unlock()
	if task.remaining.Load() == 0 {
		// The failure landed after the last durable completion; finalise.
		t.finishDrain(h, task)
		return nil
	}
	for w := 0; w < len(task.ranges); w++ {
		go t.drainWorker(task, w)
	}
	return task
}

// newDrainTask splits src into up to nr disjoint ranges, each starting at
// its lo; resumeDrainTask applies a crash image's progress afterwards.
func (t *Table) newDrainTask(src *level, nr int64, began time.Time, blocking bool, final tableState) *drainTask {
	buckets := src.buckets()
	nr = max(1, min(nr, MaxDrainRanges, buckets))
	task := &drainTask{
		src:        src,
		chunk:      int64(t.opts.drainChunkBuckets),
		began:      began,
		finalState: final,
		blocking:   blocking,
		ready:      make(chan struct{}),
		done:       make(chan struct{}),
	}
	if blocking {
		close(task.ready) // exclusive section: no grace period to wait out
	}
	per := (buckets + nr - 1) / nr
	for i := int64(0); i < nr; i++ {
		lo := i * per
		hi := min(lo+per, buckets)
		if lo >= hi {
			break
		}
		r := &drainRange{idx: int(i), lo: lo, hi: hi, completedTo: lo, doneChunks: map[int64]int64{}}
		r.next.Store(lo)
		task.ranges = append(task.ranges, r)
		task.remaining.Add(hi - lo)
	}
	return task
}

// resumeDrainTask rebuilds a drain task from the geometry a crashed resize
// persisted: the range count from the meta block and each range's durable
// progress. Progress words only ever under-report, so resuming re-drains at
// most the chunks that were in flight — idempotent by the existence check.
// An image without a persisted range layout (a crash inside state 2's
// replay) has drained nothing under one and gets a fresh layout. Recovery
// tasks run blocking: no sessions exist, so no shared-lock choreography is
// needed.
func (t *Table) resumeDrainTask(h *nvm.Handle, src *level, final tableState) *drainTask {
	nr := int64(t.dev.Load(t.metaOff + metaDrainRanges))
	if nr < 1 || nr > MaxDrainRanges || nr > src.buckets() {
		task := t.newDrainTask(src, int64(t.opts.drainWorkers), time.Now(), true, final)
		t.persistDrainProgress(h, task)
		return task
	}
	task := t.newDrainTask(src, nr, time.Now(), true, final)
	for _, r := range task.ranges {
		done := int64(t.dev.Load(t.metaOff + metaDrainBase + int64(r.idx)))
		if done < 0 || done > r.hi-r.lo {
			done = 0
		}
		r.completedTo += done
		r.next.Store(r.completedTo)
		task.remaining.Add(-done)
	}
	return task
}

// persistDrainProgress durably records the range layout and zeroes every
// progress word, so a crash any time after state 3 resumes with the same
// geometry. Must run before the state word flips to levelNumRehash.
func (t *Table) persistDrainProgress(h *nvm.Handle, task *drainTask) {
	for _, r := range task.ranges {
		h.StorePersist(t.metaOff+metaDrainBase+int64(r.idx), uint64(r.completedTo-r.lo))
	}
	h.StorePersist(t.metaOff+metaDrainRanges, uint64(len(task.ranges)))
}

// clearDrainLayout durably retires the persisted drain geometry — the range
// count first, since it alone decides whether the progress words are ever
// read, then the progress words themselves. A resume that runs after this
// sees no layout and builds a fresh one sized to the level it is draining.
func (t *Table) clearDrainLayout(h *nvm.Handle) {
	h.StorePersist(t.metaOff+metaDrainRanges, 0)
	for i := int64(0); i < MaxDrainRanges; i++ {
		h.StorePersist(t.metaOff+metaDrainBase+i, 0)
	}
}

// runDrainWorkers drains the task to completion on the calling goroutine
// plus len(ranges)-1 helpers — the blocking baseline and the recovery path.
// It joins the helpers (not merely the task) so the caller may mutate table
// state the workers read — recovery continues into initVolatile.
func (t *Table) runDrainWorkers(task *drainTask) {
	n := len(task.ranges)
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t.drainWorker(task, w)
		}(w)
	}
	t.drainWorker(task, 0)
	wg.Wait()
	<-task.done
}

// drainWorker claims and rehashes chunks until the task runs out of work or
// fails. Each worker owns its NVM handle and bridges its device traffic into
// the metrics registry on exit, through the table's handle.
func (t *Table) drainWorker(task *drainTask, worker int) {
	h := t.dev.NewHandle()
	base := h.Stats()
	var group []pendingCommit
	for !task.failed.Load() {
		r, lo, hi, ok := task.claim(worker)
		if !ok {
			break
		}
		t.drainChunk(h, &group, task, r, lo, hi)
	}
	t.o.rec.AddNVM(h.Stats().Sub(base))
}

// drainChunk rehashes buckets [lo, hi) of one range, then durably completes
// them. No table-wide lock is needed: the level pointers cannot change while
// the task is installed (expansion is gated on draining being nil), the
// device words are individually atomic, and record movement is covered by
// the per-slot OCF locks. Each committed record is staged as a move
// (stageMove), and the staged moves commit as a group once there are
// batchChunk of them and when the chunk ends; the progress word follows
// the last group, so it is never durable ahead of the clears it covers.
// Groups end on bucket boundaries: the clears of one bucket share cache
// lines, and a line staged by one group is not dirtied by the next. group is
// the caller's reusable buffer. A record that cannot be staged fails the
// whole task — after the group staged so far has committed, so a retry
// resumes from a consistent image; its record stays committed and readable
// in the drain level.
func (t *Table) drainChunk(h *nvm.Handle, group *[]pendingCommit, task *drainTask, r *drainRange, lo, hi int64) {
	start := time.Now()
	src := task.src
	pending := (*group)[:0]
	var moved int64
	var err error
chunk:
	for b := lo; b < hi; b++ {
		h.ReadAccess(src.bucketWord(b), BucketWords)
		for s := 0; s < SlotsPerBucket; s++ {
			p, staged, e := t.stageMove(h, slotRef{src, b, s})
			if e != nil {
				err = e
				break chunk
			}
			if staged {
				pending = append(pending, p)
				if p.newRef.lvl != nil {
					moved++
				}
			}
		}
		if len(pending) >= t.opts.batchChunk {
			t.commitGroup(h, pending, nil, nil)
			pending = pending[:0]
		}
	}
	t.commitGroup(h, pending, nil, nil) // the chunk's last group, or what a failure found staged
	*group = pending[:0]
	if err != nil {
		task.fail(err)
		return
	}
	t.o.drainChunk(hi-lo, moved, time.Since(start))
	t.completeChunk(h, task, r, lo, hi)
}

// completeChunk advances the range's durable progress over the contiguous
// prefix of finished chunks and, when the whole task is durably complete,
// finalises the resize.
func (t *Table) completeChunk(h *nvm.Handle, task *drainTask, r *drainRange, lo, hi int64) {
	r.mu.Lock()
	r.doneChunks[lo] = hi
	advanced := int64(0)
	for {
		end, ok := r.doneChunks[r.completedTo]
		if !ok {
			break
		}
		delete(r.doneChunks, r.completedTo)
		advanced += end - r.completedTo
		r.completedTo = end
	}
	if advanced > 0 {
		h.StorePersist(t.metaOff+metaDrainBase+int64(r.idx), uint64(r.completedTo-r.lo))
	}
	r.mu.Unlock()
	if advanced > 0 && task.remaining.Add(-advanced) == 0 {
		t.finishDrain(h, task)
	}
}

// finishDrain persists the stable state (bumping the generation), clears the
// drain level from the lookup path and releases every waiter. Called exactly
// once: by the goroutine whose chunk completion emptied the task, or by
// recovery when the resumed image was already fully drained.
func (t *Table) finishDrain(h *nvm.Handle, task *drainTask) {
	t.setState(h, task.finalState)
	// Retire the persisted drain layout while expansion is still gated on
	// this task (draining non-nil, so no new layout can be written yet): a
	// later state-2 crash replay must never honour this resize's geometry
	// against its own, larger drain level.
	t.clearDrainLayout(h)
	t.draining.Store(nil)
	t.o.resizeDone(task.finalState.generation, time.Since(task.began))
	close(task.done)
}

// stageMove is phase A of one drain move. It takes the source slot's OCF
// lock — a foreground writer that owns it (an update moving the record out, a
// delete clearing it) has a short critical section and is waited out — and,
// for a committed record, stages a copy under its own stamp into a free slot
// of the new structure; a record already committed there (the crash-resume
// case) becomes an entry that only clears the source. staged=false with a nil
// error means the slot holds nothing to move. On error the source is released
// as it was found. The waits here run with the caller's earlier moves still
// locked; INTERNALS §6 argues why nobody they wait on can be waiting on those.
func (t *Table) stageMove(h *nvm.Handle, ref slotRef) (p pendingCommit, staged bool, err error) {
	src, b, s := ref.lvl, ref.b, ref.s
	var c uint32
	for attempt := 0; ; attempt++ {
		c = src.ocfLoad(b, s)
		if ocfIsLocked(c) {
			spinBackoff(attempt)
			continue
		}
		if !ocfIsValid(c) {
			return p, false, nil // empty (or emptied since the bucket read)
		}
		if src.ocfTryLock(b, s, c) {
			break
		}
	}
	// No ReadAccess: the slot lies in the one media block drainChunk charged.
	off := ref.wordOff()
	w3 := h.Load(off + 3)
	if !kv.ValidOf(w3) {
		// OCF said valid but the record is gone — never expected while we
		// hold the lock; repair the OCF rather than lose the invariant.
		ref.release(false, 0, c)
		return p, false, nil
	}
	k := kv.UnpackKey(h.Load(off), h.Load(off+1))
	v, meta := kv.UnpackValue(h.Load(off+2), w3)
	h1, h2, fp := hashKV(k[:])
	p = pendingCommit{op: opMove, h1: h1, fp: fp, oldRef: ref, oldC: c, oldW3: w3}

	// The existence check that makes re-draining after a crash idempotent
	// (INTERNALS §10 argues why it is conclusive).
	var ps probeStats
	switch _, res := t.walk(h, k, h1, h2, fp, &ps, walkPair); res {
	case lookupFound:
		return p, true, nil
	case lookupContended:
		ref.release(true, fp, c)
		return p, false, fmt.Errorf("core: drain existence check exhausted its retry budget")
	}
	dst, dc, ok := t.lockEmptySlot(h1, h2, nil)
	for attempt := 0; !ok && attempt < contendedRetryMax; attempt++ {
		// Transient fullness: concurrent writers each hold one extra slot
		// mid-move. Displace once, back off, retry.
		if !t.displaceOne(h, h1, h2) {
			spinBackoff(spinYields + attempt)
		}
		dst, dc, ok = t.lockEmptySlot(h1, h2, nil)
	}
	if !ok {
		ref.release(true, fp, c)
		return p, false, fmt.Errorf("%w: rehash found no slot for a record (load factor anomaly)", scheme.ErrFull)
	}
	p.newRef, p.newC = dst, dc
	p.w3 = writeSlotStage(h, dst, k, v, metaStamp(meta))
	return p, true, nil
}
