package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/flight"
	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/rng"
)

// RecoveryStats reports what one table's recovery did. The paper's Table 1
// splits recovery into an OCF rebuild and a hot-table rebuild; here both are
// the one traversal timed as Scan, so the breakdown is by pass instead.
// OpenRouter recovers each shard in turn; Router.LastRecovery returns one per
// shard, once every shard's sweep has finished.
type RecoveryStats struct {
	// Serve is how long Open spent on the table before it could serve: the
	// resize replay, any resumed drain, an unclean image's dedup and the
	// empty DRAM arrays the sweep fills.
	Serve time.Duration
	// Sweep runs from the start of recovery until the sweep built the last
	// segment: what Open followed by WaitRecovered costs.
	Sweep time.Duration
	// Scan is the time of the last traversal of the NVT — the sweep, from
	// its start to its last segment — which rebuilds the OCF and SWAR words,
	// the count and the hot table, and feeds the visitor. Operations run
	// beside it.
	Scan time.Duration
	// Dedup is the time of the torn-update dedup pass; 0 after a clean
	// shutdown, which skips it.
	Dedup time.Duration
	// Scans is how many traversals of the NVT recovery made: 1 on a clean
	// image, one more for the dedup after an unclean shutdown, and one more
	// for the OCF a resumed drain needs before it runs.
	Scans int
	// Items is the number of live records found.
	Items int64
	// ResumedRehash reports whether an interrupted resize was completed.
	ResumedRehash bool
	// DuplicatesResolved counts torn update duplicates removed.
	DuplicatesResolved int64
	// CleanShutdown reports whether the table was closed cleanly.
	CleanShutdown bool
	// MediaBlockReads is the 256-byte media blocks charged to recovery's own
	// handle and its traversals, one block per bucket each, whoever built
	// the segment — a sweep worker or an operation that reached it first; a
	// resumed drain's workers charge the resize machinery's handles instead.
	MediaBlockReads uint64
}

// RecoveryVisitor receives every committed record of a table from
// recovery's last traversal — after resize replay and torn-update dedup, so
// each key arrives exactly once, with the value the reopened table will serve.
// The traversal is the sweep, so the visitor runs after Open has returned,
// on the recovery workers' goroutines and on those of operations that build
// a segment first, at once, and must be safe for that. Every record of a
// segment is visited before any operation uses the segment. Layers that keep
// DRAM state derived from the index (bigkv's per-segment liveness) rebuild
// it here instead of scanning the table again.
type RecoveryVisitor func(k kv.Key, v kv.Value)

// recover reads the persisted image, replays any interrupted resize (paper
// §3.7), and leaves the rebuild of the DRAM index to a sweep that
// startSweep launches. visit may be nil.
func (t *Table) recover(visit RecoveryVisitor) error {
	start := time.Now()
	dev := t.dev
	h := dev.NewHandle()

	m := int64(dev.Load(t.metaOff + metaMWord))
	if m <= 0 {
		return fmt.Errorf("core: persisted segment size %d is invalid", m)
	}
	clean := dev.Load(t.metaOff+metaCleanWord) == 1
	h.StorePersist(t.metaOff+metaCleanWord, 0) // we are open again

	st := t.state()
	var stats RecoveryStats
	stats.CleanShutdown = clean

	// Replay an interrupted resize. Level number 2 means the crash hit
	// between requesting the new level and switching pointers: per the
	// paper, apply for the new level again and point the top level at it.
	if st.levelNumber == levelNumRequest {
		replayStart := time.Now()
		_, topSegs := t.levelDescriptor(st.top)
		newSegs := 2 * topSegs
		base, err := dev.Alloc(h, newSegs*m*BucketWords, nvm.BlockWords)
		if err != nil {
			return fmt.Errorf("core: replaying level allocation: %w", err)
		}
		t.writeLevelDescriptor(h, st.drain, base, newSegs)
		// The meta block may still carry the previous, completed resize's
		// drain layout — a crash in this window is exactly how: the next
		// layout is only persisted after the new level exists. Its per-range
		// done counts are meaningless for the level about to be drained, yet
		// plausible enough to pass validation (that level is larger), so
		// retire the whole layout before entering state 3.
		t.clearDrainLayout(h)
		st = tableState{levelNumber: levelNumRehash, top: st.drain, bottom: st.top, drain: st.bottom, generation: st.generation}
		t.setState(h, st)
		t.o.fl.RecoveryStep(flight.RecReplay, time.Since(replayStart), newSegs)
	}

	topBase, topSegs := t.levelDescriptor(st.top)
	bottomBase, bottomSegs := t.levelDescriptor(st.bottom)
	if topSegs <= 0 || bottomSegs <= 0 {
		return fmt.Errorf("core: corrupt level descriptors (%d, %d segments)", topSegs, bottomSegs)
	}
	pr := &tablePair{
		top:    newLevel(topBase, topSegs, m),
		bottom: newLevel(bottomBase, bottomSegs, m),
	}
	t.lv.Store(pr)

	// Level number 3: resume draining the old bottom level from the
	// persisted per-range progress words, using the same parallel chunked
	// machinery as a live expansion — run synchronously here, because it
	// writes NVM, so the table is stable before sessions exist. The drain
	// reads OCF validity in all three levels, so it costs one traversal of
	// its own first.
	if st.levelNumber == levelNumRehash {
		stats.ResumedRehash = true
		drainBase, drainSegs := t.levelDescriptor(st.drain)
		if drainSegs <= 0 {
			return fmt.Errorf("core: corrupt drain descriptor (%d segments)", drainSegs)
		}
		drainLvl := newLevel(drainBase, drainSegs, m)
		ocfStart := time.Now()
		for _, lvl := range [3]*level{pr.top, pr.bottom, drainLvl} {
			t.scanLevel(lvl)
		}
		stats.Scans++
		t.o.fl.RecoveryStep(flight.RecOCF, time.Since(ocfStart), pr.top.buckets()+pr.bottom.buckets()+drainLvl.buckets())
		drainStart := time.Now()
		task := t.resumeDrainTask(h, drainLvl,
			tableState{levelNumber: levelNumStable, top: st.top, bottom: st.bottom, drain: levelSlotUnused, generation: st.generation + 1})
		t.draining.Store(task)
		if task.remaining.Load() == 0 {
			// Crashed after the last progress persist, before the stable
			// state word: nothing left to move, just finalise.
			t.finishDrain(h, task)
		} else {
			t.runDrainWorkers(task)
		}
		if task.err != nil {
			return task.err
		}
		t.o.fl.RecoveryStep(flight.RecDrain, time.Since(drainStart), drainLvl.buckets())
	}

	// After an unclean shutdown a crashed out-of-place update may have left
	// both record versions committed; resolve toward the newer stamp. This
	// writes NVM too, so it also runs before Open returns.
	if !clean {
		dedupStart := time.Now()
		stats.DuplicatesResolved = t.dedupTornUpdates(h)
		stats.Dedup = time.Since(dedupStart)
		stats.Scans++
		t.o.fl.RecoveryStep(flight.RecDedup, stats.Dedup, stats.DuplicatesResolved)
	}

	// The scan (the paper's parallel recovery) writes nothing durable, so it
	// becomes the sweep: one traversal, segment by segment, that rebuilds
	// the OCF and SWAR words, counts the records, fills the hot table and
	// feeds the visitor, behind Open.
	if t.opts.HotSlotsPerBucket > 0 {
		t.hot = newHotTable(pr.top.segments, pr.bottom.segments, m, t.opts.HotSlotsPerBucket, t.opts.Replacer)
	}
	stats.Scans++
	t.recovery = stats
	t.sw = &sweep{t: t, pr: pr, visit: visit, start: start,
		baseReads: h.Stats().MediaBlockReads, done: make(chan struct{}),
		state: [2][]atomic.Uint32{make([]atomic.Uint32, pr.top.segments), make([]atomic.Uint32, pr.bottom.segments)}}
	t.sw.pending.Store(pr.top.segments + pr.bottom.segments)
	return nil
}

// sweepHook, when non-nil, runs on each sweep worker before every segment it
// claims; tests hold the sweep there. Always nil in production.
var sweepHook func()

// sweep is the deferred part of a recovery: the per-segment rebuild of the
// DRAM index over the recovery pair. Open returns once it is launched; the
// recovery workers then claim segments in order off a cursor, and any
// operation that reaches a segment first builds it itself (buildCandidates).
// Whoever needs the whole index — an expansion, Count, the invariant
// checker, the stats — helps through the same cursor and waits (waitSwept).
// INTERNALS §7 argues the orderings.
type sweep struct {
	t     *Table
	pr    *tablePair // the recovery pair: no expansion replaces it before the sweep ends
	visit RecoveryVisitor
	start time.Time // recovery's start, which Sweep is measured from
	scan  time.Time // the workers' launch, which Scan is measured from
	// baseReads is the media blocks recovery's own handle read before the
	// sweep.
	baseReads uint64

	// state is each segment's build state, top level first: segUnbuilt,
	// segBuilding or segBuilt.
	state   [2][]atomic.Uint32
	next    atomic.Int64 // claim cursor: the top level's segments, then the bottom's
	pending atomic.Int64 // segments not yet built; 0 is the steady-state check
	items   atomic.Int64 // records the builds found
	stop    atomic.Bool  // set by Close: background workers quit between segments
	workers sync.WaitGroup
	done    chan struct{} // closed when the last segment is built
}

// startSweep launches the recovery workers on the sweep and records how long
// Open took. Called once the table is otherwise ready to serve.
func (t *Table) startSweep() {
	sw := t.sw
	if sw == nil {
		return
	}
	sw.scan = time.Now()
	t.recovery.Serve = sw.scan.Sub(sw.start)
	hook := sweepHook
	n := min(int64(t.opts.recoveryWorkers), sw.pending.Load())
	for i := int64(0); i < n; i++ {
		sw.workers.Add(1)
		go func() {
			defer sw.workers.Done()
			sw.run(true, hook)
		}()
	}
}

// run builds segments off the cursor until none is left to claim — or, for
// a background worker, until Close stops the sweep. hook runs before each
// claim.
func (sw *sweep) run(background bool, hook func()) {
	top, bottom := sw.pr.top.segments, sw.pr.bottom.segments
	for {
		if hook != nil {
			hook()
		}
		if background && sw.stop.Load() {
			return
		}
		i := sw.next.Add(1) - 1
		switch {
		case i < top:
			sw.build(0, i)
		case i < top+bottom:
			sw.build(1, i-top)
		default:
			return
		}
	}
}

// build makes segment seg of the recovery pair's level li (0 the top)
// servable. The goroutine whose CAS moves it from unbuilt to building runs
// the per-bucket routine over its buckets and publishes it built; any other
// waits until it is. Building waits on no slot lock, so an operation may
// build while it holds some.
func (sw *sweep) build(li int, seg int64) {
	st := &sw.state[li][seg]
	if st.Load() == segBuilt {
		return
	}
	if !st.CompareAndSwap(segUnbuilt, segBuilding) {
		for spin := 0; st.Load() != segBuilt; spin++ {
			spinBackoff(spin)
		}
		return
	}
	t := sw.t
	lvl := [2]*level{sw.pr.top, sw.pr.bottom}[li]
	h := t.dev.NewHandle()
	n := t.scanBuckets(h, lvl, seg*lvl.m, (seg+1)*lvl.m, t.hot, sw.visit,
		rng.New(t.opts.Seed^uint64(lvl.base+seg*lvl.m+1)<<13))
	t.recoveryReads.Add(h.Stats().MediaBlockReads)
	sw.items.Add(n)
	t.count.Add(n)
	st.Store(segBuilt)
	if sw.pending.Add(-1) == 0 {
		rs := &t.recovery
		rs.Items = sw.items.Load()
		rs.Scan = time.Since(sw.scan)
		rs.Sweep = time.Since(sw.start)
		rs.MediaBlockReads = t.recoveryReads.Load() + sw.baseReads
		t.o.fl.RecoveryStep(flight.RecSweep, rs.Sweep, rs.Items)
		close(sw.done)
	}
}

// Segment build states (sweep.state).
const (
	segUnbuilt uint32 = iota
	segBuilding
	segBuilt
)

// buildCandidates builds the key's candidate segments the sweep has not
// reached, before an operation looks at their OCF words. Every walk starts
// here, and so does a displacement for its victim's candidates. Once the
// sweep is over it is one load of the pending count, whose last decrement
// is ordered after every build. While segments are pending
// the table's pair is the recovery pair: expansions wait for the sweep.
func (t *Table) buildCandidates(h1, h2 uint64) {
	if sw := t.sw; sw != nil && sw.pending.Load() != 0 {
		sw.buildKey(h1, h2)
	}
}

// buildKey builds the segments level.candidates picks for the key in each
// level of the recovery pair: h1's and h2's.
func (sw *sweep) buildKey(h1, h2 uint64) {
	for li, lvl := range [2]*level{sw.pr.top, sw.pr.bottom} {
		sw.build(li, int64(h1%uint64(lvl.segments)))
		sw.build(li, int64(h2%uint64(lvl.segments)))
	}
}

// waitSwept returns once the recovery sweep has built every segment, helping
// it through the cursor first. Eager recovery is Open followed by this; it
// returns at once for a created table, or once the sweep is over.
func (t *Table) waitSwept() {
	sw := t.sw
	if sw == nil {
		return
	}
	select {
	case <-sw.done:
		return
	default:
	}
	sw.run(false, nil)
	<-sw.done
}

// segmentsPending is how many segments the recovery sweep has yet to build.
func (t *Table) segmentsPending() int64 {
	if t.sw == nil {
		return 0
	}
	return t.sw.pending.Load()
}

// stopSweep stops the background sweep workers between segments and joins
// them. The segments they leave unbuilt are still built on first touch.
func (t *Table) stopSweep() {
	if sw := t.sw; sw != nil {
		sw.stop.Store(true)
		sw.workers.Wait()
	}
}

// scanBuckets is recovery's one per-bucket routine, run over buckets
// [lo, hi) of lvl: by the sweep one segment at a time, and by the OCF-only
// traversal a resumed drain needs. Each bucket is read once (one ReadAccess)
// and each committed key hashed once; the bucket's eight OCF words and its
// SWAR word are built locally and stored whole. Invalid slots are stored
// too, so scanning a level whose OCF is already built (after a resumed
// drain) leaves it as a fresh build would. Plain stores are safe: nobody
// else touches these buckets' words until the build publishes them (the
// sweep's built state, or the return of recover). With visit non-nil every
// record is handed to it. With hot non-nil every record then enters it —
// cold, as after any other insert, and as a fresh fill: no operation has
// reached the key yet, and RecoveryVisitor's contract (each key exactly
// once) means no other build meets it, so there is never an entry to update
// in place. A lock-free hot read can find the entry before the segment is
// published built, which is why the visitor goes first. r is the fill's
// replacement RNG. Returns the records found.
func (t *Table) scanBuckets(h *nvm.Handle, lvl *level, lo, hi int64, hot *hotTable, visit RecoveryVisitor, r *rng.Xorshift128) int64 {
	var n int64
	for b := lo; b < hi; b++ {
		h.ReadAccess(lvl.bucketWord(b), BucketWords)
		var fpw uint64
		for s := 0; s < SlotsPerBucket; s++ {
			off := lvl.slotWord(b, s)
			w3 := h.Load(off + 3)
			var c uint32
			if kv.ValidOf(w3) {
				k := kv.UnpackKey(h.Load(off), h.Load(off+1))
				h1 := hashfn.Hash1(k[:])
				fp := hashfn.Fingerprint(h1)
				c = ocfWord(true, fp, 0)
				fpw |= uint64(fp) << (8 * s)
				n++
				if hot != nil || visit != nil {
					v, _ := kv.UnpackValue(h.Load(off+2), w3)
					if visit != nil {
						visit(k, v)
					}
					if hot != nil {
						top, bottom, tb, bb := hot.lockBuckets(h1)
						hot.putLocked(top, bottom, tb, bb, k, v, fp, r, true)
						unlockBuckets(top, bottom, tb, bb)
					}
				}
			}
			lvl.ocf[b*SlotsPerBucket+int64(s)] = c
		}
		lvl.fpw[b] = fpw
	}
	return n
}

// scanLevel builds all of lvl's OCF and SWAR words on the recovery workers:
// the traversal a resumed drain needs before it runs.
func (t *Table) scanLevel(lvl *level) {
	t.parallelBuckets(lvl, func(_ int, h *nvm.Handle, lo, hi int64) {
		t.scanBuckets(h, lvl, lo, hi, nil, nil, nil)
	})
}

// parallelBuckets splits lvl's buckets into one contiguous range per
// recovery worker and runs fn on each range on its own goroutine with its
// own NVM handle, whose media block reads accumulate into t.recoveryReads.
// w numbers the ranges from 0, and is below the recovery worker count.
func (t *Table) parallelBuckets(lvl *level, fn func(w int, h *nvm.Handle, lo, hi int64)) {
	workers := t.opts.recoveryWorkers
	buckets := lvl.buckets()
	if int64(workers) > buckets {
		workers = int(buckets)
	}
	run := func(w int, lo, hi int64) {
		h := t.dev.NewHandle()
		fn(w, h, lo, hi)
		t.recoveryReads.Add(h.Stats().MediaBlockReads)
	}
	if workers <= 1 {
		run(0, 0, buckets)
		return
	}
	var wg sync.WaitGroup
	chunk := (buckets + int64(workers) - 1) / int64(workers)
	w := 0
	for lo := int64(0); lo < buckets; lo += chunk {
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			run(w, lo, hi)
		}(w, lo, min(lo+chunk, buckets))
		w++
	}
	wg.Wait()
}

// dedupTornUpdates finds keys committed in two slots (the window a crashed
// out-of-place update leaves) and invalidates the copy with the older
// stamp. A duplicate can only be the pair an interrupted update left, so the
// loser is decided by the commit stamps. The pass is a parallel partition:
// each recovery worker reads its bucket ranges once and hands every
// committed record to the worker its key hash names; then each worker finds
// the duplicates among the records handed to it, in a map of its own sized
// to them — no lock on the per-record path. It judges validity from the
// persisted valid bits, not the OCF, so it runs before the sweep builds the
// OCF; the sweep also takes the losers' cleared bits into the OCF, which is
// why a loser's clear touches only the NVT. Returns how many duplicates were
// resolved.
func (t *Table) dedupTornUpdates(h *nvm.Handle) int64 {
	type entry struct {
		k     kv.Key
		ref   slotRef
		stamp uint8
	}
	workers := t.opts.recoveryWorkers
	parts := make([][][]entry, workers) // parts[from][to]
	for i := range parts {
		parts[i] = make([][]entry, workers)
	}
	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		t.parallelBuckets(lvl, func(w int, wh *nvm.Handle, lo, hi int64) {
			out := parts[w]
			for b := lo; b < hi; b++ {
				wh.ReadAccess(lvl.bucketWord(b), BucketWords)
				for s := 0; s < SlotsPerBucket; s++ {
					self := slotRef{lvl, b, s}
					off := self.wordOff()
					w3 := wh.Load(off + 3)
					if !kv.ValidOf(w3) {
						continue
					}
					k := kv.UnpackKey(wh.Load(off), wh.Load(off+1))
					to := hashfn.Hash1(k[:]) % uint64(workers)
					out[to] = append(out[to], entry{k: k, ref: self, stamp: metaStamp(kv.MetaOf(w3))})
				}
			}
		})
	}

	var removed atomic.Int64
	var clearMu sync.Mutex // serialises the rare loser-clearing writes on h
	var wg sync.WaitGroup
	for to := 0; to < workers; to++ {
		wg.Add(1)
		go func(to int) {
			defer wg.Done()
			size := 0
			for from := range parts {
				size += len(parts[from][to])
			}
			seen := make(map[kv.Key]entry, size)
			for from := range parts {
				for _, e := range parts[from][to] {
					prev, dup := seen[e.k]
					if !dup {
						seen[e.k] = e
						continue
					}
					// Decide the winner: newer stamp, position as tie-break.
					loser, winner := e, prev
					if stampNewer(e.stamp, prev.stamp) ||
						(!stampNewer(prev.stamp, e.stamp) && posLess(prev.ref, e.ref)) {
						loser, winner = prev, e
					}
					seen[e.k] = winner
					clearMu.Lock()
					stageClear(h, loser.ref, t.dev.Load(loser.ref.wordOff()+3))
					h.FlushBarrier()
					h.Fence()
					clearMu.Unlock()
					removed.Add(1)
				}
			}
		}(to)
	}
	wg.Wait()
	return removed.Load()
}

func posLess(a, b slotRef) bool {
	if a.lvl != b.lvl {
		return a.lvl.base < b.lvl.base
	}
	if a.b != b.b {
		return a.b < b.b
	}
	return a.s < b.s
}
