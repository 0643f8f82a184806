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

// RecoveryStats reports what one table's recovery did, matching the
// breakdown in the paper's Table 1 (OCF rebuild time, hot table rebuild
// time, total). OpenRouter recovers each shard in turn; Router.LastRecovery
// returns one per shard.
type RecoveryStats struct {
	// OCFRebuild is the time spent scanning the NVT to rebuild the filter.
	OCFRebuild time.Duration
	// HotRebuild is the time spent repopulating the DRAM hot table.
	HotRebuild time.Duration
	// Total covers everything: resize replay, OCF, dedup, hot table.
	Total time.Duration
	// Items is the number of live records found.
	Items int64
	// ResumedRehash reports whether an interrupted resize was completed.
	ResumedRehash bool
	// DuplicatesResolved counts torn update duplicates removed.
	DuplicatesResolved int64
	// CleanShutdown reports whether the table was closed cleanly.
	CleanShutdown bool
	// MediaBlockReads is the 256-byte media blocks charged to recovery's own
	// handle and its parallel bucket traversals (OCF, dedup, final pass); a
	// resumed drain's workers charge the resize machinery's handles instead.
	MediaBlockReads uint64
}

// RecoveryVisitor receives every committed record of a table from
// recovery's last traversal — after resize replay and torn-update dedup, so
// each key arrives exactly once, with the value the reopened table will serve.
// It runs on Options.RecoveryWorkers goroutines at once and must be safe for
// that. Layers that keep DRAM state derived from the index (bigkv's
// per-segment liveness) rebuild it here instead of scanning the table again.
type RecoveryVisitor func(k kv.Key, v kv.Value)

// recover rebuilds all volatile state from the persisted image and replays
// any interrupted resize (paper §3.7). visit may be nil.
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
		t.fl.RecoveryStep(flight.RecReplay, time.Since(replayStart), newSegs)
	}

	topBase, topSegs := t.levelDescriptor(st.top)
	bottomBase, bottomSegs := t.levelDescriptor(st.bottom)
	if topSegs <= 0 || bottomSegs <= 0 {
		return fmt.Errorf("core: corrupt level descriptors (%d, %d segments)", topSegs, bottomSegs)
	}
	t.lv.Store(&tablePair{
		top:    newLevel(topBase, topSegs, m),
		bottom: newLevel(bottomBase, bottomSegs, m),
	})

	// Rebuild the OCF: one parallel traversal of the NVT, computing each
	// live record's fingerprint from its key (bitmaps are persisted in the
	// slots themselves; fingerprints are recomputed, as in the paper).
	ocfStart := time.Now()
	t.rebuildOCF()
	stats.OCFRebuild = time.Since(ocfStart)
	pr := t.pair()
	t.fl.RecoveryStep(flight.RecOCF, stats.OCFRebuild, pr.top.buckets()+pr.bottom.buckets())

	// Level number 3: resume draining the old bottom level from the
	// persisted per-range progress words, using the same parallel chunked
	// machinery as a live expansion — run synchronously here so the table is
	// stable before sessions exist. The drain reads OCF validity, so the
	// drain level's filter is rebuilt first.
	if st.levelNumber == levelNumRehash {
		stats.ResumedRehash = true
		drainStart := time.Now()
		drainBase, drainSegs := t.levelDescriptor(st.drain)
		if drainSegs <= 0 {
			return fmt.Errorf("core: corrupt drain descriptor (%d segments)", drainSegs)
		}
		drainLvl := newLevel(drainBase, drainSegs, m)
		t.rebuildOCFLevel(drainLvl)
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
		t.fl.RecoveryStep(flight.RecDrain, time.Since(drainStart), drainLvl.buckets())
	}

	// After an unclean shutdown a crashed out-of-place update may have left
	// both record versions committed; resolve toward the newer stamp.
	if !clean {
		dedupStart := time.Now()
		stats.DuplicatesResolved = t.dedupTornUpdates(h)
		t.fl.RecoveryStep(flight.RecDedup, time.Since(dedupStart), stats.DuplicatesResolved)
	}

	t.count.Store(t.countFromOCF())
	stats.Items = t.count.Load()

	// Rebuild the hot table, and feed the visitor, with a second parallel
	// traversal; with neither there is nothing left to read.
	if t.opts.HotSlotsPerBucket > 0 || visit != nil {
		hotStart := time.Now()
		if t.opts.HotSlotsPerBucket > 0 {
			t.hot = newHotTable(pr.top.segments, pr.bottom.segments, m, t.opts.HotSlotsPerBucket, t.opts.Replacer)
		}
		t.rebuildHot(visit)
		stats.HotRebuild = time.Since(hotStart)
		t.fl.RecoveryStep(flight.RecHot, stats.HotRebuild, stats.Items)
	}

	stats.MediaBlockReads = t.recoveryReads.Load() + h.Stats().MediaBlockReads
	stats.Total = time.Since(start)
	t.recovery = stats
	return nil
}

// rebuildOCF scans both levels with RecoveryWorkers goroutines, each
// handling an independent batch of buckets (the paper's parallel recovery).
func (t *Table) rebuildOCF() {
	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		t.rebuildOCFLevel(lvl)
	}
}

// rebuildOCFLevel recomputes one level's filter from the persisted NVT.
func (t *Table) rebuildOCFLevel(lvl *level) {
	t.parallelBuckets(lvl, func(h *nvm.Handle, lvl *level, b int64) {
		h.ReadAccess(lvl.bucketWord(b), BucketWords)
		for s := 0; s < SlotsPerBucket; s++ {
			off := lvl.slotWord(b, s)
			w3 := h.Load(off + 3)
			if !kv.ValidOf(w3) {
				continue
			}
			k := kv.UnpackKey(h.Load(off), h.Load(off+1))
			fp := hashfn.Fingerprint(hashfn.Hash1(k[:]))
			lvl.ocfSet(b, s, ocfWord(true, fp, 0))
		}
	})
}

// rebuildHot is recovery's last traversal of the NVT: it repopulates the
// cache (when there is one) and hands every committed record to visit (when
// there is one). Entries enter cold, just as after any other insert; the
// workload's own searches re-warm them.
func (t *Table) rebuildHot(visit RecoveryVisitor) {
	var seq atomic.Uint64
	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		t.parallelBuckets(lvl, func(h *nvm.Handle, lvl *level, b int64) {
			r := rng.New(t.opts.Seed ^ seq.Add(1)<<13)
			h.ReadAccess(lvl.bucketWord(b), BucketWords)
			for s := 0; s < SlotsPerBucket; s++ {
				off := lvl.slotWord(b, s)
				w3 := h.Load(off + 3)
				if !kv.ValidOf(w3) {
					continue
				}
				k := kv.UnpackKey(h.Load(off), h.Load(off+1))
				v, _ := kv.UnpackValue(h.Load(off+2), w3)
				if t.hot != nil {
					h1 := hashfn.Hash1(k[:])
					t.hot.put(k, v, h1, hashfn.Fingerprint(h1), r)
				}
				if visit != nil {
					visit(k, v)
				}
			}
		})
	}
}

// parallelBuckets runs fn over every bucket of lvl using the configured
// recovery workers, each with its own NVM handle, whose media block reads
// accumulate into t.recoveryReads.
func (t *Table) parallelBuckets(lvl *level, fn func(h *nvm.Handle, lvl *level, b int64)) {
	workers := t.opts.RecoveryWorkers
	buckets := lvl.buckets()
	if int64(workers) > buckets {
		workers = int(buckets)
	}
	if workers <= 1 {
		h := t.dev.NewHandle()
		for b := int64(0); b < buckets; b++ {
			fn(h, lvl, b)
		}
		t.recoveryReads.Add(h.Stats().MediaBlockReads)
		return
	}
	var wg sync.WaitGroup
	chunk := (buckets + int64(workers) - 1) / int64(workers)
	for w := 0; w < workers; w++ {
		lo := int64(w) * chunk
		hi := lo + chunk
		if hi > buckets {
			hi = buckets
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			h := t.dev.NewHandle()
			for b := lo; b < hi; b++ {
				fn(h, lvl, b)
			}
			t.recoveryReads.Add(h.Stats().MediaBlockReads)
		}(lo, hi)
	}
	wg.Wait()
}

// dedupTornUpdates finds keys committed in two slots (the window a crashed
// out-of-place update leaves) and invalidates the copy with the older
// stamp. One parallel linear pass builds a sharded key index; a duplicate
// can only be the pair an interrupted update left, so the loser is decided
// by the commit stamps. Returns how many duplicates were resolved.
func (t *Table) dedupTornUpdates(h *nvm.Handle) int64 {
	const shards = 256
	type entry struct {
		ref   slotRef
		stamp uint8
	}
	var mus [shards]sync.Mutex
	seen := make([]map[kv.Key]entry, shards)
	for i := range seen {
		seen[i] = make(map[kv.Key]entry)
	}
	var removed atomic.Int64
	var clearMu sync.Mutex // serialises the rare loser-clearing writes

	clearLoser := func(loser slotRef) {
		clearMu.Lock()
		defer clearMu.Unlock()
		stageClear(h, loser, t.dev.Load(loser.wordOff()+3))
		h.FlushBarrier()
		h.Fence()
		loser.lvl.ocfSet(loser.b, loser.s, ocfWord(false, 0, ocfVer(loser.lvl.ocfLoad(loser.b, loser.s))+1))
		removed.Add(1)
	}

	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		t.parallelBuckets(lvl, func(wh *nvm.Handle, lvl *level, b int64) {
			for s := 0; s < SlotsPerBucket; s++ {
				if !ocfIsValid(lvl.ocfLoad(b, s)) {
					continue
				}
				self := slotRef{lvl, b, s}
				k, _, meta := readSlot(wh, self)
				shard := int(hashfn.Hash1(k[:]) % shards)
				mus[shard].Lock()
				prev, dup := seen[shard][k]
				if !dup {
					seen[shard][k] = entry{ref: self, stamp: metaStamp(meta)}
					mus[shard].Unlock()
					continue
				}
				// Decide the winner: newer stamp, position as tie-break.
				loser := self
				winner := prev
				if stampNewer(metaStamp(meta), prev.stamp) ||
					(!stampNewer(prev.stamp, metaStamp(meta)) && posLess(prev.ref, self)) {
					loser = prev.ref
					winner = entry{ref: self, stamp: metaStamp(meta)}
				}
				seen[shard][k] = winner
				mus[shard].Unlock()
				clearLoser(loser)
			}
		})
	}
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

// countFromOCF counts valid bits across both levels (DRAM-only).
func (t *Table) countFromOCF() int64 {
	var n int64
	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		for i := range lvl.ocf {
			if atomic.LoadUint32(&lvl.ocf[i])&ocfValid != 0 {
				n++
			}
		}
	}
	return n
}
