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
// shard.
type RecoveryStats struct {
	// Scan is the time of the last traversal of the NVT, which rebuilds the
	// OCF and SWAR words, the count and the hot table, and feeds the visitor.
	Scan time.Duration
	// Dedup is the time of the torn-update dedup pass; 0 after a clean
	// shutdown, which skips it.
	Dedup time.Duration
	// Scans is how many traversals of the NVT recovery made: 1 on a clean
	// image, one more for the dedup after an unclean shutdown, and one more
	// for the OCF a resumed drain needs before it runs.
	Scans int
	// Total covers everything: resize replay, drain, dedup, scan.
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
	// handle and its traversals, one block per bucket each; a resumed drain's
	// workers charge the resize machinery's handles instead.
	MediaBlockReads uint64
}

// RecoveryVisitor receives every committed record of a table from
// recovery's last traversal — after resize replay and torn-update dedup, so
// each key arrives exactly once, with the value the reopened table will serve.
// It runs on the recovery workers' goroutines at once and must be safe for
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
	// machinery as a live expansion — run synchronously here so the table is
	// stable before sessions exist. The drain reads OCF validity in all
	// three levels, so it costs one traversal of its own first.
	if st.levelNumber == levelNumRehash {
		stats.ResumedRehash = true
		drainBase, drainSegs := t.levelDescriptor(st.drain)
		if drainSegs <= 0 {
			return fmt.Errorf("core: corrupt drain descriptor (%d segments)", drainSegs)
		}
		drainLvl := newLevel(drainBase, drainSegs, m)
		ocfStart := time.Now()
		for _, lvl := range [3]*level{pr.top, pr.bottom, drainLvl} {
			t.scanLevel(lvl, nil, nil)
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
	// both record versions committed; resolve toward the newer stamp.
	if !clean {
		dedupStart := time.Now()
		stats.DuplicatesResolved = t.dedupTornUpdates(h)
		stats.Dedup = time.Since(dedupStart)
		stats.Scans++
		t.o.fl.RecoveryStep(flight.RecDedup, stats.Dedup, stats.DuplicatesResolved)
	}

	// The scan (the paper's parallel recovery): one traversal rebuilds the
	// OCF and SWAR words, counts the records, fills the hot table and feeds
	// the visitor.
	scanStart := time.Now()
	if t.opts.HotSlotsPerBucket > 0 {
		t.hot = newHotTable(pr.top.segments, pr.bottom.segments, m, t.opts.HotSlotsPerBucket, t.opts.Replacer)
	}
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		stats.Items += t.scanLevel(lvl, t.hot, visit)
	}
	t.count.Store(stats.Items)
	stats.Scans++
	stats.Scan = time.Since(scanStart)
	t.o.fl.RecoveryStep(flight.RecScan, stats.Scan, stats.Items)

	stats.MediaBlockReads = t.recoveryReads.Load() + h.Stats().MediaBlockReads
	stats.Total = time.Since(start)
	t.recovery = stats
	return nil
}

// scanLevel is recovery's one per-bucket routine, run over lvl by the
// recovery workers. Each bucket is read once (one ReadAccess) and
// each committed key hashed once; the bucket's eight OCF words and its SWAR
// word are built locally and stored whole. Invalid slots are stored too, so
// scanning a level whose OCF is already built (after a resumed drain) leaves
// it as a fresh build would. Plain stores are safe: no session exists yet,
// each worker owns disjoint buckets, and recover returns only after the
// workers have joined. With hot non-nil every record also enters it — cold,
// as after any other insert, and as a fresh fill: RecoveryVisitor's contract
// (each key exactly once) means there is never an entry to update in place.
// With visit non-nil every record is handed to it. Returns the records found.
func (t *Table) scanLevel(lvl *level, hot *hotTable, visit RecoveryVisitor) int64 {
	var items atomic.Int64
	t.parallelBuckets(lvl, func(h *nvm.Handle, lo, hi int64) {
		var r *rng.Xorshift128
		if hot != nil {
			r = rng.New(t.opts.Seed ^ uint64(lvl.base+lo+1)<<13)
		}
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
						if hot != nil {
							top, bottom, tb, bb := hot.lockBuckets(h1)
							hot.putLocked(top, bottom, tb, bb, k, v, fp, r, true)
							unlockBuckets(top, bottom, tb, bb)
						}
						if visit != nil {
							visit(k, v)
						}
					}
				}
				lvl.ocf[b*SlotsPerBucket+int64(s)] = c
			}
			lvl.fpw[b] = fpw
		}
		items.Add(n)
	})
	return items.Load()
}

// parallelBuckets splits lvl's buckets into one contiguous range per
// recovery worker and runs fn on each range on its own goroutine
// with its own NVM handle, whose media block reads accumulate into
// t.recoveryReads.
func (t *Table) parallelBuckets(lvl *level, fn func(h *nvm.Handle, lo, hi int64)) {
	workers := t.opts.recoveryWorkers
	buckets := lvl.buckets()
	if int64(workers) > buckets {
		workers = int(buckets)
	}
	run := func(lo, hi int64) {
		h := t.dev.NewHandle()
		fn(h, lo, hi)
		t.recoveryReads.Add(h.Stats().MediaBlockReads)
	}
	if workers <= 1 {
		run(0, buckets)
		return
	}
	var wg sync.WaitGroup
	chunk := (buckets + int64(workers) - 1) / int64(workers)
	for lo := int64(0); lo < buckets; lo += chunk {
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			run(lo, hi)
		}(lo, min(lo+chunk, buckets))
	}
	wg.Wait()
}

// dedupTornUpdates finds keys committed in two slots (the window a crashed
// out-of-place update leaves) and invalidates the copy with the older
// stamp. One parallel linear pass builds a sharded key index; a duplicate
// can only be the pair an interrupted update left, so the loser is decided
// by the commit stamps. It reads each bucket once and judges validity from
// the persisted valid bits, not the OCF, so it runs before the scan builds
// the OCF; the scan also takes the losers' cleared bits into the OCF, which
// is why a loser's clear touches only the NVT. Returns how many duplicates
// were resolved.
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
		removed.Add(1)
	}

	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		t.parallelBuckets(lvl, func(wh *nvm.Handle, lo, hi int64) {
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
					stamp := metaStamp(kv.MetaOf(w3))
					shard := int(hashfn.Hash1(k[:]) % shards)
					mus[shard].Lock()
					prev, dup := seen[shard][k]
					if !dup {
						seen[shard][k] = entry{ref: self, stamp: stamp}
						mus[shard].Unlock()
						continue
					}
					// Decide the winner: newer stamp, position as tie-break.
					loser := self
					winner := prev
					if stampNewer(stamp, prev.stamp) ||
						(!stampNewer(prev.stamp, stamp) && posLess(prev.ref, self)) {
						loser = prev.ref
						winner = entry{ref: self, stamp: stamp}
					}
					seen[shard][k] = winner
					mus[shard].Unlock()
					clearLoser(loser)
				}
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
