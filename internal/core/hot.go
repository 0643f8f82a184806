package core

import (
	"runtime"
	"sync/atomic"

	"hdnh/internal/kv"
	"hdnh/internal/rng"
)

// Hot-table control word, one per hot slot:
//
//	bit 0       valid
//	bit 1       op: a writer is mutating the slot (readers seqlock on this)
//	bit 2       hot (the paper's hotmap bit: set when the item is searched)
//	bits 3..7   version, 5 bits, bumped on every mutation
//	bits 8..15  fingerprint
const (
	hotValid    = uint32(1) << 0
	hotOp       = uint32(1) << 1
	hotHot      = uint32(1) << 2
	hotVerShift = 3
	hotVerMask  = uint32(0x1f) << hotVerShift
	hotFPShift  = 8
)

func hotWord(valid, hot bool, fp uint8, ver uint32) uint32 {
	w := ver<<hotVerShift&hotVerMask | uint32(fp)<<hotFPShift
	if valid {
		w |= hotValid
	}
	if hot {
		w |= hotHot
	}
	return w
}

func hotVer(w uint32) uint32 { return (w & hotVerMask) >> hotVerShift }
func hotFP(w uint32) uint8   { return uint8(w >> hotFPShift) }

// spinLock is a tiny test-and-set lock; the hot table takes one per bucket
// around mutations (searches stay lock-free). Mutations are rare relative
// to searches and always short, so contention is negligible — except in the
// LRU comparison mode, where every search *hit* must also take it to update
// recency, which is exactly the overhead the paper's RAFL avoids.
type spinLock struct{ v atomic.Uint32 }

func (l *spinLock) lock() {
	for !l.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (l *spinLock) unlock() { l.v.Store(0) }

// hotLevel is one level of the hot table. It mirrors the geometry of its
// NVT level (same segment and bucket counts) with fewer slots per bucket,
// and stores records as atomically accessed words so lock-free readers are
// race-detector clean.
type hotLevel struct {
	segments, m int64
	slotsPer    int
	ctrl        []uint32 // per slot
	words       []uint64 // slotWords per slot
	lastUse     []uint64 // per slot, LRU only, guarded by bucket locks
	locks       []spinLock
}

func newHotLevel(segments, m int64, slotsPer int, lru bool) *hotLevel {
	l := &hotLevel{
		segments: segments,
		m:        m,
		slotsPer: slotsPer,
		ctrl:     make([]uint32, segments*m*int64(slotsPer)),
		words:    make([]uint64, segments*m*int64(slotsPer)*slotWords),
		locks:    make([]spinLock, segments*m),
	}
	if lru {
		l.lastUse = make([]uint64, len(l.ctrl))
	}
	return l
}

// bucket maps the primary hash to this level's single candidate bucket
// (the paper keeps one hash for the hot table to minimise miss cost).
func (l *hotLevel) bucket(h1 uint64) int64 {
	seg := int64(h1 % uint64(l.segments))
	return seg*l.m + int64(h1>>32%uint64(l.m))
}

func (l *hotLevel) slotIdx(b int64, s int) int64 { return b*int64(l.slotsPer) + int64(s) }

func (l *hotLevel) loadCtrl(idx int64) uint32 { return atomic.LoadUint32(&l.ctrl[idx]) }

func (l *hotLevel) loadSlot(idx int64, dst *[slotWords]uint64) {
	base := idx * slotWords
	for i := 0; i < slotWords; i++ {
		dst[i] = atomic.LoadUint64(&l.words[base+int64(i)])
	}
}

// writeSlot overwrites slot idx under the bucket lock with the seqlock
// protocol: op set → words written → op cleared with version bump, so
// lock-free readers never observe a torn record.
func (l *hotLevel) writeSlot(idx int64, c uint32, k kv.Key, v kv.Value, fp uint8, valid, hot bool) {
	atomic.StoreUint32(&l.ctrl[idx], c|hotOp)
	var w [slotWords]uint64
	kv.PackRecord(w[:], k, v, 0)
	base := idx * slotWords
	for i := 0; i < slotWords; i++ {
		atomic.StoreUint64(&l.words[base+int64(i)], w[i])
	}
	atomic.StoreUint32(&l.ctrl[idx], hotWord(valid, hot, fp, hotVer(c)+1))
}

// clearSlot invalidates slot idx under the bucket lock.
func (l *hotLevel) clearSlot(idx int64, c uint32) {
	atomic.StoreUint32(&l.ctrl[idx], hotWord(false, false, 0, hotVer(c)+1))
}

// findKey returns the slot index holding k in bucket b, or -1. Caller must
// hold the bucket lock (mutation paths) or tolerate races (search path does
// its own seqlock validation instead).
func (l *hotLevel) findKey(b int64, kw0, kw1 uint64, fp uint8) int64 {
	for s := 0; s < l.slotsPer; s++ {
		idx := l.slotIdx(b, s)
		c := l.loadCtrl(idx)
		if c&hotValid == 0 || hotFP(c) != fp {
			continue
		}
		base := idx * slotWords
		if atomic.LoadUint64(&l.words[base]) == kw0 && atomic.LoadUint64(&l.words[base+1]) == kw1 {
			return idx
		}
	}
	return -1
}

// hotTable is the complete DRAM cache: two hotLevels tracking the NVT's two
// levels. Searches are lock-free; mutations serialise per bucket, which
// keeps one authoritative cache entry per key.
type hotTable struct {
	slotsPer int
	replacer Replacer
	o        observer // the table's, for fills and evictions (multi-writer safe); all nil until the table is live
	// lv is the level pair, published as one immutable struct the way
	// Table.lv is: every reader loads it once, so no mutator can observe a
	// half-promoted pair (top == bottom) and take one bucket lock twice.
	lv    atomic.Pointer[hotPair]
	clock atomic.Uint64 // LRU recency source
}

// hotPair is the atomically published hot level pair.
type hotPair struct {
	top, bottom *hotLevel
}

// pair loads the current hot level pair (one atomic pointer read).
func (ht *hotTable) pair() *hotPair { return ht.lv.Load() }

func newHotTable(topSegs, bottomSegs, m int64, slotsPer int, replacer Replacer) *hotTable {
	ht := &hotTable{slotsPer: slotsPer, replacer: replacer}
	lru := replacer == ReplacerLRU
	ht.lv.Store(&hotPair{top: newHotLevel(topSegs, m, slotsPer, lru), bottom: newHotLevel(bottomSegs, m, slotsPer, lru)})
	return ht
}

// promote installs a fresh top level for the new NVT top and demotes the
// current top to bottom; the old bottom's keys are being rehashed, so its
// cache entries die with it. Called with the table's resize lock held
// exclusively.
func (ht *hotTable) promote(newTopSegs, m int64) {
	ht.lv.Store(&hotPair{
		top:    newHotLevel(newTopSegs, m, ht.slotsPer, ht.replacer == ReplacerLRU),
		bottom: ht.pair().top,
	})
}

// get looks the key up in both levels without locks. On a hit it performs
// the replacement strategy's "touch": RAFL sets the hotmap bit with one CAS;
// LRU takes the bucket lock to update the recency stamp.
func (ht *hotTable) get(k kv.Key, h1 uint64, fp uint8) (kv.Value, bool) {
	kw0, kw1 := k.Pack()
	pr := ht.pair()
	for _, l := range [2]*hotLevel{pr.top, pr.bottom} {
		b := l.bucket(h1)
		for s := 0; s < l.slotsPer; s++ {
			idx := l.slotIdx(b, s)
			c := l.loadCtrl(idx)
			if c&hotValid == 0 || c&hotOp != 0 || hotFP(c) != fp {
				continue
			}
			var w [slotWords]uint64
			l.loadSlot(idx, &w)
			if l.loadCtrl(idx) != c {
				continue // concurrent mutation: miss; the NVT has the truth
			}
			if w[0] != kw0 || w[1] != kw1 {
				continue
			}
			ht.touch(l, b, idx, c)
			v, _ := kv.UnpackValue(w[2], w[3])
			return v, true
		}
	}
	return kv.Value{}, false
}

func (ht *hotTable) touch(l *hotLevel, b, idx int64, observed uint32) {
	switch ht.replacer {
	case ReplacerRAFL:
		if observed&hotHot == 0 {
			// Best-effort: if a writer intervened the CAS fails and the
			// next search re-marks the item.
			atomic.CompareAndSwapUint32(&l.ctrl[idx], observed, observed|hotHot)
		}
	case ReplacerLRU:
		l.locks[b].lock()
		l.lastUse[idx] = ht.clock.Add(1)
		l.locks[b].unlock()
	}
}

// lockBuckets takes the write locks for the key's bucket in both levels in
// a fixed order (top before bottom) so concurrent mutators cannot deadlock.
func (ht *hotTable) lockBuckets(h1 uint64) (top, bottom *hotLevel, tb, bb int64) {
	pr := ht.pair()
	top, bottom = pr.top, pr.bottom
	tb, bb = top.bucket(h1), bottom.bucket(h1)
	top.locks[tb].lock()
	bottom.locks[bb].lock()
	return top, bottom, tb, bb
}

func unlockBuckets(top, bottom *hotLevel, tb, bb int64) {
	bottom.locks[bb].unlock()
	top.locks[tb].unlock()
}

// put inserts or updates the cache entry for k. Placement: update in place
// when cached; otherwise the first empty slot in the top then bottom
// candidate bucket; otherwise replacement in the top bucket.
func (ht *hotTable) put(k kv.Key, v kv.Value, h1 uint64, fp uint8, r *rng.Xorshift128) {
	top, bottom, tb, bb := ht.lockBuckets(h1)
	defer unlockBuckets(top, bottom, tb, bb)
	ht.putLocked(top, bottom, tb, bb, k, v, fp, r, false)
}

// putLocked is put with the bucket locks held. fresh promises that k has no
// entry yet (recovery's fill, which meets each key once), so the in-place
// update search is skipped.
func (ht *hotTable) putLocked(top, bottom *hotLevel, tb, bb int64, k kv.Key, v kv.Value, fp uint8, r *rng.Xorshift128, fresh bool) {
	levels := [2]*hotLevel{top, bottom}
	bkts := [2]int64{tb, bb}

	// Update in place if cached, preserving the hotmap bit.
	if !fresh {
		kw0, kw1 := k.Pack()
		for i, l := range levels {
			if idx := l.findKey(bkts[i], kw0, kw1, fp); idx >= 0 {
				c := l.loadCtrl(idx)
				l.writeSlot(idx, c, k, v, fp, true, c&hotHot != 0)
				return
			}
		}
	}
	// First empty slot, top level first.
	for i, l := range levels {
		for s := 0; s < l.slotsPer; s++ {
			idx := l.slotIdx(bkts[i], s)
			c := l.loadCtrl(idx)
			if c&hotValid != 0 {
				continue
			}
			l.writeSlot(idx, c, k, v, fp, true, false)
			if ht.replacer == ReplacerLRU {
				l.lastUse[idx] = ht.clock.Add(1)
			}
			return
		}
	}
	// Both candidate buckets full: replace in the top-level bucket.
	ht.replaceLocked(top, tb, k, v, fp, r)
}

// replaceLocked implements RAFL (or the LRU comparison strategy) on one
// locked bucket.
func (ht *hotTable) replaceLocked(l *hotLevel, b int64, k kv.Key, v kv.Value, fp uint8, r *rng.Xorshift128) {
	ht.o.hotEvict()
	switch ht.replacer {
	case ReplacerRAFL:
		// First choice: any cold (hotmap == 0) victim — Figure 6(a).
		for s := 0; s < l.slotsPer; s++ {
			idx := l.slotIdx(b, s)
			c := l.loadCtrl(idx)
			if c&hotHot == 0 {
				l.writeSlot(idx, c, k, v, fp, true, false)
				return
			}
		}
		// All hot — Figure 6(b): evict a random slot, then clear every
		// hotmap bit in the bucket so no item squats in the cache forever.
		s := r.Intn(l.slotsPer)
		idx := l.slotIdx(b, s)
		l.writeSlot(idx, l.loadCtrl(idx), k, v, fp, true, false)
		for s2 := 0; s2 < l.slotsPer; s2++ {
			idx2 := l.slotIdx(b, s2)
			c2 := l.loadCtrl(idx2)
			if c2&hotHot != 0 {
				atomic.StoreUint32(&l.ctrl[idx2], c2&^hotHot)
			}
		}
	case ReplacerLRU:
		victim, oldest := 0, ^uint64(0)
		for s := 0; s < l.slotsPer; s++ {
			idx := l.slotIdx(b, s)
			if l.lastUse[idx] < oldest {
				victim, oldest = s, l.lastUse[idx]
			}
		}
		idx := l.slotIdx(b, victim)
		l.writeSlot(idx, l.loadCtrl(idx), k, v, fp, true, false)
		l.lastUse[idx] = ht.clock.Add(1)
	}
}

// del removes the key from the cache if present.
func (ht *hotTable) del(k kv.Key, h1 uint64, fp uint8) {
	kw0, kw1 := k.Pack()
	top, bottom, tb, bb := ht.lockBuckets(h1)
	defer unlockBuckets(top, bottom, tb, bb)
	levels := [2]*hotLevel{top, bottom}
	bkts := [2]int64{tb, bb}
	for i, l := range levels {
		if idx := l.findKey(bkts[i], kw0, kw1, fp); idx >= 0 {
			l.clearSlot(idx, l.loadCtrl(idx))
			return
		}
	}
}

// fill is the search-path re-cache: it inserts (k, v) only if the source
// NVT slot still carries the control word the reader observed, so a fill
// racing a newer update or delete of the key can never plant a stale entry.
// A same-key write that locked the source slot earlier fails the check; one
// that locks it later applies its own mirror afterwards, under these locks.
func (ht *hotTable) fill(k kv.Key, v kv.Value, h1 uint64, fp uint8, src *level, srcBucket int64, srcSlot int, observed uint32, r *rng.Xorshift128) {
	top, bottom, tb, bb := ht.lockBuckets(h1)
	defer unlockBuckets(top, bottom, tb, bb)
	if src.ocfLoad(srcBucket, srcSlot) != observed {
		ht.o.hotFill(true)
		return // the record moved or changed since it was read; skip
	}
	ht.o.hotFill(false)
	ht.putLocked(top, bottom, tb, bb, k, v, fp, r, false)
}

// countValid reports cached entries; stats/test helper.
func (ht *hotTable) countValid() int64 {
	var n int64
	pr := ht.pair()
	for _, l := range [2]*hotLevel{pr.top, pr.bottom} {
		for i := range l.ctrl {
			if atomic.LoadUint32(&l.ctrl[i])&hotValid != 0 {
				n++
			}
		}
	}
	return n
}
