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
// race-detector clean. Like the OCF it is chunked, and a chunk appears on
// the first lock of one of its buckets (see own); one that does not exist
// holds no entry.
type hotLevel struct {
	segments, m int64
	slotsPer    int
	shift       uint              // log2 of the buckets a chunk holds
	mask        int64             // 1<<shift - 1
	ctrl        chunked[uint32]   // slotsPer control words per bucket
	words       chunked[uint64]   // slotsPer records of slotWords per bucket
	locks       chunked[spinLock] // one per bucket
	stamps      chunked[uint64]   // LRU only: recency per slot, guarded by the bucket locks
}

// hotChunkSlots caps a hot chunk at the slots of 512 buckets at the
// default 4 slots, so a hot chunk covers what an OCF chunk does. Control
// words and record words get chunks of their own, so the control words
// every read scans stay as dense as a flat array keeps them; only mutators
// load a lock chunk. A bucket's slots are indexed bucket*slotsPer+slot by
// its offset in the chunk.
const hotChunkSlots = 2048

func newHotLevel(segments, m int64, slotsPer int, lru bool) *hotLevel {
	max := uint(0)
	for (2<<max)*slotsPer <= hotChunkSlots {
		max++
	}
	buckets := segments * m
	shift := chunkShiftFor(buckets, max)
	n, slots := buckets>>shift, int64(slotsPer)<<shift
	l := &hotLevel{
		segments: segments,
		m:        m,
		slotsPer: slotsPer,
		shift:    shift,
		mask:     1<<shift - 1,
		ctrl:     newChunked[uint32](n, slots),
		words:    newChunked[uint64](n, slots*slotWords),
		locks:    newChunked[spinLock](n, 1<<shift),
	}
	if lru {
		l.stamps = newChunked[uint64](n, slots)
	}
	return l
}

// dramBytes is what the level holds in DRAM: its pointer arrays and the
// chunks that exist.
func (l *hotLevel) dramBytes() int64 {
	return l.ctrl.bytes() + l.words.bytes() + l.locks.bytes() + l.stamps.bytes()
}

// bucket maps the primary hash to this level's single candidate bucket
// (the paper keeps one hash for the hot table to minimise miss cost).
func (l *hotLevel) bucket(h1 uint64) int64 {
	seg := int64(h1 % uint64(l.segments))
	return seg*l.m + int64(h1>>32%uint64(l.m))
}

// chunkOf is the chunk holding bucket b, and the index there of its slot 0.
func (l *hotLevel) chunkOf(b int64) (chunk, first int64) {
	return b >> (l.shift & 63), b & l.mask * int64(l.slotsPer)
}

// at returns bucket b for a reader: its chunks are nil while they do not
// exist, and it has no lock.
func (l *hotLevel) at(b int64) hotBucket {
	i, first := l.chunkOf(b)
	return hotBucket{ctrl: l.ctrl.load(i), words: l.words.load(i), first: first}
}

// own points bk at bucket b for a mutator, creating what it needs first:
// its record and control chunks, its lock's chunk and, under LRU, its
// stamps. Every lock, and so every store, goes through it. The record chunk
// comes first, so a reader that sees a valid control word finds its record
// chunk. It fills the caller's bucket rather than returning one: a hot
// bucket is eleven words, and every hot mutation and sweep fill takes two.
func (l *hotLevel) own(b int64, bk *hotBucket) {
	i, first := l.chunkOf(b)
	bk.words = l.words.own(i)
	bk.ctrl = l.ctrl.own(i)
	bk.first = first
	bk.lock = &l.locks.own(i)[b&l.mask]
	if l.stamps.ptrs != nil {
		bk.stamps = l.stamps.own(i)
	}
}

// hotBucket is one bucket of a hot level: the chunks holding its control
// and record words, and their index of its slot 0. A mutator's (own) also
// has the bucket's lock and, under LRU, its chunk's recency stamps.
type hotBucket struct {
	ctrl   []uint32
	words  []uint64
	first  int64
	lock   *spinLock
	stamps []uint64
}

func (bk *hotBucket) loadCtrl(idx int64) uint32 { return atomic.LoadUint32(&bk.ctrl[idx]) }

// loadSlot reads the record words of slot idx.
func loadSlot(words []uint64, idx int64, dst *[slotWords]uint64) {
	base := idx * slotWords
	for i := 0; i < slotWords; i++ {
		dst[i] = atomic.LoadUint64(&words[base+int64(i)])
	}
}

// writeSlot overwrites slot idx under the bucket lock with the seqlock
// protocol: op set → words written → op cleared with version bump, so
// lock-free readers never observe a torn record.
func (bk *hotBucket) writeSlot(idx int64, cw uint32, k kv.Key, v kv.Value, fp uint8, valid, hot bool) {
	atomic.StoreUint32(&bk.ctrl[idx], cw|hotOp)
	var w [slotWords]uint64
	kv.PackRecord(w[:], k, v, 0)
	base := idx * slotWords
	for i := 0; i < slotWords; i++ {
		atomic.StoreUint64(&bk.words[base+int64(i)], w[i])
	}
	atomic.StoreUint32(&bk.ctrl[idx], hotWord(valid, hot, fp, hotVer(cw)+1))
}

// clearSlot invalidates slot idx under the bucket lock.
func (bk *hotBucket) clearSlot(idx int64, cw uint32) {
	atomic.StoreUint32(&bk.ctrl[idx], hotWord(false, false, 0, hotVer(cw)+1))
}

// findKey returns the chunk index of the slot among the bucket's n holding
// k, or -1. Caller must hold the bucket lock (mutation paths) or tolerate
// races (search path does its own seqlock validation instead).
func (bk *hotBucket) findKey(n int, kw0, kw1 uint64, fp uint8) int64 {
	for idx := bk.first; idx < bk.first+int64(n); idx++ {
		cw := bk.loadCtrl(idx)
		if cw&hotValid == 0 || hotFP(cw) != fp {
			continue
		}
		base := idx * slotWords
		if atomic.LoadUint64(&bk.words[base]) == kw0 && atomic.LoadUint64(&bk.words[base+1]) == kw1 {
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
// LRU takes the bucket lock to update the recency stamp. A bucket whose
// chunk does not exist holds nothing: a miss.
func (ht *hotTable) get(k kv.Key, h1 uint64, fp uint8) (kv.Value, bool) {
	kw0, kw1 := k.Pack()
	pr := ht.pair()
	for _, l := range [2]*hotLevel{pr.top, pr.bottom} {
		b := l.bucket(h1)
		i, first := l.chunkOf(b)
		ctrl := l.ctrl.load(i)
		if ctrl == nil {
			continue
		}
		for idx := first; idx < first+int64(l.slotsPer); idx++ {
			c := atomic.LoadUint32(&ctrl[idx])
			if c&hotValid == 0 || c&hotOp != 0 || hotFP(c) != fp {
				continue
			}
			// The record chunk exists: its creator made it before the
			// control chunk whose valid word this read saw.
			var w [slotWords]uint64
			loadSlot(l.words.load(i), idx, &w)
			if atomic.LoadUint32(&ctrl[idx]) != c {
				continue // concurrent mutation: miss; the NVT has the truth
			}
			if w[0] != kw0 || w[1] != kw1 {
				continue
			}
			ht.touch(l, ctrl, b, idx, c)
			v, _ := kv.UnpackValue(w[2], w[3])
			return v, true
		}
	}
	return kv.Value{}, false
}

func (ht *hotTable) touch(l *hotLevel, ctrl []uint32, b, idx int64, observed uint32) {
	switch ht.replacer {
	case ReplacerRAFL:
		if observed&hotHot == 0 {
			// Best-effort: if a writer intervened the CAS fails and the
			// next search re-marks the item.
			atomic.CompareAndSwapUint32(&ctrl[idx], observed, observed|hotHot)
		}
	case ReplacerLRU:
		var bk hotBucket
		l.own(b, &bk)
		bk.lock.lock()
		bk.stamps[idx] = ht.clock.Add(1)
		bk.lock.unlock()
	}
}

// lock takes the write locks for the key's bucket in both levels in a
// fixed order (top before bottom) so concurrent mutators cannot deadlock.
// It creates the buckets' chunks that do not exist yet.
func (pr *hotPair) lock(h1 uint64, top, bottom *hotBucket) {
	pr.top.own(pr.top.bucket(h1), top)
	pr.bottom.own(pr.bottom.bucket(h1), bottom)
	top.lock.lock()
	bottom.lock.lock()
}

func unlockBuckets(top, bottom *hotBucket) {
	bottom.lock.unlock()
	top.lock.unlock()
}

// put inserts or updates the cache entry for k. Placement: update in place
// when cached; otherwise the first empty slot in the top then bottom
// candidate bucket; otherwise replacement in the top bucket.
func (ht *hotTable) put(k kv.Key, v kv.Value, h1 uint64, fp uint8, r *rng.Xorshift128) {
	var top, bottom hotBucket
	ht.pair().lock(h1, &top, &bottom)
	defer unlockBuckets(&top, &bottom)
	ht.putLocked(&top, &bottom, k, v, fp, r, false)
}

// putLocked is put with the bucket locks held. fresh promises that k has no
// entry yet (recovery's fill, which meets each key once), so the in-place
// update search is skipped.
func (ht *hotTable) putLocked(top, bottom *hotBucket, k kv.Key, v kv.Value, fp uint8, r *rng.Xorshift128, fresh bool) {
	bkts := [2]*hotBucket{top, bottom}

	// Update in place if cached, preserving the hotmap bit.
	if !fresh {
		kw0, kw1 := k.Pack()
		for _, bk := range bkts {
			if idx := bk.findKey(ht.slotsPer, kw0, kw1, fp); idx >= 0 {
				c := bk.loadCtrl(idx)
				bk.writeSlot(idx, c, k, v, fp, true, c&hotHot != 0)
				return
			}
		}
	}
	// First empty slot, top level first.
	for _, bk := range bkts {
		for idx := bk.first; idx < bk.first+int64(ht.slotsPer); idx++ {
			c := bk.loadCtrl(idx)
			if c&hotValid != 0 {
				continue
			}
			bk.writeSlot(idx, c, k, v, fp, true, false)
			if ht.replacer == ReplacerLRU {
				bk.stamps[idx] = ht.clock.Add(1)
			}
			return
		}
	}
	// Both candidate buckets full: replace in the top-level bucket.
	ht.replaceLocked(top, k, v, fp, r)
}

// replaceLocked implements RAFL (or the LRU comparison strategy) on one
// locked bucket.
func (ht *hotTable) replaceLocked(bk *hotBucket, k kv.Key, v kv.Value, fp uint8, r *rng.Xorshift128) {
	ht.o.hotEvict()
	first, end := bk.first, bk.first+int64(ht.slotsPer)
	switch ht.replacer {
	case ReplacerRAFL:
		// First choice: any cold (hotmap == 0) victim — Figure 6(a).
		for idx := first; idx < end; idx++ {
			c := bk.loadCtrl(idx)
			if c&hotHot == 0 {
				bk.writeSlot(idx, c, k, v, fp, true, false)
				return
			}
		}
		// All hot — Figure 6(b): evict a random slot, then clear every
		// hotmap bit in the bucket so no item squats in the cache forever.
		idx := first + int64(r.Intn(ht.slotsPer))
		bk.writeSlot(idx, bk.loadCtrl(idx), k, v, fp, true, false)
		for idx2 := first; idx2 < end; idx2++ {
			c2 := bk.loadCtrl(idx2)
			if c2&hotHot != 0 {
				atomic.StoreUint32(&bk.ctrl[idx2], c2&^hotHot)
			}
		}
	case ReplacerLRU:
		victim, oldest := first, ^uint64(0)
		for idx := first; idx < end; idx++ {
			if bk.stamps[idx] < oldest {
				victim, oldest = idx, bk.stamps[idx]
			}
		}
		bk.writeSlot(victim, bk.loadCtrl(victim), k, v, fp, true, false)
		bk.stamps[victim] = ht.clock.Add(1)
	}
}

// del removes the key from the cache if present.
func (ht *hotTable) del(k kv.Key, h1 uint64, fp uint8) {
	kw0, kw1 := k.Pack()
	var top, bottom hotBucket
	ht.pair().lock(h1, &top, &bottom)
	defer unlockBuckets(&top, &bottom)
	for _, bk := range [2]*hotBucket{&top, &bottom} {
		if idx := bk.findKey(ht.slotsPer, kw0, kw1, fp); idx >= 0 {
			bk.clearSlot(idx, bk.loadCtrl(idx))
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
	var top, bottom hotBucket
	ht.pair().lock(h1, &top, &bottom)
	defer unlockBuckets(&top, &bottom)
	if src.ocfLoad(srcBucket, srcSlot) != observed {
		ht.o.hotFill(true)
		return // the record moved or changed since it was read; skip
	}
	ht.o.hotFill(false)
	ht.putLocked(&top, &bottom, k, v, fp, r, false)
}

// countValid reports cached entries; stats/test helper.
func (ht *hotTable) countValid() int64 {
	var n int64
	pr := ht.pair()
	for _, l := range [2]*hotLevel{pr.top, pr.bottom} {
		for i := range l.ctrl.ptrs {
			for _, c := range l.ctrl.load(int64(i)) {
				if c&hotValid != 0 {
					n++
				}
			}
		}
	}
	return n
}

// dramBytes is what the hot table holds in DRAM, both levels.
func (ht *hotTable) dramBytes() int64 {
	pr := ht.pair()
	return pr.top.dramBytes() + pr.bottom.dramBytes()
}
