package core

import (
	"fmt"

	"hdnh/internal/kv"
)

// TableStats is a point-in-time snapshot of the table's shape, for
// monitoring and the load/inspect tooling.
type TableStats struct {
	// Items is the live record count and Capacity the total NVT slots.
	Items    int64
	Capacity int64
	// LoadFactor is Items / Capacity.
	LoadFactor float64
	// TopSegments / BottomSegments describe the current two-level geometry;
	// SegmentBuckets is the per-segment bucket count (the paper's m).
	TopSegments    int64
	BottomSegments int64
	SegmentBuckets int64
	// Generation counts completed resizes.
	Generation uint64
	// Resizing reports an incremental rehash in flight, with
	// DrainBucketsRemaining its not-yet-durably-complete bucket count.
	Resizing              bool
	DrainBucketsRemaining int64
	// HotEntries / HotCapacity describe the DRAM cache occupancy.
	HotEntries  int64
	HotCapacity int64
	// DeviceWordsUsed / DeviceWords give NVM consumption (bump-allocated,
	// including space retired by resizes).
	DeviceWordsUsed int64
	DeviceWords     int64
}

// String renders a human-readable multi-line summary.
func (s TableStats) String() string {
	return fmt.Sprintf(
		"items=%d capacity=%d load=%.3f levels=%d+%d segments (m=%d) gen=%d hot=%d/%d nvm=%d/%d words",
		s.Items, s.Capacity, s.LoadFactor,
		s.TopSegments, s.BottomSegments, s.SegmentBuckets, s.Generation,
		s.HotEntries, s.HotCapacity, s.DeviceWordsUsed, s.DeviceWords)
}

// Stats returns a snapshot of the table's shape, once the recovery sweep has
// counted every record. Lock-free: the level pair is one atomic pointer, and
// the remaining fields are individually atomic (the snapshot is internally
// consistent about the geometry, approximate about the rest — same as
// before, when only the geometry was lock-covered).
func (t *Table) Stats() TableStats {
	t.waitSwept()
	return t.shape()
}

// shape is Stats without the wait: during a recovery sweep Items counts only
// the segments built so far. The metrics scrape reads it, so a scrape never
// blocks on the sweep.
func (t *Table) shape() TableStats {
	pr := t.pair()
	st := TableStats{
		Items:                 t.count.Load(),
		Capacity:              pr.top.slots() + pr.bottom.slots(),
		TopSegments:           pr.top.segments,
		BottomSegments:        pr.bottom.segments,
		SegmentBuckets:        pr.top.m,
		Generation:            t.state().generation,
		Resizing:              t.Resizing(),
		DrainBucketsRemaining: t.DrainBucketsRemaining(),
		DeviceWordsUsed:       t.dev.Words() - t.dev.FreeWords(),
		DeviceWords:           t.dev.Words(),
	}
	if st.Capacity > 0 {
		st.LoadFactor = float64(st.Items) / float64(st.Capacity)
	}
	if t.hot != nil {
		st.HotEntries = t.hot.countValid()
		hp := t.hot.pair()
		top, bottom := hp.top, hp.bottom
		st.HotCapacity = (top.segments*top.m)*int64(top.slotsPer) +
			(bottom.segments*bottom.m)*int64(bottom.slotsPer)
	}
	return st
}

// dramIndexBytes is what the table's DRAM index holds, by structure: the OCF
// and SWAR words of every level a lookup walks, and the hot table. Each
// counts its chunk pointer arrays and the chunks that exist, so it reads
// what Open allocated until the sweep and the operations create chunks.
func (t *Table) dramIndexBytes() (ocf, hot int64) {
	var lv [3]*level
	for _, l := range lv[:t.walkLevels(&lv)] {
		ocf += l.dramBytes()
	}
	if t.hot != nil {
		hot = t.hot.dramBytes()
	}
	return ocf, hot
}

// scan visits every committed record of the session's table once and calls
// fn; fn returning false stops the scan early. scan returns the number of
// records visited.
//
// scan runs inside one epoch critical section with the same lock-free
// per-slot validation as get, so it can race concurrent writers: each record
// it yields was committed at the moment it was read, but the scan as a whole
// is not a snapshot.
//
// A drain moves records from the drain level into levels a walk has already
// passed, so scan never overlaps one: it waits out a rehash in flight before
// it starts, and its critical section holds back the drain of any doubling
// that begins later (a long scan delays that drain's start, not the swap).
//
// scan reads every segment's OCF, so it first waits for the recovery sweep.
func (s *session) scan(fn func(k kv.Key, v kv.Value) bool) int64 {
	t := s.t
	t.waitSwept()
	for {
		s.enterCritical()
		// No task seen from inside the section means any later one bumps the
		// epoch past ours and its grace period waits for this section. A failed
		// drain moves nothing; its level is walked like any other.
		task := t.draining.Load()
		if task == nil || task.failed.Load() {
			break
		}
		s.exitCritical()
		<-task.done
	}
	defer s.exitCritical()
	var visited int64
	var lv [3]*level
	for _, lvl := range lv[:t.walkLevels(&lv)] {
		for b := int64(0); b < lvl.buckets(); b++ {
			touched := false
			for slot := 0; slot < SlotsPerBucket; slot++ {
				c := lvl.ocfLoad(b, slot)
				if !ocfIsValid(c) || ocfIsLocked(c) {
					if ocfIsLocked(c) {
						c = waitUnlocked(lvl, b, slot, nil)
						if !ocfIsValid(c) {
							continue
						}
					} else {
						continue
					}
				}
				if !touched {
					s.h.ReadAccess(lvl.bucketWord(b), BucketWords)
					touched = true
				}
				off := lvl.slotWord(b, slot)
				w0 := s.h.Load(off)
				w1 := s.h.Load(off + 1)
				w2 := s.h.Load(off + 2)
				w3 := s.h.Load(off + 3)
				if lvl.ocfLoad(b, slot) != c || !kv.ValidOf(w3) {
					continue // changed underfoot; a rescan would double-count
				}
				k := kv.UnpackKey(w0, w1)
				v, _ := kv.UnpackValue(w2, w3)
				visited++
				if !fn(k, v) {
					return visited
				}
			}
		}
	}
	return visited
}

// Occupancy is one table's bucket-fill distribution per level: Top[k] and
// Bottom[k] count the buckets holding exactly k valid records.
type Occupancy struct {
	Top, Bottom [SlotsPerBucket + 1]int64
}

// occupancy computes the table's bucket-fill histograms from the OCF (DRAM
// only), so it is cheap enough for monitoring — once the recovery sweep has
// built it.
func (t *Table) occupancy() (o Occupancy) {
	t.waitSwept()
	pr := t.pair()
	fill := func(lvl *level, out *[SlotsPerBucket + 1]int64) {
		for b := int64(0); b < lvl.buckets(); b++ {
			n := 0
			for s := 0; s < SlotsPerBucket; s++ {
				if ocfIsValid(lvl.ocfLoad(b, s)) {
					n++
				}
			}
			out[n]++
		}
	}
	fill(pr.top, &o.Top)
	fill(pr.bottom, &o.Bottom)
	return o
}
