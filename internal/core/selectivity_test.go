package core

import (
	"fmt"
	"testing"

	"hdnh/internal/kv"
)

// The tests in this file count device accesses, never time: they hold on any
// runner at any GOMAXPROCS. They pin what the OCF is for — a probe touches NVM
// only on a one-byte fingerprint hit, so a probe for a key the table does not
// hold costs about (occupied candidate slots)/255 slot reads — at every
// segment count, because a fingerprint that repeats the bits `h1 % segments`
// consumes passes every h1-placed record of the segment (see
// hashfn.Fingerprint).

// occupiedCandidates counts the valid slots in the key's candidate buckets of
// the current level pair: the slots a probe for the key compares fingerprints
// with.
func occupiedCandidates(t *Table, h1, h2 uint64) int64 {
	pr := t.pair()
	var n int64
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			for s := 0; s < SlotsPerBucket; s++ {
				if ocfIsValid(lvl.ocfLoad(b, s)) {
					n++
				}
			}
		}
	}
	return n
}

func absentKey(i int) kv.Key { return kv.MustKey([]byte(fmt.Sprintf("absent-%08d", i))) }

// TestOCFSelectivityAcrossSegmentCounts fills pre-sized tables of 2^0..2^12
// bottom segments (and 1086, what the benchmark's get-hot sizes to) to 60 %
// and asserts that absent-key Gets and fresh-key Inserts read at most twice
// the slots a uniform one-byte filter lets through. Eight-bucket segments
// keep the fill cheap; the segment count is what aliases with a fingerprint.
func TestOCFSelectivityAcrossSegmentCounts(t *testing.T) {
	segCounts := []int{1086}
	for k := 0; k <= 12; k++ {
		segCounts = append(segCounts, 1<<k)
	}
	for _, segs := range segCounts {
		segs := segs
		t.Run(fmt.Sprintf("segments=%d", segs), func(t *testing.T) {
			opts := DefaultOptions()
			opts.SegmentBuckets = 8
			opts.InitBottomSegments = segs
			opts.HotSlotsPerBucket = 0 // every Get is one NVT walk
			tbl, err := create(newDev(t, 3*int64(segs)*8*BucketWords+1<<16), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			s := sessionOn(tbl)
			created := tbl.Generation()
			fill := int(tbl.Capacity() * 6 / 10)
			for i := 0; i < fill; i++ {
				if err := s.Insert(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}

			// bound is twice the expected false-positive reads, plus a few
			// for the smallest tables, whose insert phase is a handful of
			// probes.
			bound := func(occupied int64) uint64 { return uint64(2*occupied/255) + 8 }

			const gets = 20000
			var occupied int64
			before := s.NVMStats().ReadAccesses
			for i := 0; i < gets; i++ {
				k := absentKey(i)
				h1, h2, _ := hashKV(k[:])
				occupied += occupiedCandidates(tbl, h1, h2)
				if _, ok := s.Get(k); ok {
					t.Fatalf("absent key %d found", i)
				}
			}
			if reads := s.NVMStats().ReadAccesses - before; reads > bound(occupied) {
				t.Errorf("%d absent-key Gets over %d occupied candidate slots: %d NVT slot reads, want <= %d",
					gets, occupied, reads, bound(occupied))
			}

			inserts := fill / 30 // ends at 62 % load
			occupied = 0
			before = s.NVMStats().ReadAccesses
			for i := 0; i < inserts; i++ {
				k := key(fill + i)
				h1, h2, _ := hashKV(k[:])
				occupied += occupiedCandidates(tbl, h1, h2)
				if err := s.Insert(k, value(i)); err != nil {
					t.Fatal(err)
				}
			}
			if reads := s.NVMStats().ReadAccesses - before; reads > bound(occupied) {
				t.Errorf("%d fresh-key Inserts over %d occupied candidate slots: %d NVT slot reads, want <= %d",
					inserts, occupied, reads, bound(occupied))
			}
			if tbl.Generation() != created {
				t.Fatal("the table resized: the counts above include a drain")
			}
		})
	}
}

// TestInsertGrowthBlockReads is the benchmark's insert-grow in counts: one
// session inserts 350,000 fresh keys into a default-size table, through nine
// doublings, and in every tenth of the run reads at most one media block per
// insert — its own probes plus the drain chunks it helps with. With the
// fingerprint taken from the segment's own bits this climbed from 2 to 23 as
// the table doubled. The hot table, which shares placement and fingerprint
// with the NVT, must end with distinct fingerprints inside its buckets too.
func TestInsertGrowthBlockReads(t *testing.T) {
	const total, slice = 350000, 35000
	opts := DefaultOptions()
	tbl, err := create(newDev(t, 1<<23), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	created := tbl.Generation()
	for lo := 0; lo < total; lo += slice {
		before := s.NVMStats().MediaBlockReads
		for i := lo; i < lo+slice; i++ {
			if err := s.Insert(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		reads := s.NVMStats().MediaBlockReads - before
		// The curve EXPERIMENTS.md records; -v prints it.
		t.Logf("inserts %d..%d (generation %d): %.2f media block reads per insert",
			lo, lo+slice, tbl.Generation(), float64(reads)/slice)
		if reads > slice {
			t.Errorf("inserts %d..%d: %d media block reads, want <= %d", lo, lo+slice, reads, slice)
		}
	}
	tbl.waitDrain()
	if d := tbl.Generation() - created; d < 8 {
		t.Fatalf("the table doubled %d times, want at least 8", d)
	}

	var pairs, equal int64
	hp := tbl.hot.pair()
	for _, l := range [2]*hotLevel{hp.top, hp.bottom} {
		for b := int64(0); b < l.segments*l.m; b++ {
			var fps []uint8
			for sl := 0; sl < l.slotsPer; sl++ {
				if c := l.loadCtrl(l.slotIdx(b, sl)); c&hotValid != 0 {
					for _, fp := range fps {
						pairs++
						if fp == hotFP(c) {
							equal++
						}
					}
					fps = append(fps, hotFP(c))
				}
			}
		}
	}
	if pairs < 10000 {
		t.Fatalf("only %d pairs of entries share a hot bucket; the check needs a filled hot table", pairs)
	}
	if equal > 2*pairs/255 {
		t.Errorf("%d of %d same-bucket hot entry pairs share a fingerprint, want <= %d", equal, pairs, 2*pairs/255)
	}
}
