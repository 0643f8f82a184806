package core

import (
	"runtime"
	"testing"

	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

// dramImage closes a default-geometry store holding n records and returns
// its device, ready to be opened again.
func dramImage(t *testing.T, n int, opts Options) *nvm.Device {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	r, err := CreateRouter(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := r.NewSession()
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// routerSegments is the NVT segments of every shard's level pair.
func routerSegments(r *Router) int64 {
	var n int64
	for _, t := range r.shards {
		pr := t.pair()
		n += pr.top.segments + pr.bottom.segments
	}
	return n
}

// openAllocBase is what a clean Open allocates whatever the image's size:
// the table, router and sweep structs, the epoch registry, the recovery
// workers and the session pool.
const openAllocBase = 64 << 10

// TestOpenAllocatesPerSegment pins a clean Open's heap allocation by count:
// with the sweep held, opening a 2^17-record image allocates at most 1 KiB
// per NVT segment (the chunk pointer arrays and the sweep's build states)
// plus openAllocBase, and none of the DRAM index itself — about 12 KB per
// segment of OCF, SWAR and hot-table words that the sweep and the
// operations create chunk by chunk.
func TestOpenAllocatesPerSegment(t *testing.T) {
	opts := DefaultOptions()
	dev := dramImage(t, 1<<17, opts)
	release := holdSweep(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := OpenRouter(dev, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	segs := routerSegments(r)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Open allocated %d B over %d segments (%.0f B/segment)", alloc, segs, float64(alloc)/float64(segs))
	if limit := segs<<10 + openAllocBase; alloc > limit {
		t.Errorf("Open allocated %d B over %d segments, want at most %d (1 KiB a segment + %d)", alloc, segs, limit, openAllocBase)
	}
	release()
	r.WaitRecovered()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// flatChunks is how many chunks of at most max buckets tile a level of
// buckets buckets: a chunk holds the largest power of two of them, up to
// max, that divides the level.
func flatChunks(buckets, max int64) int64 {
	per := buckets & -buckets
	return buckets / min(per, max)
}

// TestDRAMIndexGauge checks hdnh_dram_index_bytes across a reopen: with the
// sweep held the gauge reads only the chunk pointer arrays; once the sweep
// is over it reads, past the pointer arrays, what the flat arrays of the
// same geometry held — OCF and SWAR words per NVT bucket, and control
// words, record words and a lock per hot bucket. The small cases pin that
// a level smaller than a full chunk holds no more than its own buckets: a
// fresh 4-shard store whose levels are one and two segments, and the
// 1-bucket segments of Fig 11a.
func TestDRAMIndexGauge(t *testing.T) {
	cases := []struct {
		name     string
		records  int
		replacer Replacer
		shards   int
		segB     int
	}{
		{"rafl-2^15", 1 << 15, ReplacerRAFL, 0, 0},
		{"lru-2^15", 1 << 15, ReplacerLRU, 0, 0},
		{"4-shards-fresh", 1000, ReplacerRAFL, 4, 0},
		{"1-bucket-segments", 64, ReplacerRAFL, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Replacer = tc.replacer
			opts.Shards = tc.shards
			if tc.segB > 0 {
				opts.SegmentBuckets = tc.segB
			}
			dev := dramImage(t, tc.records, opts)
			opts.Metrics = obs.New(obs.Config{SampleEvery: 1})
			release := holdSweep(t)
			r, err := OpenRouter(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Every array of a level has one pointer per chunk: the OCF's
			// control and SWAR words, the hot level's control words, record
			// words and locks, and under LRU its stamps. At the default 4
			// hot slots a hot chunk spans as many buckets as an OCF chunk.
			hotArrays, perHotSlot := int64(3), int64(4+slotWords*8)
			if tc.replacer == ReplacerLRU {
				hotArrays, perHotSlot = 4, perHotSlot+8
			}
			var ptrsOCF, ptrsHot, flatOCF, flatHot int64
			for _, tbl := range r.shards {
				pr := tbl.pair()
				for _, l := range [2]*level{pr.top, pr.bottom} {
					chunks := flatChunks(l.buckets(), 512)
					ptrsOCF += 2 * chunks * 8
					ptrsHot += hotArrays * chunks * 8
					flatOCF += l.buckets() * (SlotsPerBucket*4 + 8)
					flatHot += l.buckets() * (int64(opts.HotSlotsPerBucket)*perHotSlot + 4)
				}
			}
			g := r.MetricsSnapshot().Gauges
			if g.DRAMIndexOCFBytes != ptrsOCF || g.DRAMIndexHotBytes != ptrsHot {
				t.Errorf("after Open the gauge reads ocf %d B, hot %d B; want the pointer arrays' %d and %d",
					g.DRAMIndexOCFBytes, g.DRAMIndexHotBytes, ptrsOCF, ptrsHot)
			}
			release()
			r.WaitRecovered()
			g = r.MetricsSnapshot().Gauges
			if want := flatOCF + ptrsOCF; g.DRAMIndexOCFBytes != want {
				t.Errorf("after the sweep the OCF gauge reads %d B, want %d (flat %d + pointers %d)",
					g.DRAMIndexOCFBytes, want, flatOCF, ptrsOCF)
			}
			// A hot chunk appears on its first fill: with 1-bucket
			// segments some hot buckets meet no record, so only the
			// ceiling holds there.
			want := flatHot + ptrsHot
			if got := g.DRAMIndexHotBytes; got > want || tc.segB == 0 && got != want {
				t.Errorf("after the sweep the hot gauge reads %d B, want %d (flat %d + pointers %d)",
					got, want, flatHot, ptrsHot)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
