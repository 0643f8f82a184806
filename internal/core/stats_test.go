package core

import (
	"runtime"
	"strings"
	"testing"

	"hdnh/internal/kv"
)

func TestStatsSnapshot(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := tbl.Stats()
	if st.Items != n {
		t.Fatalf("Items = %d", st.Items)
	}
	if st.Capacity <= 0 || st.LoadFactor <= 0 || st.LoadFactor > 1 {
		t.Fatalf("capacity/load wrong: %+v", st)
	}
	if st.TopSegments != 2*st.BottomSegments {
		t.Fatalf("level geometry wrong: top %d, bottom %d", st.TopSegments, st.BottomSegments)
	}
	if st.HotCapacity <= 0 || st.HotEntries <= 0 {
		t.Fatalf("hot stats wrong: %+v", st)
	}
	if st.DeviceWordsUsed <= 0 || st.DeviceWordsUsed > st.DeviceWords {
		t.Fatalf("device stats wrong: %+v", st)
	}
	if out := st.String(); !strings.Contains(out, "items=2000") {
		t.Fatalf("String() = %q", out)
	}
}

func TestStatsNoHotTable(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.HotSlotsPerBucket = 0 })
	st := tbl.Stats()
	if st.HotCapacity != 0 || st.HotEntries != 0 {
		t.Fatalf("hot stats should be zero: %+v", st)
	}
}

func TestScanVisitsEverything(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	const n = 3000
	want := map[kv.Key]kv.Value{}
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
		want[key(i)] = value(i)
	}
	// A few deletes and updates so the scan sees a mixed table.
	for i := 0; i < n; i += 10 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(want, key(i))
	}
	for i := 1; i < n; i += 10 {
		if err := s.Update(key(i), value(i+5)); err != nil {
			t.Fatal(err)
		}
		want[key(i)] = value(i + 5)
	}

	got := map[kv.Key]kv.Value{}
	visited := s.Scan(func(k kv.Key, v kv.Value) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("Scan yielded key %q twice", k.String())
		}
		got[k] = v
		return true
	})
	if visited != int64(len(want)) {
		t.Fatalf("visited %d, want %d", visited, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k.String(), got[k].String(), v.String())
		}
	}
}

// TestScanDuringDrain starts a Scan while a doubling's drain is certainly in
// flight: a session pinned across the swap holds the drain at its grace
// period and lets go only as the Scan begins. The drain then moves records
// out of the drain level into levels a concurrent walk would already have
// passed; Scan must still yield every record once.
func TestScanDuringDrain(t *testing.T) {
	tbl := newTable(t, nil)
	w, pin, s := sessionOn(tbl), sessionOn(tbl), sessionOn(tbl)
	next := 0
	for round := 0; round < 4; round++ {
		pin.ss[0].enterCritical()
		// The insert that swaps the levels parks behind the pin until the
		// drain may start, so the writer runs aside and that one key is still
		// in flight while the Scan walks.
		before, inserted := tbl.pair(), make(chan error, 1)
		go func() {
			var err error
			for err == nil && tbl.pair() == before {
				err = w.Insert(key(next), value(next))
				next++
			}
			inserted <- err
		}()
		for !tbl.Resizing() {
			runtime.Gosched()
		}
		go pin.ss[0].exitCritical()

		got := map[kv.Key]bool{}
		s.Scan(func(k kv.Key, _ kv.Value) bool {
			if got[k] {
				t.Errorf("round %d: Scan yielded key %q twice", round, k.String())
			}
			got[k] = true
			return true
		})
		if tbl.Resizing() {
			t.Fatalf("round %d: Scan returned with the drain it met still running", round)
		}
		if err := <-inserted; err != nil {
			t.Fatal(err)
		}
		for i := 0; i < next-1; i++ {
			if !got[key(i)] {
				t.Fatalf("round %d: Scan missed key %d of %d (visited %d)", round, i, next, len(got))
			}
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	for i := 0; i < 100; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	visited := s.Scan(func(k kv.Key, v kv.Value) bool {
		calls++
		return calls < 10
	})
	if calls != 10 || visited != 10 {
		t.Fatalf("early stop: calls=%d visited=%d", calls, visited)
	}
}

func TestScanEmptyTable(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if n := s.Scan(func(kv.Key, kv.Value) bool { t.Fatal("callback on empty table"); return false }); n != 0 {
		t.Fatalf("visited %d on empty table", n)
	}
}

func TestStatePackRoundTrip(t *testing.T) {
	for _, st := range []tableState{
		{levelNumber: levelNumStable, top: 0, bottom: 1, drain: levelSlotUnused, generation: 1},
		{levelNumber: levelNumRequest, top: 2, bottom: 0, drain: 1, generation: 999},
		{levelNumber: levelNumRehash, top: 1, bottom: 2, drain: 0, generation: 1 << 40},
	} {
		if got := unpackState(st.pack()); got != st {
			t.Fatalf("round trip %+v -> %+v", st, got)
		}
	}
}

func TestMetaPackRoundTrip(t *testing.T) {
	for valid := 0; valid < 2; valid++ {
		for stamp := uint8(0); stamp < 64; stamp++ {
			m := packMeta(valid == 1, stamp)
			if (m&metaValid != 0) != (valid == 1) {
				t.Fatalf("valid bit lost at stamp %d", stamp)
			}
			if metaStamp(m) != stamp {
				t.Fatalf("stamp %d -> %d", stamp, metaStamp(m))
			}
		}
	}
}

func TestStampNewer(t *testing.T) {
	cases := []struct {
		a, b  uint8
		newer bool
	}{
		{1, 0, true},
		{0, 1, false},
		{0, 63, true}, // wrap-around: 0 succeeds 63
		{63, 0, false},
		{5, 5, false},
		{40, 10, true},
		{10, 40, false},
	}
	for _, tc := range cases {
		if got := stampNewer(tc.a, tc.b); got != tc.newer {
			t.Errorf("stampNewer(%d, %d) = %v, want %v", tc.a, tc.b, got, tc.newer)
		}
	}
}

func TestCandidatesDistinct(t *testing.T) {
	lvl := newLevel(0, 4, 8)
	for i := 0; i < 5000; i++ {
		k := key(i)
		h1, h2, _ := hashKV(k[:])
		c := lvl.candidates(h1, h2)
		for a := 0; a < 4; a++ {
			if c[a] < 0 || c[a] >= lvl.buckets() {
				t.Fatalf("candidate %d out of range: %d", a, c[a])
			}
			for b := a + 1; b < 4; b++ {
				if c[a] == c[b] {
					t.Fatalf("duplicate candidates for key %d: %v", i, c)
				}
			}
		}
	}
}

func TestCandidatesSingleBucketLevel(t *testing.T) {
	// Degenerate geometry: 1 segment, small m — dedup must still hold when
	// m >= 4; with m < 4 buckets distinctness is impossible and the scheme
	// requires m >= 4.
	lvl := newLevel(0, 1, 4)
	for i := 0; i < 1000; i++ {
		k := key(i)
		h1, h2, _ := hashKV(k[:])
		c := lvl.candidates(h1, h2)
		seen := map[int64]bool{}
		for _, b := range c {
			if seen[b] {
				t.Fatalf("dup candidate in 1-segment level: %v", c)
			}
			seen[b] = true
		}
	}
}

func TestOCFWordRoundTrip(t *testing.T) {
	for _, valid := range []bool{true, false} {
		for fp := 0; fp < 256; fp += 17 {
			for ver := uint32(0); ver < 64; ver += 7 {
				w := ocfWord(valid, uint8(fp), ver)
				if ocfIsValid(w) != valid || ocfFP(w) != uint8(fp) || ocfVer(w) != ver%64 {
					t.Fatalf("ocf word round trip failed: valid=%v fp=%d ver=%d -> %#x", valid, fp, ver, w)
				}
				if ocfIsLocked(w) {
					t.Fatal("fresh word is locked")
				}
			}
		}
	}
}

func TestOccupancyHistogram(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	occ := tbl.occupancy()
	top, bottom := occ.Top, occ.Bottom
	var totalBuckets, totalItems int64
	for k := 0; k <= SlotsPerBucket; k++ {
		totalBuckets += top[k] + bottom[k]
		totalItems += int64(k) * (top[k] + bottom[k])
	}
	st := tbl.Stats()
	if totalBuckets != st.Capacity/SlotsPerBucket {
		t.Fatalf("histogram covers %d buckets, capacity implies %d", totalBuckets, st.Capacity/SlotsPerBucket)
	}
	if totalItems != n {
		t.Fatalf("histogram counts %d items, want %d", totalItems, n)
	}
}
