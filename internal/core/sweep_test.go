package core

import (
	"fmt"
	"sync"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

// sweepWorld is a closed table image with n records over many small
// segments, no doubling: top 16 segments and bottom 8, of 16 buckets each.
type sweepWorld struct {
	opts Options
	cfg  nvm.Config
	img  []uint64
	n    int
}

func newSweepWorld(t *testing.T, n int) *sweepWorld {
	t.Helper()
	dev := newStrictDev(t, 1<<21, 0)
	opts := DefaultOptions()
	opts.SegmentBuckets = 16
	opts.InitBottomSegments = 8
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Generation() != 1 {
		t.Fatalf("generation %d: the image doubled", tbl.Generation())
	}
	s.Close()
	tbl.Close()
	return &sweepWorld{opts: opts, cfg: dev.Config(), img: dev.PersistedImage(), n: n}
}

// open boots the image on a fresh device and opens it.
func (w *sweepWorld) open(t *testing.T) (*Table, *nvm.Device) {
	t.Helper()
	dev, err := nvm.FromImage(w.cfg, w.img)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := openRoot(dev, w.opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, dev
}

// builtSegments lists the segments of the recovery pair built so far.
func builtSegments(tbl *Table) map[[2]int64]bool {
	built := map[[2]int64]bool{}
	for li, states := range tbl.sw.state {
		for seg := range states {
			if states[seg].Load() == segBuilt {
				built[[2]int64{int64(li), int64(seg)}] = true
			}
		}
	}
	return built
}

// candidateSegments is the set of segments holding k's candidate buckets,
// as (level, segment) with 0 the top.
func candidateSegments(tbl *Table, k kv.Key) map[[2]int64]bool {
	h1, h2, _ := hashKV(k[:])
	out := map[[2]int64]bool{}
	for li, lvl := range [2]*level{tbl.sw.pr.top, tbl.sw.pr.bottom} {
		out[[2]int64{int64(li), int64(h1 % uint64(lvl.segments))}] = true
		out[[2]int64{int64(li), int64(h2 % uint64(lvl.segments))}] = true
	}
	return out
}

// TestLazyOpenBuildsOnlyWhatAnOperationTouches holds the sweep's workers and
// runs every verb on present and absent keys: each must answer as the eager
// table would, and build exactly the key's own candidate segments that were
// still unbuilt — pinned by the media blocks the builds charge, one per
// bucket — plus, for a displacement, its victim's. The held sweep and the
// operations' builds then add up to one read of every bucket.
func TestLazyOpenBuildsOnlyWhatAnOperationTouches(t *testing.T) {
	w := newSweepWorld(t, 1200)
	release := holdSweep(t)
	tbl, _ := w.open(t)
	s := sessionOn(tbl)
	m := tbl.pair().top.m

	// step runs op and checks it built exactly want ∖ already-built.
	step := func(what string, want map[[2]int64]bool, op func()) {
		t.Helper()
		before := builtSegments(tbl)
		reads := tbl.recoveryReads.Load()
		op()
		after := builtSegments(tbl)
		fresh := 0
		for seg := range want {
			if !after[seg] {
				t.Fatalf("%s: candidate segment %v left unbuilt", what, seg)
			}
			if !before[seg] {
				fresh++
			}
		}
		if len(after) != len(before)+fresh {
			t.Fatalf("%s: %d segments built, want %d (the key's own unbuilt candidates)", what, len(after)-len(before), fresh)
		}
		if got := tbl.recoveryReads.Load() - reads; got != uint64(fresh)*uint64(m) {
			t.Fatalf("%s: builds read %d blocks, want %d segments × %d buckets", what, got, fresh, m)
		}
	}

	absent := w.n + 7
	step("get present", candidateSegments(tbl, key(3)), func() {
		if v, ok := s.Get(key(3)); !ok || v != value(3) {
			t.Fatalf("get present: %q, %v", v.String(), ok)
		}
	})
	step("get absent", candidateSegments(tbl, key(absent)), func() {
		if _, ok := s.Get(key(absent)); ok {
			t.Fatal("get absent: found")
		}
	})
	step("put present", candidateSegments(tbl, key(10)), func() {
		if err := s.Put(key(10), value(9010)); err != nil {
			t.Fatal(err)
		}
	})
	step("put absent", candidateSegments(tbl, key(absent+1)), func() {
		if err := s.Put(key(absent+1), value(absent+1)); err != nil {
			t.Fatal(err)
		}
	})
	step("insert present", candidateSegments(tbl, key(20)), func() {
		if err := s.Insert(key(20), value(0)); err != scheme.ErrExists {
			t.Fatalf("insert present: %v", err)
		}
	})
	step("delete present", candidateSegments(tbl, key(30)), func() {
		if err := s.Delete(key(30)); err != nil {
			t.Fatal(err)
		}
	})
	step("delete absent", candidateSegments(tbl, key(absent+2)), func() {
		if err := s.Delete(key(absent + 2)); err != scheme.ErrNotFound {
			t.Fatalf("delete absent: %v", err)
		}
	})
	keys := []kv.Key{key(40), key(absent + 3), key(41)}
	batch := map[[2]int64]bool{}
	for _, k := range keys {
		for seg := range candidateSegments(tbl, k) {
			batch[seg] = true
		}
	}
	step("multiget", batch, func() {
		vals, found := make([]kv.Value, 3), make([]bool, 3)
		if n := s.MultiGet(keys, vals, found); n != 2 || !found[0] || found[1] || vals[2] != value(41) {
			t.Fatalf("multiget: %d found %v", n, found)
		}
	})

	// A displacement builds its victim's candidate segments too. The victim
	// is the first committed slot among key(50)'s candidate buckets, found
	// the way displaceOne looks.
	k := key(50)
	h1, h2, _ := hashKV(k[:])
	step("walk before displacement", candidateSegments(tbl, k), func() { s.Get(k) })
	var victim kv.Key
	pr := tbl.pair()
find:
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			for sl := 0; sl < SlotsPerBucket; sl++ {
				if ocfIsValid(lvl.ocfLoad(b, sl)) {
					victim, _, _ = readSlot(tbl.dev.NewHandle(), slotRef{lvl, b, sl})
					break find
				}
			}
		}
	}
	step("displacement", candidateSegments(tbl, victim), func() {
		if !tbl.displaceOne(tbl.dev.NewHandle(), h1, h2) {
			t.Fatal("displacement moved nothing")
		}
	})

	// The metrics scrape reads the sweep's progress without waiting for it
	// (waiting would help, and build every segment).
	segments := tbl.sw.pr.top.segments + tbl.sw.pr.bottom.segments
	r := newRouter(tbl.dev, tbl.opts, []*Table{tbl})
	if got, want := r.gauges().RecoverySegmentsPending, segments-int64(len(builtSegments(tbl))); got != want || want == 0 {
		t.Fatalf("scrape mid-sweep: %d segments pending, want %d (> 0)", got, want)
	}

	release()
	tbl.waitSwept()
	if got := r.gauges().RecoverySegmentsPending; got != 0 {
		t.Fatalf("%d segments pending after the sweep", got)
	}
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatal(errs[0])
	}
	buckets := uint64(tbl.Capacity() / SlotsPerBucket)
	if rs := tbl.LastRecovery(); rs.MediaBlockReads != buckets || rs.Items != int64(w.n) {
		t.Fatalf("the sweep and the operations' builds read %d blocks and found %d records, want %d and %d",
			rs.MediaBlockReads, rs.Items, buckets, w.n)
	}
	if got := tbl.Count(); got != int64(w.n) { // one insert, one delete
		t.Fatalf("count %d, want %d", got, w.n)
	}
	for i := 0; i < w.n; i++ {
		v, ok := s.Get(key(i))
		switch {
		case i == 30:
			if ok {
				t.Fatal("deleted key is back")
			}
		case i == 10:
			if v != value(9010) {
				t.Fatalf("key 10 = %q", v.String())
			}
		case !ok || v != value(i):
			t.Fatalf("key %d = %q, %v", i, v.String(), ok)
		}
	}
	s.Close()
	tbl.Close()
}

// TestSweepWritesNothingDurable: a full sweep adds no flush and no persist
// call to the device.
func TestSweepWritesNothingDurable(t *testing.T) {
	w := newSweepWorld(t, 1200)
	release := holdSweep(t)
	tbl, dev := w.open(t)
	flushes, persists := dev.TotalFlushes(), dev.PersistCalls()
	release()
	tbl.waitSwept()
	if f, p := dev.TotalFlushes()-flushes, dev.PersistCalls()-persists; f != 0 || p != 0 {
		t.Fatalf("the sweep flushed %d lines in %d persist calls", f, p)
	}
	tbl.Close()
}

// TestSweepRacesReadersAndWriters runs readers and writers — single keys and
// batches — against a reopened table while its sweep runs, then checks the
// table against the writers' model. Run it under -race at -cpu 1,2.
func TestSweepRacesReadersAndWriters(t *testing.T) {
	w := newSweepWorld(t, 1200)
	for round := 0; round < 3; round++ {
		tbl, _ := w.open(t)
		const writers = 3
		var wg sync.WaitGroup
		errs := make(chan error, 2*writers)
		for g := 0; g < writers; g++ {
			wg.Add(2)
			go func(g int) { // writer: owns keys ≡ g mod writers
				defer wg.Done()
				s := sessionOn(tbl)
				defer s.Close()
				for i := g; i < w.n; i += writers {
					var err error
					switch i % 4 {
					case 0:
						err = s.Delete(key(i))
					case 1:
						err = s.Update(key(i), value(i+1))
					case 2:
						err = s.Insert(key(w.n+i), value(w.n+i))
					}
					if err != nil {
						errs <- fmt.Errorf("writer %d key %d: %w", g, i, err)
						return
					}
				}
				batch := []kv.Key{key(2*w.n + g), key(2*w.n + g + writers)}
				if n := s.MultiPut(batch, []kv.Value{value(1), value(2)}, make([]error, 2)); n != 0 {
					errs <- fmt.Errorf("writer %d: %d batch failures", g, n)
				}
			}(g)
			go func(g int) { // reader: keys ≡ 3 mod 4 never change
				defer wg.Done()
				s := sessionOn(tbl)
				defer s.Close()
				for i := 3 + 4*g; i < w.n; i += 4 * writers {
					if v, ok := s.Get(key(i)); !ok || v != value(i) {
						errs <- fmt.Errorf("reader %d: key %d = %q, %v", g, i, v.String(), ok)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if errs := tbl.CheckInvariants(); len(errs) != 0 {
			t.Fatalf("round %d: %v", round, errs[0])
		}
		s := sessionOn(tbl)
		want := int64(0)
		for i := 0; i < w.n; i++ {
			v, ok := s.Get(key(i))
			switch i % 4 {
			case 0:
				if ok {
					t.Fatalf("round %d: deleted key %d is back", round, i)
				}
				continue
			case 1:
				ok = ok && v == value(i+1)
			case 2:
				want++
				if nv, nok := s.Get(key(w.n + i)); !nok || nv != value(w.n+i) {
					t.Fatalf("round %d: inserted key %d lost", round, w.n+i)
				}
				fallthrough
			default:
				ok = ok && v == value(i)
			}
			if !ok {
				t.Fatalf("round %d: key %d = %q", round, i, v.String())
			}
			want++
		}
		want += 2 * writers
		if got := tbl.Count(); got != want {
			t.Fatalf("round %d: count %d, want %d", round, got, want)
		}
		s.Close()
		tbl.Close()
	}
}

// TestCloseMidSweep stops a sweep halfway — Close between segments, the
// operations' builds done — and reopens the image: the clean flag covers a
// table whose DRAM half-rebuild wrote nothing. Separately, a strict device
// crashes while a sweep is held, and the crash image opens whole.
func TestCloseMidSweep(t *testing.T) {
	w := newSweepWorld(t, 1200)
	check := func(what string, tbl *Table, n int) {
		t.Helper()
		tbl.waitSwept()
		if errs := tbl.CheckInvariants(); len(errs) != 0 {
			t.Fatalf("%s: %v", what, errs[0])
		}
		if got := tbl.Count(); got != int64(n) {
			t.Fatalf("%s: count %d, want %d", what, got, n)
		}
		s := sessionOn(tbl)
		defer s.Close()
		for i := 0; i < n; i++ {
			if v, ok := s.Get(key(i)); !ok || v != value(i) {
				t.Fatalf("%s: key %d = %q, %v", what, i, v.String(), ok)
			}
		}
	}

	t.Run("close", func(t *testing.T) {
		release := holdSweep(t)
		tbl, dev := w.open(t)
		s := sessionOn(tbl)
		for i := w.n; i < w.n+2; i++ { // a few keys: most segments stay unbuilt
			if err := s.Insert(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		tbl.sw.stop.Store(true) // the held workers quit at their first claim
		release()
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}
		if tbl.segmentsPending() == 0 {
			t.Fatal("the sweep finished before Close")
		}
		tbl2, err := openRoot(dev, w.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !tbl2.LastRecovery().CleanShutdown {
			t.Fatal("Close mid-sweep left no clean flag")
		}
		check("reopened after close mid-sweep", tbl2, w.n+2)
		tbl2.Close()
	})

	t.Run("crash", func(t *testing.T) {
		release := holdSweep(t)
		tbl, dev := w.open(t)
		s := sessionOn(tbl)
		for i := w.n; i < w.n+2; i++ { // a few keys: most segments stay unbuilt
			if err := s.Insert(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		if err := dev.Crash(); err != nil {
			t.Fatal(err)
		}
		// The crashed process runs nothing more: its sweep stops where it
		// was held.
		tbl.sw.stop.Store(true)
		release()
		tbl.StopBackground()
		tbl2, err := openRoot(dev, w.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rs := tbl2.LastRecovery(); rs.CleanShutdown || rs.Scans != 2 {
			t.Fatalf("crash mid-sweep recovered clean=%v in %d traversals, want unclean in 2", rs.CleanShutdown, rs.Scans)
		}
		check("reopened after a crash mid-sweep", tbl2, w.n+2)
		tbl2.Close()
	})
}
