package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/rng"
)

func hotFixture(replacer Replacer, slots int) (*hotTable, *rng.Xorshift128) {
	return newHotTable(2, 1, 4, slots, replacer), rng.New(1)
}

func hk(i int) (kv.Key, uint64, uint8) {
	k := kv.MustKey([]byte{byte('a' + i%26), byte(i), byte(i >> 8), 'k'})
	h1 := hashfn.Hash1(k[:])
	return k, h1, hashfn.Fingerprint(h1)
}

func TestHotPutGet(t *testing.T) {
	ht, r := hotFixture(ReplacerRAFL, 4)
	k, h1, fp := hk(1)
	v := kv.MustValue([]byte("hello"))
	ht.put(k, v, h1, fp, r)
	got, ok := ht.get(k, h1, fp)
	if !ok || got != v {
		t.Fatalf("get = (%q, %v)", got.String(), ok)
	}
	if ht.countValid() != 1 {
		t.Fatalf("countValid = %d", ht.countValid())
	}
}

func TestHotGetMiss(t *testing.T) {
	ht, _ := hotFixture(ReplacerRAFL, 4)
	k, h1, fp := hk(1)
	if _, ok := ht.get(k, h1, fp); ok {
		t.Fatal("empty cache hit")
	}
}

func TestHotUpdateInPlace(t *testing.T) {
	ht, r := hotFixture(ReplacerRAFL, 4)
	k, h1, fp := hk(1)
	ht.put(k, kv.MustValue([]byte("v1")), h1, fp, r)
	ht.put(k, kv.MustValue([]byte("v2")), h1, fp, r)
	if ht.countValid() != 1 {
		t.Fatalf("update created a duplicate: %d entries", ht.countValid())
	}
	got, _ := ht.get(k, h1, fp)
	if got.String() != "v2" {
		t.Fatalf("got %q", got.String())
	}
}

func TestHotDelete(t *testing.T) {
	ht, r := hotFixture(ReplacerRAFL, 4)
	k, h1, fp := hk(1)
	ht.put(k, kv.MustValue([]byte("v")), h1, fp, r)
	ht.del(k, h1, fp)
	if _, ok := ht.get(k, h1, fp); ok {
		t.Fatal("deleted entry still cached")
	}
	ht.del(k, h1, fp) // idempotent
}

func TestHotGetSetsHotBit(t *testing.T) {
	ht, r := hotFixture(ReplacerRAFL, 4)
	k, h1, fp := hk(1)
	ht.put(k, kv.MustValue([]byte("v")), h1, fp, r)
	w0, w1, kfp := mustPack(k)
	top := ht.pair().top
	b := top.bucket(h1)
	idx := top.findKey(b, w0, w1, kfp)
	if idx < 0 {
		// Entry may be in the bottom level.
		bot := ht.pair().bottom
		idx = bot.findKey(bot.bucket(h1), w0, w1, kfp)
		top = bot
	}
	if idx < 0 {
		t.Fatal("entry not found in either level")
	}
	if top.loadCtrl(idx)&hotHot != 0 {
		t.Fatal("fresh entry is already hot (must enter cold)")
	}
	ht.get(k, h1, fp)
	if top.loadCtrl(idx)&hotHot == 0 {
		t.Fatal("search did not set the hotmap bit")
	}
}

func mustPack(k kv.Key) (uint64, uint64, uint8) {
	w0, w1 := k.Pack()
	return w0, w1, hashfn.Fingerprint(hashfn.Hash1(k[:]))
}

func TestRAFLEvictsColdFirst(t *testing.T) {
	// Fill one bucket, heat all but one entry, then overflow: the cold one
	// must be the victim (Figure 6a).
	ht, r := hotFixture(ReplacerRAFL, 2)
	top := ht.pair().top

	// Find keys colliding into one top-level bucket (and, to keep the test
	// focused, whose bottom bucket we will saturate too).
	var ks []kv.Key
	var h1s []uint64
	var fps []uint8
	targetTop, targetBot := int64(-1), int64(-1)
	bot := ht.pair().bottom
	for i := 0; len(ks) < 5 && i < 100000; i++ {
		k, h1, fp := hk(i)
		tb, bb := top.bucket(h1), bot.bucket(h1)
		if targetTop < 0 {
			targetTop, targetBot = tb, bb
		}
		if tb == targetTop && bb == targetBot {
			ks = append(ks, k)
			h1s = append(h1s, h1)
			fps = append(fps, fp)
		}
	}
	if len(ks) < 5 {
		t.Skip("could not find enough colliding keys")
	}
	val := kv.MustValue([]byte("x"))
	// 2 top slots + 2 bottom slots fill with the first four.
	for i := 0; i < 4; i++ {
		ht.put(ks[i], val, h1s[i], fps[i], r)
	}
	// Heat entry 1 in the top bucket; leave entry 0 cold... we don't know
	// which two landed in top, so heat everything except ks[0].
	for i := 1; i < 4; i++ {
		ht.get(ks[i], h1s[i], fps[i])
	}
	// Overflow with the fifth key: replacement happens in the top bucket;
	// the victim must be a cold entry if one exists there.
	ht.put(ks[4], val, h1s[4], fps[4], r)
	if _, ok := ht.get(ks[4], h1s[4], fps[4]); !ok {
		t.Fatal("newly inserted key not cached")
	}
	// ks[0] was the only cold candidate; if it sat in the top bucket it is
	// gone now. Either way, at most one of the original four was evicted.
	survivors := 0
	for i := 0; i < 4; i++ {
		if _, ok := ht.get(ks[i], h1s[i], fps[i]); ok {
			survivors++
		}
	}
	if survivors != 3 {
		t.Fatalf("%d of 4 original entries survive, want exactly 3", survivors)
	}
}

func TestRAFLRandomReplacementClearsHotBits(t *testing.T) {
	// When every slot is hot, a random victim is evicted and the bucket's
	// hotmap bits are all cleared (Figure 6b).
	ht, r := hotFixture(ReplacerRAFL, 2)
	top := ht.pair().top
	bot := ht.pair().bottom
	var ks []kv.Key
	var h1s []uint64
	var fps []uint8
	tt, tb := int64(-1), int64(-1)
	for i := 0; len(ks) < 5 && i < 200000; i++ {
		k, h1, fp := hk(i)
		if tt < 0 {
			tt, tb = top.bucket(h1), bot.bucket(h1)
		}
		if top.bucket(h1) == tt && bot.bucket(h1) == tb {
			ks = append(ks, k)
			h1s = append(h1s, h1)
			fps = append(fps, fp)
		}
	}
	if len(ks) < 5 {
		t.Skip("could not find enough colliding keys")
	}
	val := kv.MustValue([]byte("x"))
	for i := 0; i < 4; i++ {
		ht.put(ks[i], val, h1s[i], fps[i], r)
		ht.get(ks[i], h1s[i], fps[i]) // heat everything
	}
	ht.put(ks[4], val, h1s[4], fps[4], r)
	// All hotmap bits in the top bucket must now be clear.
	for s := 0; s < top.slotsPer; s++ {
		if top.loadCtrl(top.slotIdx(tt, s))&hotHot != 0 {
			t.Fatal("hotmap bit survived an all-hot replacement")
		}
	}
}

func TestLRUReplacerEvictsOldest(t *testing.T) {
	ht, r := hotFixture(ReplacerLRU, 2)
	top := ht.pair().top
	bot := ht.pair().bottom
	var ks []kv.Key
	var h1s []uint64
	var fps []uint8
	tt, tb := int64(-1), int64(-1)
	for i := 0; len(ks) < 5 && i < 200000; i++ {
		k, h1, fp := hk(i)
		if tt < 0 {
			tt, tb = top.bucket(h1), bot.bucket(h1)
		}
		if top.bucket(h1) == tt && bot.bucket(h1) == tb {
			ks = append(ks, k)
			h1s = append(h1s, h1)
			fps = append(fps, fp)
		}
	}
	if len(ks) < 5 {
		t.Skip("could not find enough colliding keys")
	}
	val := kv.MustValue([]byte("x"))
	for i := 0; i < 4; i++ {
		ht.put(ks[i], val, h1s[i], fps[i], r)
	}
	// Touch all but ks[0] (and its bottom-level counterpart is untouched
	// too, but only the top bucket is replaced into).
	for i := 1; i < 4; i++ {
		ht.get(ks[i], h1s[i], fps[i])
	}
	ht.put(ks[4], val, h1s[4], fps[4], r)
	survivors := 0
	for i := 0; i < 4; i++ {
		if _, ok := ht.get(ks[i], h1s[i], fps[i]); ok {
			survivors++
		}
	}
	if survivors != 3 {
		t.Fatalf("%d of 4 original entries survive, want 3", survivors)
	}
}

func TestHotPromote(t *testing.T) {
	ht, r := hotFixture(ReplacerRAFL, 4)
	k, h1, fp := hk(1)
	ht.put(k, kv.MustValue([]byte("v")), h1, fp, r)
	oldTop := ht.pair().top
	ht.promote(4, 4)
	if ht.pair().bottom != oldTop {
		t.Fatal("promote did not demote the old top level")
	}
	if ht.pair().top.segments != 4 {
		t.Fatalf("new top has %d segments", ht.pair().top.segments)
	}
	// An entry that lived in the old top must still be findable if its
	// bucket mapping in the bottom level matches — by construction it does,
	// since the demoted level keeps its geometry.
	if _, ok := ht.get(k, h1, fp); !ok {
		t.Fatal("entry lost by promote")
	}
}

// TestHotPromoteRacesMutators is the regression test for the torn promote:
// the level pair used to be published as two stores (bottom, then top) and
// read as two loads, so a mutator landing between them saw top == bottom,
// computed the same bucket twice, and took that non-reentrant spinLock
// twice — spinning forever with the lock held, with every later mutator of
// the bucket queued behind it. A promote loop races every mutator here; the
// pair every lockBuckets returns must be two distinct levels, and the
// watchdog turns a wedge into a failure that names this test instead of a
// package timeout.
func TestHotPromoteRacesMutators(t *testing.T) {
	tbl := newTable(t, nil)
	ht := newHotTable(2, 1, 4, 4, ReplacerRAFL)
	tbl.hot = ht // tiny geometry: every mutator hits the same few buckets
	src := newLevel(0, 1, 4)
	var stop atomic.Bool
	var wg sync.WaitGroup
	race := func(fn func(i int, r *rng.Xorshift128)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(7)
			for i := 0; !stop.Load(); i++ {
				fn(i, r)
			}
		}()
	}
	race(func(i int, _ *rng.Xorshift128) { ht.promote(int64(2+2*(i&1)), 4) })
	race(func(i int, r *rng.Xorshift128) {
		k, h1, fp := hk(i % 16)
		ht.put(k, kv.MustValue([]byte("v")), h1, fp, r)
	})
	race(func(i int, _ *rng.Xorshift128) {
		k, h1, fp := hk(i % 16)
		ht.del(k, h1, fp)
	})
	race(func(i int, r *rng.Xorshift128) {
		k, h1, fp := hk(i % 16)
		ht.fill(k, kv.MustValue([]byte("f")), h1, fp, src, 0, 0, src.ocfLoad(0, 0), r)
	})
	s := sessionOn(tbl)
	race(func(i int, _ *rng.Xorshift128) {
		for j := 0; j < 4; j++ {
			k, h1, fp := hk((i + j) % 16)
			s.ss[0].batch.fills = append(s.ss[0].batch.fills, pendingFill{k: k, v: kv.MustValue([]byte("b")), h1: h1, fp: fp, src: src})
		}
		s.ss[0].applyFills()
	})
	race(func(i int, _ *rng.Xorshift128) {
		_, h1, _ := hk(i % 16)
		top, bottom, tb, bb := ht.lockBuckets(h1)
		if top == bottom {
			t.Error("lockBuckets returned a half-promoted pair: top == bottom")
			stop.Store(true)
		}
		unlockBuckets(top, bottom, tb, bb)
	})

	done := make(chan struct{})
	go func() {
		time.Sleep(300 * time.Millisecond)
		stop.Store(true)
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("TestHotPromoteRacesMutators: hot-table mutators wedged (a bucket spinLock taken twice across a torn promote?)")
	}
}

func TestHotFillValidation(t *testing.T) {
	// A fill whose source OCF word changed must be dropped.
	ht, r := hotFixture(ReplacerRAFL, 4)
	lvl := newLevel(0, 2, 4)
	k, h1, fp := hk(1)
	observed := lvl.ocfLoad(0, 0)
	// Mutate the source slot: version bump via release.
	lvl.ocfRelease(0, 0, true, fp, ocfVer(observed))
	ht.fill(k, kv.MustValue([]byte("stale")), h1, fp, lvl, 0, 0, observed, r)
	if _, ok := ht.get(k, h1, fp); ok {
		t.Fatal("stale fill was applied")
	}
	// And a fill with the current word must apply.
	current := lvl.ocfLoad(0, 0)
	ht.fill(k, kv.MustValue([]byte("fresh")), h1, fp, lvl, 0, 0, current, r)
	if v, ok := ht.get(k, h1, fp); !ok || v.String() != "fresh" {
		t.Fatal("valid fill was not applied")
	}
}

func TestHotTableServesWithoutNVMReads(t *testing.T) {
	// End-to-end: once a key is hot, repeated Gets must not touch NVM.
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	s.Get(key(1)) // ensure cached (insert already caches; this heats it)
	s.ResetNVMStats()
	for i := 0; i < 100; i++ {
		if v, ok := s.Get(key(1)); !ok || v != value(1) {
			t.Fatal("hot get failed")
		}
	}
	if st := s.NVMStats(); st.ReadAccesses != 0 {
		t.Fatalf("hot hits read NVM %d times", st.ReadAccesses)
	}
}
