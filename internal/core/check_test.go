package core

import (
	"sync"
	"testing"

	"hdnh/internal/nvm"
)

func assertHealthy(t *testing.T, tbl *Table, context string) {
	t.Helper()
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		for _, e := range errs[:min(len(errs), 10)] {
			t.Errorf("%s: %v", context, e)
		}
		t.Fatalf("%s: %d invariant violations", context, len(errs))
	}
}

func TestInvariantsAfterMixedOps(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	for i := 0; i < 5000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	assertHealthy(t, tbl, "after inserts")
	for i := 0; i < 5000; i += 2 {
		if err := s.Update(key(i), value(i+9)); err != nil {
			t.Fatal(err)
		}
	}
	assertHealthy(t, tbl, "after updates")
	for i := 0; i < 5000; i += 3 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	assertHealthy(t, tbl, "after deletes")
}

func TestInvariantsAfterConcurrentChurn(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.SegmentBuckets = 16 }) // force resizes during the churn
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			base := w * 3000
			for i := 0; i < 3000; i++ {
				if err := s.Insert(key(base+i), value(i)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			for i := 0; i < 3000; i += 2 {
				if err := s.Update(key(base+i), value(i+1)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
			for i := 1; i < 3000; i += 4 {
				if err := s.Delete(key(base + i)); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	assertHealthy(t, tbl, "after concurrent churn with resizes")
}

func TestInvariantsAfterCrashRecovery(t *testing.T) {
	cfg := nvm.StrictConfig(1 << 21)
	cfg.EvictProb = 0.4
	dev, err := nvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	if err := dev.SetCrashAfterFlushes(900); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := s.Update(key(i), value(i+7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := dev.CrashImage()
	if img == nil {
		t.Fatal("crash image not captured")
	}
	dev2, err := nvm.FromImage(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := openRoot(dev2, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	assertHealthy(t, tbl2, "after crash recovery")
}

func TestCheckDetectsCorruption(t *testing.T) {
	// Sanity: the checker must actually catch problems, not rubber-stamp.
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	for i := 0; i < 100; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt: clear an NVT valid bit behind the OCF's back.
	found := false
	top := tbl.pair().top
	for b := int64(0); b < top.buckets() && !found; b++ {
		for slot := 0; slot < SlotsPerBucket && !found; slot++ {
			if ocfIsValid(top.ocfLoad(b, slot)) {
				off := top.slotWord(b, slot)
				w3 := tbl.dev.Load(off + 3)
				tbl.dev.Store(off+3, w3&^(uint64(1)<<56))
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no record found in the top level to corrupt")
	}
	if errs := tbl.CheckInvariants(); len(errs) == 0 {
		t.Fatal("checker missed an OCF/NVT disagreement")
	}
}
