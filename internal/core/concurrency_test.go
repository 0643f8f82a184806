package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"hdnh/internal/scheme"
)

func TestConcurrentDisjointInserts(t *testing.T) {
	tbl := newTable(t, nil)
	const workers = 8
	const perW = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			for i := 0; i < perW; i++ {
				if err := s.Insert(key(w*perW+i), value(w*perW+i)); err != nil {
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Count() != workers*perW {
		t.Fatalf("Count = %d, want %d", tbl.Count(), workers*perW)
	}
	s := sessionOn(tbl)
	for i := 0; i < workers*perW; i++ {
		if v, ok := s.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d wrong after concurrent inserts", i)
		}
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	tbl := newTable(t, nil)
	loader := sessionOn(tbl)
	const n = 4000
	for i := 0; i < n; i++ {
		if err := loader.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	// One writer keeps updating a sliding window of keys.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s := sessionOn(tbl)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Update(key(i%n), value(i)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	// Readers hammer lookups; every hit must decode to a valid value for
	// that key (never a torn mix).
	for r := 0; r < 6; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			s := sessionOn(tbl)
			for i := 0; i < 20000; i++ {
				k := (r*7 + i) % n
				v, ok := s.Get(key(k))
				if !ok {
					t.Errorf("key %d vanished during updates", k)
					return
				}
				// Values are always "val-%06d"; prefix check catches tears.
				if v[0] != 'v' || v[1] != 'a' || v[2] != 'l' || v[3] != '-' {
					t.Errorf("torn value read for key %d: %q", k, v.String())
					return
				}
			}
		}(r)
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

func TestConcurrentMixedOpsDisjointKeyRanges(t *testing.T) {
	tbl := newTable(t, nil)
	const workers = 6
	const perW = 1500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			base := w * perW
			for i := 0; i < perW; i++ {
				if err := s.Insert(key(base+i), value(i)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
			for i := 0; i < perW; i++ {
				if err := s.Update(key(base+i), value(i+1)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
			for i := 0; i < perW; i += 2 {
				if err := s.Delete(key(base + i)); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
			for i := 0; i < perW; i++ {
				v, ok := s.Get(key(base + i))
				if i%2 == 0 {
					if ok {
						t.Errorf("deleted key %d still present", base+i)
						return
					}
				} else if !ok || v != value(i+1) {
					t.Errorf("key %d wrong after mixed ops", base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if want := int64(workers * perW / 2); tbl.Count() != want {
		t.Fatalf("Count = %d, want %d", tbl.Count(), want)
	}
}

func TestConcurrentUpdatesSameKey(t *testing.T) {
	tbl := newTable(t, nil)
	s0 := sessionOn(tbl)
	if err := s0.Insert(key(1), value(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			for i := 0; i < 300; i++ {
				if err := s.Update(key(1), value(w*1000+i)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Count() != 1 {
		t.Fatalf("Count = %d after concurrent same-key updates", tbl.Count())
	}
	v, ok := s0.Get(key(1))
	if !ok {
		t.Fatal("key lost")
	}
	if v[0] != 'v' {
		t.Fatalf("corrupt value %q", v.String())
	}
}

// TestConcurrentSameKeyWriters races writers of the SAME keys, the case the
// per-slot protocol used to leave to the caller. Phase one: every worker
// inserts every key, and exactly one insert per key may win — before the
// announce-and-count step in session.stage two sessions could both pass the
// duplicate check and commit the key twice. Phase two: the workers upsert
// and delete a small shared keyset; the invariant checker then demands one
// committed copy per key and a cache that matches the NVT — a mirror applied
// after its writer unlocked could be overtaken by the next writer's, leaving
// a stale (or, after a delete, resurrected) cache entry.
func TestConcurrentSameKeyWriters(t *testing.T) {
	tbl := newTable(t, nil)
	const workers, keys = 4, 1500
	var wins [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			defer s.Close()
			for i := 0; i < keys; i++ {
				switch err := s.Insert(key(i), value(w*keys+i)); err {
				case nil:
					wins[i].Add(1)
				case scheme.ErrExists:
				default:
					t.Errorf("worker %d insert %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range wins {
		if n := wins[i].Load(); n != 1 {
			t.Fatalf("key %d: %d inserts succeeded, want exactly 1", i, n)
		}
	}
	assertHealthy(t, tbl, "after racing same-key inserts")

	const hot = 48
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			defer s.Close()
			for i := 0; i < 4000; i++ {
				k := key((w*31 + i) % hot)
				var err error
				if i%5 == 4 {
					if err = s.Delete(k); err == scheme.ErrNotFound {
						err = nil
					}
				} else {
					err = s.Put(k, value(w*10000+i))
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	assertHealthy(t, tbl, "after racing same-key upserts and deletes")
}

func TestConcurrentInsertsThroughResizes(t *testing.T) {
	// Small segments force many expansions while writers race.
	tbl := newTable(t, func(o *Options) { o.SegmentBuckets = 8 })
	const workers = 4
	const perW = 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			for i := 0; i < perW; i++ {
				if err := s.Insert(key(w*perW+i), value(i)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Generation() < 3 {
		t.Fatalf("only %d generations; resize path untested", tbl.Generation())
	}
	s := sessionOn(tbl)
	for i := 0; i < workers*perW; i++ {
		w, j := i/perW, i%perW
		if v, ok := s.Get(key(w*perW + j)); !ok || v != value(j) {
			t.Fatalf("key %d lost through concurrent resizes", i)
		}
	}
}

func TestConcurrentDeleteVsGet(t *testing.T) {
	tbl := newTable(t, nil)
	s0 := sessionOn(tbl)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s0.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		for i := 0; i < n; i++ {
			if err := s.Delete(key(i)); err != nil {
				t.Errorf("delete %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < n; i++ {
				if v, ok := s.Get(key(i)); ok && v != value(i) {
					t.Errorf("key %d returned wrong value during deletes: %q", i, v.String())
					return
				}
			}
		}
	}()
	wg.Wait()
	// After all deletes complete, nothing may remain — including in the
	// hot table (the coherence protocol must not leave phantoms).
	s := sessionOn(tbl)
	for i := 0; i < n; i++ {
		if _, ok := s.Get(key(i)); ok {
			t.Fatalf("phantom key %d after concurrent delete/get", i)
		}
	}
	if tbl.Count() != 0 {
		t.Fatalf("Count = %d", tbl.Count())
	}
}

func TestConcurrentSchemeSessions(t *testing.T) {
	dev := newDev(t, 1<<22)
	store, err := scheme.Open("HDNH", dev, 20000)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := store.NewSession()
			for i := 0; i < 2000; i++ {
				id := w*2000 + i
				if err := s.Insert(key(id), value(id)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if v, ok := s.Get(key(id)); !ok || v != value(id) {
					t.Errorf("read-your-write failed for %d", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
