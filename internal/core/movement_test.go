package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestReaderNeverMissesMovingKey targets the out-of-place-update movement
// hazard: an update publishes the key's new slot and retires the old one,
// and a reader whose scan interleaves with the move must still find the key
// (restarting its scan when it observes a matching-fingerprint slot die
// under a writer lock). Hot table disabled so every read walks the NVT.
func TestReaderNeverMissesMovingKey(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.HotSlotsPerBucket = 0 })
	writer := sessionOn(tbl)

	// A handful of keys so updates constantly relocate records within a few
	// candidate sets.
	const keys = 8
	for i := 0; i < keys; i++ {
		if err := writer.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var writerWG, workerWG sync.WaitGroup

	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for round := 0; !stop.Load(); round++ {
			for i := 0; i < keys; i++ {
				if err := writer.Update(key(i), value(round)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}
	}()

	for r := 0; r < 4; r++ {
		workerWG.Add(1)
		go func(r int) {
			defer workerWG.Done()
			s := sessionOn(tbl)
			for i := 0; i < 30000; i++ {
				k := (r + i) % keys
				if _, ok := s.Get(key(k)); !ok {
					t.Errorf("reader %d: key %d vanished mid-update (movement hazard)", r, k)
					return
				}
			}
		}(r)
	}
	// Concurrent updaters of the same keys stress findAndLock's rescan too.
	for u := 0; u < 2; u++ {
		workerWG.Add(1)
		go func(u int) {
			defer workerWG.Done()
			s := sessionOn(tbl)
			for i := 0; i < 5000; i++ {
				if err := s.Update(key(i%keys), value(1000000+i)); err != nil {
					t.Errorf("racing updater: %v", err)
					return
				}
			}
		}(u)
	}

	workerWG.Wait()
	stop.Store(true)
	writerWG.Wait()

	if tbl.Count() != keys {
		t.Fatalf("Count = %d, want %d", tbl.Count(), keys)
	}
	for i := 0; i < keys; i++ {
		if _, ok := writer.Get(key(i)); !ok {
			t.Fatalf("key %d missing after the churn", i)
		}
	}
}
