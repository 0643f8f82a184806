package core

import (
	"errors"
	"sync"
	"testing"

	"hdnh/internal/scheme"
)

// These tests race the search-path cache fill against same-key writes and
// assert the fill's OCF validation holds: the hot table must never resurrect
// a deleted key or retain a superseded value once the racers return. Run
// them under -race; the interleavings are driven by repetition.

// fillRaceRound builds a fresh table, runs the racing closures, and hands
// the table to check.
func fillRaceRound(t *testing.T, race func(get, write *RouterSession), check func(tbl *Table)) {
	t.Helper()
	tbl := newTable(t, nil)
	get, write := sessionOn(tbl), sessionOn(tbl)
	if err := write.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	race(get, write)
	check(tbl)
}

func TestHotFillNeverResurrectsDeletedKey(t *testing.T) {
	k := key(1)
	h1, h2, fp := hashKV(k[:])
	for round := 0; round < 30; round++ {
		fillRaceRound(t,
			func(get, write *RouterSession) {
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					// Each hit on the NVT fills the cache, racing the delete
					// below.
					for i := 0; i < 200; i++ {
						get.Get(k)
					}
				}()
				go func() {
					defer wg.Done()
					if err := write.Delete(k); err != nil && !errors.Is(err, scheme.ErrContended) {
						t.Errorf("delete: %v", err)
					}
				}()
				wg.Wait()
			},
			func(tbl *Table) {
				if _, ok := tbl.hot.get(k, h1, fp); ok {
					t.Fatal("hot table resurrected a deleted key")
				}
				s := sessionOn(tbl)
				var ps probeStats
				if _, res := tbl.walk(s.ss[0].h, k, h1, h2, fp, &ps, walkRead); res != lookupMissing {
					t.Fatalf("NVT still finds the deleted key (result %d)", res)
				}
			})
	}
}

func TestHotFillNeverRetainsStaleValue(t *testing.T) {
	k := key(1)
	h1, h2, fp := hashKV(k[:])
	final := value(99)
	for round := 0; round < 30; round++ {
		fillRaceRound(t,
			func(get, write *RouterSession) {
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						get.Get(k)
					}
				}()
				go func() {
					defer wg.Done()
					// A chain of updates; each moves the record out of place,
					// invalidating any fill validated against an older slot.
					for i := 2; i < 10; i++ {
						if err := write.Update(k, value(i)); err != nil {
							t.Errorf("update %d: %v", i, err)
							return
						}
					}
					if err := write.Update(k, final); err != nil {
						t.Errorf("final update: %v", err)
					}
				}()
				wg.Wait()
			},
			func(tbl *Table) {
				if v, ok := tbl.hot.get(k, h1, fp); ok && v != final {
					t.Fatalf("hot table kept stale value %q after updates settled", v.String())
				}
				// Read the NVT directly: a Get could answer from the cache.
				s := sessionOn(tbl)
				var ps probeStats
				ht, res := tbl.walk(s.ss[0].h, k, h1, h2, fp, &ps, walkRead)
				if res != lookupFound || ht.val != final {
					t.Fatalf("table lost the final value (result %d, %q)", res, ht.val.String())
				}
			})
	}
}
