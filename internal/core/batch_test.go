package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hdnh/internal/flight"
	"hdnh/internal/kv"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// Unit coverage for the batch entry points: semantics must match the
// single-key ops exactly — the batch path only changes how the work is
// grouped, never what a caller observes per key.

func TestMultiGetMixedHitsAndMisses(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"hot", nil},
		// HotSlotsPerBucket=0 is the HDNH-NOHOT shape: every key takes the
		// epoch-chunked NVT walk, so the chunking itself is on the line.
		{"nohot", func(o *Options) { o.HotSlotsPerBucket = 0 }},
		// A chunk smaller than the batch forces multiple enter/exit rounds.
		{"tiny-chunk", func(o *Options) {
			o.HotSlotsPerBucket = 0
			o.batchChunk = 3
		}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			tbl := newTable(t, cfg.mutate)
			s := sessionOn(tbl)
			const n = 200
			for i := 0; i < n; i++ {
				if err := s.Insert(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Interleave present and absent keys so hits and misses share
			// one batch.
			keys := make([]kv.Key, 2*n)
			for i := 0; i < n; i++ {
				keys[2*i] = key(i)
				keys[2*i+1] = key(1_000_000 + i)
			}
			vals := make([]kv.Value, len(keys))
			found := make([]bool, len(keys))
			got := s.MultiGet(keys, vals, found)
			if got != n {
				t.Fatalf("MultiGet found %d of %d present keys", got, n)
			}
			for i := 0; i < n; i++ {
				if !found[2*i] || vals[2*i] != value(i) {
					t.Fatalf("key %d: found=%v val=%v", i, found[2*i], vals[2*i])
				}
				if found[2*i+1] {
					t.Fatalf("phantom hit on absent key %d", 1_000_000+i)
				}
			}
			// A second pass answers from the hot cache (when present) and
			// must agree with the first.
			got2 := s.MultiGet(keys, vals, found)
			if got2 != n {
				t.Fatalf("second MultiGet found %d", got2)
			}
		})
	}
}

func TestMultiGetEmptyAndSingle(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.MultiGet(nil, nil, nil); got != 0 {
		t.Fatalf("empty MultiGet = %d", got)
	}
	vals := make([]kv.Value, 1)
	found := make([]bool, 1)
	if got := s.MultiGet([]kv.Key{key(1)}, vals, found); got != 1 || !found[0] || vals[0] != value(1) {
		t.Fatalf("single MultiGet: got=%d found=%v val=%v", got, found[0], vals[0])
	}
}

func TestMultiGetLengthMismatchPanics(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched result slices did not panic")
		}
	}()
	s.MultiGet(make([]kv.Key, 4), make([]kv.Value, 3), make([]bool, 4))
}

func TestMultiPutUpsertsAndMultiDelete(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	const n = 100
	keys := make([]kv.Key, n)
	vals := make([]kv.Value, n)
	errs := make([]error, n)
	for i := range keys {
		keys[i], vals[i] = key(i), value(i)
	}
	// Seed half through the single-key path so the batch sees a mix of
	// inserts and updates.
	for i := 0; i < n/2; i++ {
		if err := s.Insert(keys[i], value(i+5000)); err != nil {
			t.Fatal(err)
		}
	}
	if failed := s.MultiPut(keys, vals, errs); failed != 0 {
		t.Fatalf("MultiPut reported %d failures (%v...)", failed, firstErr(errs))
	}
	for i := 0; i < n; i++ {
		if v, ok := s.Get(keys[i]); !ok || v != vals[i] {
			t.Fatalf("key %d after MultiPut: ok=%v v=%v want %v", i, ok, v, vals[i])
		}
	}

	// Delete every other key plus some absentees; per-key verdicts must
	// separate the two.
	dk := make([]kv.Key, 0, n)
	for i := 0; i < n; i += 2 {
		dk = append(dk, keys[i])
	}
	dk = append(dk, key(777777))
	derrs := make([]error, len(dk))
	failed := s.MultiDelete(dk, derrs)
	if failed != 1 {
		t.Fatalf("MultiDelete failures = %d, want 1 (the absent key)", failed)
	}
	if !errors.Is(derrs[len(derrs)-1], scheme.ErrNotFound) {
		t.Fatalf("absent-key delete verdict = %v", derrs[len(derrs)-1])
	}
	for i := 0; i < n; i++ {
		_, ok := s.Get(keys[i])
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v after MultiDelete, want %v", i, ok, want)
		}
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestBatchStressThroughResizes is the epoch-scheme race test for the batch
// path: MultiGet readers, single-key readers, and single-key updaters run
// against writers that force repeated incremental doublings. Under -race
// this proves the chunked epoch sections interleave correctly with the
// pointer swap and the drain; functionally it asserts no reader ever misses
// a committed key and no updater observes corruption.
func TestBatchStressThroughResizes(t *testing.T) {
	tbl := newTable(t, func(o *Options) {
		o.drainChunkBuckets = 8
		o.drainWorkers = 2
		o.batchChunk = 16
	})
	const stable = 2000 // keys committed before the churn starts
	load := sessionOn(tbl)
	for i := 0; i < stable; i++ {
		if err := load.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: grows the table past several doublings.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		for i := 0; i < 12000; i++ {
			if err := s.Insert(key(stable+i), value(stable+i)); err != nil {
				t.Errorf("insert %d: %v", stable+i, err)
				break
			}
		}
		stop.Store(true)
	}()

	// Updater: rewrites stable keys through the single-key path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		for i := 0; !stop.Load(); i++ {
			k := i % stable
			if err := s.Update(key(k), value(k+100000)); err != nil {
				t.Errorf("update %d: %v", k, err)
				return
			}
		}
	}()

	// Batch reader: MultiGet over stable keys; every key must be found and
	// carry either its original or an updated value.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := sessionOn(tbl)
			const batch = 64
			keys := make([]kv.Key, batch)
			vals := make([]kv.Value, batch)
			found := make([]bool, batch)
			for base := r * 31; !stop.Load(); base += batch {
				for i := range keys {
					keys[i] = key((base + i) % stable)
				}
				s.MultiGet(keys, vals, found)
				for i := range keys {
					k := (base + i) % stable
					if !found[i] {
						t.Errorf("MultiGet lost committed key %d during resize", k)
						return
					}
					if vals[i] != value(k) && vals[i] != value(k+100000) {
						t.Errorf("MultiGet key %d: impossible value %v", k, vals[i])
						return
					}
				}
			}
		}(r)
	}

	// Single-key reader alongside, same invariant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		for i := 0; !stop.Load(); i++ {
			k := i % stable
			v, ok := s.Get(key(k))
			if !ok {
				t.Errorf("Get lost committed key %d during resize", k)
				return
			}
			if v != value(k) && v != value(k+100000) {
				t.Errorf("Get key %d: impossible value %v", k, v)
				return
			}
		}
	}()

	wg.Wait()
	tbl.waitDrain()
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariant check after batch stress: %v", errs)
	}
}

// TestNoHotEndToEnd is the HotSlotsPerBucket=0 configuration check CI pins
// (the HDNH-NOHOT registry entry is this shape): with the DRAM cache gone
// entirely, every op takes the OCF+NVT path, and the full lifecycle —
// insert through resizes, batch and single reads, update, delete — must
// behave identically to the cached table.
func TestNoHotEndToEnd(t *testing.T) {
	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0
		o.drainChunkBuckets = 16
	})
	s := sessionOn(tbl)
	const n = 6000 // enough to force doublings from one bottom segment
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	keys := make([]kv.Key, 256)
	vals := make([]kv.Value, len(keys))
	found := make([]bool, len(keys))
	for base := 0; base < n; base += len(keys) {
		for i := range keys {
			keys[i] = key((base + i) % n)
		}
		if got := s.MultiGet(keys, vals, found); got != len(keys) {
			t.Fatalf("MultiGet at base %d found %d of %d", base, got, len(keys))
		}
	}
	for i := 0; i < n; i += 7 {
		if err := s.Update(key(i), value(i+50000)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 13 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get(key(i))
		switch {
		case i%13 == 0:
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
		case i%7 == 0:
			if !ok || v != value(i+50000) {
				t.Fatalf("updated key %d: ok=%v v=%v", i, ok, v)
			}
		default:
			if !ok || v != value(i) {
				t.Fatalf("key %d: ok=%v v=%v", i, ok, v)
			}
		}
	}
	tbl.waitDrain()
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants with no hot table: %v", errs)
	}
}

// BenchmarkReadPathBatching isolates what MultiGet amortises: identical
// NVT-walk reads (cache off, keys pre-generated) driven per-key vs in
// batches of 64. The delta is the per-key epoch enter/exit plus call
// overhead the batch path folds into one round per chunk.
func BenchmarkReadPathBatching(b *testing.B) {
	setup := func(b *testing.B) (*RouterSession, []kv.Key) {
		tbl := benchTable(b, func(o *Options) { o.HotSlotsPerBucket = 0 })
		s := sessionOn(tbl)
		const n = 10000
		keys := make([]kv.Key, n)
		for i := 0; i < n; i++ {
			keys[i] = key(i)
			if err := s.Insert(keys[i], value(i)); err != nil {
				b.Fatal(err)
			}
		}
		return s, keys
	}
	b.Run("single", func(b *testing.B) {
		s, keys := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Get(keys[i%len(keys)]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("multi64", func(b *testing.B) {
		s, keys := setup(b)
		const batch = 64
		vals := make([]kv.Value, batch)
		found := make([]bool, batch)
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			lo := done % (len(keys) - batch)
			if got := s.MultiGet(keys[lo:lo+batch], vals, found); got != batch {
				b.Fatal("miss")
			}
		}
	})
}

// TestMultiGetSpanBalanceUnderContention is the regression test for the
// batch-path span leak: MultiGet used to close its flight span after the
// Pass-3 fallback loop, so the fallback Gets' own spans nested inside the
// still-open batch span and the batch was reported OutOK even when keys
// went contended. Force a key through Pass 3 with a movement burst and
// assert every sampled begin has a matching end, with the batch span
// closed OutContended.
func TestMultiGetSpanBalanceUnderContention(t *testing.T) {
	fr := flight.New(flight.Config{SampleEvery: 1, RingEvents: 1 << 16})
	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0 // force the NVT walk for every key
		o.lookupRetryBudget = 2
		o.Flight = fr
	})
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	// A bounded movement burst on the absent key's bucket neighbourhood (the
	// contention_test.go stand-in for a racing update): the budget-2 batch
	// walk exhausts its rescans and hands the key to the Pass-3 fallback,
	// whose blocking Get outlasts the burst.
	absent := key(424242)
	h1a, _, _ := hashKV(absent[:])
	var passes int64
	sh := tbl.moveShard(h1a)
	tbl.testHookLookupPass = func() {
		if passes++; passes < 300 {
			sh.Add(1)
		}
	}
	keys := []kv.Key{key(1), absent}
	vals := make([]kv.Value, 2)
	found := make([]bool, 2)
	hits := s.MultiGet(keys, vals, found)
	tbl.testHookLookupPass = nil
	if hits != 1 || !found[0] || found[1] {
		t.Fatalf("MultiGet under contention = hits %d, found %v", hits, found)
	}

	d := fr.Snapshot()
	begins, ends, contendedEnds := 0, 0, 0
	for _, e := range d.Events {
		switch e.Kind {
		case flight.KindOpBegin:
			begins++
		case flight.KindOpEnd:
			ends++
			if obs.Outcome(e.B) == obs.OutContended {
				contendedEnds++
			}
		}
	}
	if begins == 0 {
		t.Fatal("no sampled op begins in the dump")
	}
	if begins != ends {
		t.Fatalf("batch flight spans leak: %d OpBegin vs %d OpEnd", begins, ends)
	}
	if contendedEnds == 0 {
		t.Fatal("no span closed OutContended; the batch outcome was misreported")
	}
}

// TestMultiGetSteadyStateAllocs guards the zero-allocation steady state the
// session scratch exists for: once the batch's keys are hot-cached and the
// scratch has hit its high-water mark, repeated MultiGets must not allocate.
// (A cold batch with NVT hits allocates in sort.Slice via applyFills — this
// guard is specifically about the warm path, where applyFills early-returns
// on an empty fill list. The leftover slice moving into batchScratch is what
// keeps the occasional promotion race from breaking this.)
func TestMultiGetSteadyStateAllocs(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	const n = 16
	keys := make([]kv.Key, n)
	vals := make([]kv.Value, n)
	found := make([]bool, n)
	for i := 0; i < n; i++ {
		keys[i] = key(i)
		if err := s.Insert(keys[i], value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: populate the hot table and grow the scratch to its final size.
	for w := 0; w < 3; w++ {
		if hits := s.MultiGet(keys, vals, found); hits != n {
			t.Fatalf("warm pass %d: hits %d of %d", w, hits, n)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if hits := s.MultiGet(keys, vals, found); hits != n {
			t.Fatalf("hits %d of %d", hits, n)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm MultiGet allocates %.1f times per batch, want 0", allocs)
	}
}
