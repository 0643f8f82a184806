package bigkv

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdnh/internal/nvm"
)

// Grouped-write stress and speedup floors at the store level: the staged
// group commit inside each shard composes with the router's parallel
// per-shard fan-out and with value-log appends/GC, and this file pins both
// the safety of that composition under races and the throughput win that
// justifies it.

func groupStressVal(k, gen int) []byte {
	if k%3 == 0 {
		return bytes.Repeat([]byte{byte(k), byte(gen)}, 100) // logged
	}
	return []byte{byte(k), byte(gen), 0x5a} // inline
}

// TestGroupWriteShardStress races grouped writers, delete/reinsert churn,
// and batch readers across a Shards=4 store with background GC enabled.
// Readers hold the single-key invariant: a committed, never-deleted key is
// always found with one of its possible generations.
func TestGroupWriteShardStress(t *testing.T) {
	st := shardedStore(t, 4, 0, 0, true)
	const stable = 512
	load := st.NewSession()
	for i := 0; i < stable; i++ {
		if err := load.Put([]byte(fmt.Sprintf("st-%04d", i)), groupStressVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	load.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Grouped grower: fresh keys through MultiPut, forcing shard resizes
	// and log growth while the others run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		s := st.NewSession()
		defer s.Close()
		const batch = 128
		keys := make([][]byte, batch)
		vals := make([][]byte, batch)
		for base := 0; base < 4096; base += batch {
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("gr-%05d", base+i))
				vals[i] = groupStressVal(base+i, 7)
			}
			for j, err := range s.MultiPut(keys, vals) {
				if err != nil {
					t.Errorf("grower key %d: %v", base+j, err)
					return
				}
			}
		}
	}()

	// Grouped updater: rewrites stable keys, flipping each between its
	// inline and logged encodings so superseded log records retire under
	// concurrent GC.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := st.NewSession()
		defer s.Close()
		const batch = 64
		keys := make([][]byte, batch)
		vals := make([][]byte, batch)
		for base := 0; !stop.Load(); base += batch {
			for i := range keys {
				k := (base + i) % stable
				keys[i] = []byte(fmt.Sprintf("st-%04d", k))
				vals[i] = groupStressVal(k, 1)
			}
			for j, err := range s.MultiPut(keys, vals) {
				if err != nil {
					t.Errorf("updater key %d: %v", j, err)
					return
				}
			}
		}
	}()

	// Delete/reinsert churn on a range disjoint from the readers'.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := st.NewSession()
		defer s.Close()
		const batch = 32
		keys := make([][]byte, batch)
		vals := make([][]byte, batch)
		for r := 0; !stop.Load(); r++ {
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("ch-%03d", i))
				vals[i] = groupStressVal(i, r%16)
			}
			for j, err := range s.MultiPut(keys, vals) {
				if err != nil {
					t.Errorf("churn put %d: %v", j, err)
					return
				}
			}
			for j, err := range s.MultiDelete(keys) {
				if err != nil {
					t.Errorf("churn delete %d: %v", j, err)
					return
				}
			}
		}
	}()

	// Batch reader over the stable keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := st.NewSession()
		defer s.Close()
		const batch = 64
		keys := make([][]byte, batch)
		for base := 0; !stop.Load(); base += batch {
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("st-%04d", (base+i)%stable))
			}
			vals, found, errs := s.MultiGet(keys)
			for i := range keys {
				k := (base + i) % stable
				if errs[i] != nil {
					t.Errorf("MultiGet key %d: %v", k, errs[i])
					return
				}
				if !found[i] {
					t.Errorf("MultiGet lost committed key %d during grouped churn", k)
					return
				}
				if !bytes.Equal(vals[i], groupStressVal(k, 0)) && !bytes.Equal(vals[i], groupStressVal(k, 1)) {
					t.Errorf("MultiGet key %d: impossible value (%d bytes)", k, len(vals[i]))
					return
				}
			}
		}
	}()

	wg.Wait()
	st.stopGC()
	if err := st.AuditLiveness(); err != nil {
		t.Fatalf("liveness audit after grouped shard stress: %v", err)
	}
	if errs := st.Index().CheckInvariants(); len(errs) > 0 {
		t.Fatalf("index invariants after grouped shard stress: %v", errs[0])
	}
}

// groupSpeedupStore builds a preloaded emulate-mode store for the floor
// tests: every measured pass is a pure update of the same keyset, so the
// looped and grouped paths do identical logical work.
func groupSpeedupStore(t *testing.T, shards, n int) (*Session, [][]byte, [][]byte) {
	t.Helper()
	dev, err := nvm.New(nvm.EmulateConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Table.Shards = shards
	opts.Table.InitBottomSegments = 32
	opts.Segments = 64
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	val := make([]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("spd%08d", i))
		vals[i] = val
	}
	s := st.NewSession()
	t.Cleanup(func() { s.Close() })
	for i := range keys {
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	return s, keys, vals
}

// measureGroupSpeedup times the same update stream looped vs grouped, best
// of `rounds` each to shed scheduler noise, and returns looped/grouped.
func measureGroupSpeedup(t *testing.T, s *Session, keys, vals [][]byte, rounds int) float64 {
	t.Helper()
	best := func(f func()) time.Duration {
		lo := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < lo {
				lo = d
			}
		}
		return lo
	}
	looped := best(func() {
		for i := range keys {
			if err := s.Put(keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	grouped := best(func() {
		for _, err := range s.MultiPut(keys, vals) {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	ratio := float64(looped) / float64(grouped)
	t.Logf("looped %v grouped %v (%.2fx, %d keys)", looped, grouped, ratio, len(keys))
	return ratio
}

// TestGroupedWriteSpeedupSerial is the ungated floor: even on one core,
// with no fan-out parallelism, collapsing per-key persist barriers into
// three per chunk must buy a measurable wall-clock win on the emulated
// device (measured ~1.6x; floor 1.2x leaves noise margin). The race
// detector's overhead swamps the barrier cost it measures (1.12–1.18x under
// -race), so the floor is off there; TestMultiPutGroupEconomics pins the same
// barrier economics as counts, which the detector cannot distort.
func TestGroupedWriteSpeedupSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing floor; the race detector distorts it (TestMultiPutGroupEconomics pins the counts)")
	}
	s, keys, vals := groupSpeedupStore(t, 1, 256)
	if ratio := measureGroupSpeedup(t, s, keys, vals, 5); ratio < 1.2 {
		t.Errorf("grouped writes only %.2fx faster than looped serially, want >= 1.2x", ratio)
	}
}

// TestGroupedWriteSpeedupSharded is the acceptance floor: with four shards
// on four real cores, the grouped path (barrier collapse x parallel
// per-shard fan-out) must at least double looped-Put throughput.
func TestGroupedWriteSpeedupSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU()) // -cpu 4 on a 2-core host buys no cores
	if procs < 4 {
		t.Skipf("%d usable cores: fan-out speedup is not observable without real cores", procs)
	}
	s, keys, vals := groupSpeedupStore(t, 4, 1024)
	if ratio := measureGroupSpeedup(t, s, keys, vals, 3); ratio < 2.0 {
		t.Errorf("grouped writes only %.2fx faster than looped at shards=4, want >= 2x", ratio)
	}
}
