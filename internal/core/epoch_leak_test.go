package core

import (
	"sync"
	"testing"
)

// TestEpochRegistryBounded is the leak regression: churning sessions
// serially must not grow the slot registry past the peak number open at
// once. Before sessions could be closed, 5000 create/discard cycles meant
// 5000 registry entries and every resize grace period scanned them all.
func TestEpochRegistryBounded(t *testing.T) {
	tbl := newTable(t, nil)
	// The table may register internal slots (drain workers etc.); measure
	// growth over a baseline that already includes one churned session.
	warm := sessionOn(tbl)
	warm.Close()
	base := tbl.epochRegistryLen()
	for i := 0; i < 5000; i++ {
		s := sessionOn(tbl)
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if got := tbl.epochRegistryLen(); got != base {
		t.Fatalf("registry grew from %d to %d over serial churn; slots are not being reused", base, got)
	}
	// Close is idempotent.
	s := sessionOn(tbl)
	s.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEpochRegistryBoundedConcurrent: under G concurrent churners the
// registry is bounded by peak concurrency (base + G), never by the total
// number of sessions created (G * perG).
func TestEpochRegistryBoundedConcurrent(t *testing.T) {
	tbl := newTable(t, nil)
	base := tbl.epochRegistryLen()
	const (
		goroutines = 8
		perG       = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s := sessionOn(tbl)
				k := key(g*perG + i)
				if err := s.Insert(k, value(i)); err != nil {
					t.Errorf("insert: %v", err)
				}
				s.Get(k)
				s.Close()
			}
		}(g)
	}
	wg.Wait()
	if got := tbl.epochRegistryLen(); got > base+goroutines {
		t.Fatalf("registry = %d after concurrent churn, want <= %d (base %d + %d churners)",
			got, base+goroutines, base, goroutines)
	}
}

// TestEpochCloseVsResizeRace churns session lifecycles while inserts force
// resizes, so slot release/reuse interleaves with grace-period registry
// scans. Its value is under -race (the CI shard-stress job): the COW
// registry and free list must stay coherent while waitGrace walks slots
// that other goroutines are concurrently releasing and re-acquiring.
func TestEpochCloseVsResizeRace(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.InitBottomSegments = 1 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churners: short-lived sessions doing a read each, closed immediately.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := sessionOn(tbl)
				s.Get(key(g*1000 + i%1000))
				s.Close()
				i++
			}
		}(g)
	}
	// Writer: grows the table through several resizes, each of whose grace
	// periods scans the registry the churners are mutating.
	w := sessionOn(tbl)
	for i := 0; i < 20000; i++ {
		if err := w.Insert(key(i), value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	w.Close()
	close(stop)
	wg.Wait()
	tbl.waitDrain()
	if got := tbl.Count(); got != 20000 {
		t.Fatalf("Count = %d, want 20000", got)
	}
	if errs := tbl.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}
