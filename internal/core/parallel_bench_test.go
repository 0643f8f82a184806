package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Parallel read-path benchmarks: the scaling story the epoch scheme exists
// for. Run with -cpu to sweep GOMAXPROCS, e.g.
//
//	go test -bench GetParallel -cpu 1,4,8 ./internal/core/
//
// Before the epoch work every Get took the table-wide reader lock, so
// adding cores added cache-line ping-pong on the lock word instead of
// throughput; the per-core epoch slots make the two sub-benchmarks below
// scale with -cpu instead.

// BenchmarkGetParallel drives concurrent readers through both read paths:
// hot (DRAM cache hit, the shortest path) and nvt (cache disabled, full
// OCF + NVT walk — where the old reader lock hurt most, since the walk
// holds the critical section longest).
func BenchmarkGetParallel(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		mutate func(*Options)
		warm   bool
	}{
		{"hot", nil, true},
		{"nvt", func(o *Options) { o.HotSlotsPerBucket = 0 }, false},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			tbl := benchTable(b, cfg.mutate)
			load := sessionOn(tbl)
			const n = 10000
			ks, vs := benchKeys(n), benchVals(n)
			for i := 0; i < n; i++ {
				if err := load.Insert(ks[i], vs[i]); err != nil {
					b.Fatal(err)
				}
			}
			if cfg.warm {
				for i := 0; i < n; i++ {
					load.Get(ks[i])
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Sessions are single-goroutine objects; each worker gets
				// its own (and with it its own epoch slot).
				s := sessionOn(tbl)
				i := 0
				for pb.Next() {
					if _, ok := s.Get(ks[i%n]); !ok {
						b.Fatal("miss")
					}
					i++
				}
			})
		})
	}
}

// TestParallelGetEfficiency is the scaling tripwire: aggregate NVT-hit Get
// throughput across GOMAXPROCS goroutines must beat a single reader by a
// real margin. A table-wide reader lock fails this immediately — under it,
// extra readers mostly contend on the lock word and aggregate throughput
// stays near (or below) the single-reader line. The threshold is loose
// (1.5x at 4+ cores) because CI machines are noisy; catching a return to
// lock-serialised reads does not need precision.
func TestParallelGetEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU()) // -cpu 4 on a 2-core host buys no cores
	if procs < 4 {
		t.Skipf("%d usable cores: parallel speedup is not observable without real cores", procs)
	}

	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0 // force the NVT walk, the contended path
		o.InitBottomSegments = 16
	})
	load := sessionOn(tbl)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := load.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}

	// measure returns aggregate Gets/second across `workers` goroutines
	// over a fixed wall-clock window; best of three to shed scheduler noise.
	measure := func(workers int) float64 {
		const window = 50 * time.Millisecond
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			var total atomic.Int64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					s := sessionOn(tbl)
					ops := int64(0)
					for i := seed; !stop.Load(); i++ {
						if _, ok := s.Get(key(i % n)); !ok {
							t.Error("miss")
							return
						}
						ops++
					}
					total.Add(ops)
				}(w * 1000)
			}
			start := time.Now()
			time.Sleep(window)
			stop.Store(true)
			wg.Wait()
			if rate := float64(total.Load()) / time.Since(start).Seconds(); rate > best {
				best = rate
			}
		}
		return best
	}

	single := measure(1)
	parallel := measure(procs)
	ratio := parallel / single
	t.Logf("GOMAXPROCS=%d: single %.0f gets/s, parallel %.0f gets/s (%.2fx)", procs, single, parallel, ratio)
	if ratio < 1.5 {
		t.Fatalf("parallel/single throughput ratio %.2f < 1.5 at %d procs — reads look lock-serialised again", ratio, procs)
	}
}

// TestGetParallelSmoke keeps the benchmark bodies compiling and correct on
// hosts where the benchmarks themselves never run (the CI bench-smoke job
// executes them with -benchtime 1x; this is the plain `go test` twin).
func TestGetParallelSmoke(t *testing.T) {
	for _, hot := range []bool{true, false} {
		name := "nvt"
		mutate := func(o *Options) { o.HotSlotsPerBucket = 0 }
		if hot {
			name, mutate = "hot", nil
		}
		t.Run(name, func(t *testing.T) {
			tbl := newTable(t, mutate)
			load := sessionOn(tbl)
			for i := 0; i < 512; i++ {
				if err := load.Insert(key(i), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := sessionOn(tbl)
					for i := 0; i < 2048; i++ {
						k := (w*977 + i) % 512
						if _, ok := s.Get(key(k)); !ok {
							errs <- fmt.Errorf("worker %d: miss on key %d", w, k)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
