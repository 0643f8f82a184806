package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdnh/internal/nvm"
)

// Shard-router scaling benchmarks and the acceptance tripwire for the PR's
// headline claim: write-heavy mixed workloads stop funnelling through one
// table's serial sections (resize drains, slot-lock neighbourhoods) once the keyspace splits across shards.

// benchRouter builds a sharded router sized like benchTable: big enough
// that no resize fires mid-benchmark, with the initial segments divided
// across shards by perShardOptions.
func benchRouter(b *testing.B, shards int) *Router {
	b.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 24))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Shards = shards
	opts.InitBottomSegments = 64
	r, err := CreateRouter(dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkPutParallel is BenchmarkGetParallel's write-path twin: concurrent
// upserts over a bounded keyspace (first pass inserts, steady state
// updates), swept over shard counts. On one core the shards=4 line should
// match shards=1 (routing is a shift and an index); with real cores it
// should pull ahead as the slot-lock serial sections split.
func BenchmarkPutParallel(b *testing.B) {
	const n = 10000
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := benchRouter(b, shards)
			ks, vs := benchKeys(n), benchVals(n)
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s := r.NewSession()
				for pb.Next() {
					i := int(ctr.Add(1)) % n
					if err := s.Put(ks[i], vs[i]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// TestParallelMixedShardScaling is the PR's acceptance test: on a host with
// real parallelism, a 50/50 put/get workload across GOMAXPROCS goroutines
// must run at least 1.5x faster on a 4-shard router than on a single table.
// Skipped below 4 CPUs — the shards just time-slice one core there and the
// ratio is noise (the harness `-fig shardscale` sweep shows the same flat
// line); the CI shard-stress job runs it where it means something.
func TestParallelMixedShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU()) // -cpu 4 on a 2-core host buys no cores
	if procs < 4 {
		t.Skipf("%d usable cores: shard scaling is not observable without real cores", procs)
	}

	const n = 10000
	// measure returns aggregate mixed ops/second across `procs` goroutines
	// against a `shards`-way router; best of three to shed scheduler noise.
	measure := func(shards int) float64 {
		dev, err := nvm.New(nvm.DefaultConfig(1 << 24))
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Shards = shards
		opts.InitBottomSegments = 64
		r, err := CreateRouter(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		load := r.NewSession()
		for i := 0; i < n; i++ {
			if err := load.Insert(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		load.Close()

		const window = 50 * time.Millisecond
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			var total atomic.Int64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < procs; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					s := r.NewSession()
					defer s.Close()
					ops := int64(0)
					for i := seed; !stop.Load(); i++ {
						k := key(i % n)
						if i%2 == 0 {
							if err := s.Put(k, value(i)); err != nil {
								t.Error(err)
								return
							}
						} else if _, ok := s.Get(k); !ok {
							t.Error("miss")
							return
						}
						ops++
					}
					total.Add(ops)
				}(w * 2531)
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
	sharded := measure(4)
	ratio := sharded / single
	t.Logf("GOMAXPROCS=%d: shards=1 %.0f ops/s, shards=4 %.0f ops/s (%.2fx)", procs, single, sharded, ratio)
	if ratio < 1.5 {
		t.Fatalf("shards=4/shards=1 mixed throughput ratio %.2f < 1.5 at %d procs — sharding is not buying parallelism", ratio, procs)
	}
}

// TestPutParallelSmoke keeps BenchmarkPutParallel's body compiling and
// correct on hosts where the benchmarks never run (the plain `go test` twin
// of the CI bench-smoke job, like TestGetParallelSmoke).
func TestPutParallelSmoke(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Shards = shards
			r, err := CreateRouter(newDev(t, 1<<22), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var wg sync.WaitGroup
			var fails atomic.Int64
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := r.NewSession()
					defer s.Close()
					for i := 0; i < 1024; i++ {
						k := (w*977 + i) % 512
						if err := s.Put(key(k), value(i)); err != nil {
							fails.Add(1)
							return
						}
						if _, ok := s.Get(key(k)); !ok {
							fails.Add(1)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if fails.Load() != 0 {
				t.Fatalf("%d workers failed", fails.Load())
			}
			if errs := r.CheckInvariants(); len(errs) > 0 {
				t.Fatalf("invariants: %v", errs)
			}
		})
	}
}
