// Benchmarks mirroring the paper's evaluation, one per figure/table. Each
// benchmark drives the same workload shape as its figure through the same
// code paths the hdnhbench harness uses, but sized by b.N so `go test
// -bench` gives stable per-op numbers.
//
// These run on a ModeModel device: NVM accesses are *counted* but cost no
// time, so the ns/op numbers isolate pure code overhead (useful for
// profiling regressions) and deliberately do NOT show the paper's scheme
// ordering — a filterless scheme's cheap-but-many NVM reads are free here.
// The paper-shape comparison, where NVM reads cost 300ns/block and writes
// draw bandwidth, is `go run ./cmd/hdnhbench -all -mode emulate`
// (recorded in EXPERIMENTS.md).
package hdnh_test

import (
	"fmt"
	"sync"
	"testing"

	"hdnh/internal/core"
	"hdnh/internal/harness"
	"hdnh/internal/nvm"
	"hdnh/internal/rng"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"

	_ "hdnh/internal/cceh"
	_ "hdnh/internal/levelhash"
	_ "hdnh/internal/pathhash"
)

const benchRecords = 20_000

func mustDevice(b *testing.B, words int64) *nvm.Device {
	b.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(words))
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

func mustStore(b *testing.B, name string, records int64) scheme.Store {
	b.Helper()
	dev := mustDevice(b, (records+10_000)*96)
	st, err := scheme.Open(name, dev, records)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

func mustPreload(b *testing.B, st scheme.Store, records int64) {
	b.Helper()
	if err := harness.Preload(st, records, 4); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig11aSegmentSize measures HDNH insert and search cost across
// segment sizes (Figure 11a): insert is best at 16KB, search flattens
// beyond it.
func BenchmarkFig11aSegmentSize(b *testing.B) {
	for _, segBytes := range []int64{256, 4096, 16384, 262144} {
		segBuckets := int(segBytes / 256)
		b.Run(fmt.Sprintf("insert/seg=%dB", segBytes), func(b *testing.B) {
			dev := mustDevice(b, int64(b.N+benchRecords)*96+1<<20)
			opts := core.DefaultOptions()
			opts.SegmentBuckets = segBuckets
			tbl, err := core.CreateRouter(dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer tbl.Close()
			s := tbl.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Insert(ycsb.InsertKey(int64(i)), ycsb.ValueFor(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("search/seg=%dB", segBytes), func(b *testing.B) {
			dev := mustDevice(b, benchRecords*96+1<<20)
			opts := core.DefaultOptions()
			opts.SegmentBuckets = segBuckets
			opts.InitBottomSegments = int(benchRecords/(3*int64(segBuckets)*core.SlotsPerBucket)) + 1
			tbl, err := core.CreateRouter(dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer tbl.Close()
			mustPreload(b, core.NewRouterStore(tbl), benchRecords)
			s := tbl.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(ycsb.RecordKey(int64(i) % benchRecords)); !ok {
					b.Fatal("missing record")
				}
			}
		})
	}
}

// BenchmarkFig11bHotSlots measures positive and negative search cost versus
// hot-table slots per bucket (Figure 11b).
func BenchmarkFig11bHotSlots(b *testing.B) {
	for _, slots := range []int{1, 2, 4, 8} {
		for _, kind := range []string{"positive", "negative"} {
			b.Run(fmt.Sprintf("%s/slots=%d", kind, slots), func(b *testing.B) {
				dev := mustDevice(b, benchRecords*96+1<<20)
				opts := core.DefaultOptions()
				opts.HotSlotsPerBucket = slots
				opts.InitBottomSegments = int(benchRecords/(3*int64(opts.SegmentBuckets)*core.SlotsPerBucket)) + 1
				tbl, err := core.CreateRouter(dev, opts)
				if err != nil {
					b.Fatal(err)
				}
				defer tbl.Close()
				mustPreload(b, core.NewRouterStore(tbl), benchRecords)
				s := tbl.NewSession()
				zipf, err := ycsb.NewZipf(benchRecords, 0.99)
				if err != nil {
					b.Fatal(err)
				}
				r := rng.New(1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kind == "positive" {
						if _, ok := s.Get(ycsb.RecordKey(zipf.Sample(r))); !ok {
							b.Fatal("missing record")
						}
					} else {
						if _, ok := s.Get(ycsb.NegativeKey(int64(i))); ok {
							b.Fatal("phantom record")
						}
					}
				}
			})
		}
	}
}

// BenchmarkFig12Skewness measures zipfian search cost per scheme and skew
// (Figure 12): hot-aware HDNH gets cheaper as skew rises; LEVEL/CCEH don't.
func BenchmarkFig12Skewness(b *testing.B) {
	for _, name := range []string{"LEVEL", "CCEH", "HDNH-LRU", "HDNH"} {
		for _, s := range []float64{0.5, 0.99, 1.22} {
			b.Run(fmt.Sprintf("%s/s=%.2f", name, s), func(b *testing.B) {
				st := mustStore(b, name, benchRecords)
				mustPreload(b, st, benchRecords)
				sess := st.NewSession()
				zipf, err := ycsb.NewZipf(benchRecords, s)
				if err != nil {
					b.Fatal(err)
				}
				r := rng.New(2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := sess.Get(ycsb.RecordKey(zipf.Sample(r))); !ok {
						b.Fatal("missing record")
					}
				}
			})
		}
	}
}

// BenchmarkFig13SingleThread measures each operation per scheme
// (Figure 13): insert, positive search, negative search, delete.
func BenchmarkFig13SingleThread(b *testing.B) {
	for _, name := range []string{"PATH", "LEVEL", "CCEH", "HDNH"} {
		b.Run(name+"/insert", func(b *testing.B) {
			st := mustStore(b, name, int64(b.N)+benchRecords)
			mustPreload(b, st, benchRecords)
			s := st.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Insert(ycsb.InsertKey(int64(i)), ycsb.ValueFor(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/search-positive", func(b *testing.B) {
			st := mustStore(b, name, benchRecords)
			mustPreload(b, st, benchRecords)
			s := st.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(ycsb.RecordKey(int64(i) % benchRecords)); !ok {
					b.Fatal("missing record")
				}
			}
		})
		b.Run(name+"/search-negative", func(b *testing.B) {
			st := mustStore(b, name, benchRecords)
			mustPreload(b, st, benchRecords)
			s := st.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(ycsb.NegativeKey(int64(i))); ok {
					b.Fatal("phantom record")
				}
			}
		})
		b.Run(name+"/delete", func(b *testing.B) {
			st := mustStore(b, name, int64(b.N))
			mustPreload(b, st, int64(b.N))
			s := st.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Delete(ycsb.RecordKey(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14Concurrent measures the three concurrency workloads
// (Figure 14) at several goroutine counts. On a small-GOMAXPROCS host the
// absolute scaling compresses; the scheme ordering is the reproduced shape.
func BenchmarkFig14Concurrent(b *testing.B) {
	workloads := []struct {
		name   string
		insert bool
		read   bool
	}{
		{"insert", true, false},
		{"search", false, true},
		{"mixed", true, true},
	}
	for _, scheme := range []string{"PATH", "LEVEL", "CCEH", "HDNH"} {
		for _, wl := range workloads {
			for _, threads := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/threads=%d", scheme, wl.name, threads), func(b *testing.B) {
					st := mustStore(b, scheme, int64(b.N)+benchRecords)
					mustPreload(b, st, benchRecords)
					b.ResetTimer()
					var wg sync.WaitGroup
					per := b.N / threads
					for t := 0; t < threads; t++ {
						wg.Add(1)
						go func(t int) {
							defer wg.Done()
							s := st.NewSession()
							base := int64(t) * int64(per)
							for i := 0; i < per; i++ {
								switch {
								case wl.insert && (!wl.read || i%2 == 0):
									_ = s.Insert(ycsb.InsertKey(base+int64(i)), ycsb.ValueFor(int64(i)))
								default:
									s.Get(ycsb.RecordKey((base + int64(i)) % benchRecords))
								}
							}
						}(t)
					}
					wg.Wait()
				})
			}
		}
	}
}

// BenchmarkFig15TailLatency runs YCSB-A (50% read / 50% update, zipfian
// 0.99) and reports the p99 per scheme (Figure 15's tail).
func BenchmarkFig15TailLatency(b *testing.B) {
	for _, name := range []string{"CCEH", "LEVEL", "HDNH"} {
		b.Run(name, func(b *testing.B) {
			st := mustStore(b, name, benchRecords)
			mustPreload(b, st, benchRecords)
			gen, err := ycsb.New(ycsb.Config{
				RecordCount:  benchRecords,
				Mix:          ycsb.WorkloadA,
				Distribution: ycsb.ScrambledZipfian,
				Theta:        0.99,
				Seed:         5,
			})
			if err != nil {
				b.Fatal(err)
			}
			s := st.NewSession()
			w := gen.Worker(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := w.Next()
				switch op.Kind {
				case ycsb.OpRead:
					s.Get(ycsb.RecordKey(op.Index))
				case ycsb.OpUpdate:
					_ = s.Update(ycsb.RecordKey(op.Index), ycsb.ValueFor(op.Index+1))
				}
			}
		})
	}
}

// BenchmarkTable1Recovery measures HDNH recovery (Table 1) at three data
// sizes: each iteration re-opens the same crashed device image.
func BenchmarkTable1Recovery(b *testing.B) {
	for _, records := range []int64{2_000, 20_000, 200_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dev := mustDevice(b, records*96+1<<20)
			opts := core.DefaultOptions()
			opts.InitBottomSegments = int(records/(3*int64(opts.SegmentBuckets)*core.SlotsPerBucket)) + 1
			tbl, err := core.CreateRouter(dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := harness.Preload(core.NewRouterStore(tbl), records, 4); err != nil {
				b.Fatal(err)
			}
			tbl.StopBackground()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := core.OpenRouter(dev, opts)
				if err != nil {
					b.Fatal(err)
				}
				if re.Count() != records {
					b.Fatalf("recovered %d of %d", re.Count(), records)
				}
				b.StopTimer()
				re.StopBackground()
				b.StartTimer()
			}
		})
	}
}
