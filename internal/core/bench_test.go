package core

import (
	"fmt"
	"testing"

	"hdnh/internal/flight"
	"hdnh/internal/heat"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

// Micro-benchmarks for the operation paths on a model-mode device (pure
// code cost, no emulated NVM delays). The paper-level workload benchmarks
// live at the repository root; these isolate HDNH internals for profiling.

func benchTable(b *testing.B, mutate func(*Options)) *Table {
	b.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 24))
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.InitBottomSegments = 64 // ~98k slots: no resizes mid-benchmark
	if mutate != nil {
		mutate(&opts)
	}
	tbl, err := create(dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tbl.Close() })
	return tbl
}

// benchKeys/benchVals pregenerate inputs so the timed loops measure the
// operation paths, not fmt.Sprintf — the key() helper was the lingering
// 1 alloc/op every hot-path benchmark used to report.
func benchKeys(n int) []kv.Key {
	ks := make([]kv.Key, n)
	for i := range ks {
		ks[i] = key(i)
	}
	return ks
}

func benchVals(n int) []kv.Value {
	vs := make([]kv.Value, n)
	for i := range vs {
		vs[i] = value(i)
	}
	return vs
}

func BenchmarkInsert(b *testing.B) {
	tbl := benchTable(b, nil)
	s := sessionOn(tbl)
	ks, vs := benchKeys(b.N), benchVals(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert(ks[i], vs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetHot(b *testing.B) {
	tbl := benchTable(b, nil)
	s := sessionOn(tbl)
	k := key(1)
	if err := s.Insert(k, value(1)); err != nil {
		b.Fatal(err)
	}
	s.Get(k) // warm the cache entry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

// observerCases are the observer wirings the zero-allocation tests pin: all
// off, and metrics, flight and heat all on, each sampling every op so the
// sampled paths run on every call.
var observerCases = []struct {
	name string
	set  func(*Options)
}{
	{"off", func(*Options) {}},
	{"all-on", func(o *Options) {
		o.Metrics = obs.New(obs.Config{SampleEvery: 1})
		o.Flight = flight.New(flight.Config{SampleEvery: 1})
		o.Heat = heat.NewMonitor(heat.Config{SampleEvery: 1})
	}},
}

// TestGetHotZeroAllocs pins the steady-state read path at zero heap
// allocations per op, with the observers off and with all three on. The last
// holdout was the benchmarks' own key() formatting; with inputs hoisted, any
// future allocation on the warm path (an accidental interface box, a fmt call
// on a hot branch) fails here instead of quietly inflating every benchmark.
func TestGetHotZeroAllocs(t *testing.T) {
	for _, tc := range observerCases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := newTable(t, tc.set)
			s := sessionOn(tbl)
			k := key(1)
			if err := s.Insert(k, value(1)); err != nil {
				t.Fatal(err)
			}
			s.Get(k) // warm the cache entry
			allocs := testing.AllocsPerRun(1000, func() {
				if _, ok := s.Get(k); !ok {
					t.Fatal("miss")
				}
			})
			if allocs != 0 {
				t.Fatalf("warm hot-path Get allocates %.1f per op, want 0", allocs)
			}
		})
	}
}

// TestWriteSteadyStateZeroAllocs is the write-path twin: on a pre-sized table
// an update, and a delete followed by a re-insert, allocate nothing — the
// mirror is applied by the caller, so no request or signal is built per write.
func TestWriteSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range observerCases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := newTable(t, func(o *Options) {
				o.InitBottomSegments = 4
				tc.set(o)
			})
			s := sessionOn(tbl)
			const n = 64
			ks, vs := benchKeys(n), benchVals(n)
			for i := range ks {
				if err := s.Insert(ks[i], vs[i]); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			update := testing.AllocsPerRun(1000, func() {
				i++
				if err := s.Put(ks[i%n], vs[(i+1)%n]); err != nil {
					t.Fatal(err)
				}
			})
			reinsert := testing.AllocsPerRun(1000, func() {
				i++
				if err := s.Delete(ks[i%n]); err != nil {
					t.Fatal(err)
				}
				if err := s.Insert(ks[i%n], vs[i%n]); err != nil {
					t.Fatal(err)
				}
			})
			if update != 0 || reinsert != 0 {
				t.Fatalf("steady-state writes allocate: update %.1f, delete+insert %.1f per op, want 0", update, reinsert)
			}
		})
	}
}

func BenchmarkGetNVT(b *testing.B) {
	// Hot table disabled: every Get walks OCF + NVT.
	tbl := benchTable(b, func(o *Options) { o.HotSlotsPerBucket = 0 })
	s := sessionOn(tbl)
	const n = 10000
	ks, vs := benchKeys(n), benchVals(n)
	for i := 0; i < n; i++ {
		if err := s.Insert(ks[i], vs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(ks[i%n]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetNegative(b *testing.B) {
	tbl := benchTable(b, func(o *Options) { o.HotSlotsPerBucket = 0 })
	s := sessionOn(tbl)
	const n = 10000
	ks, vs := benchKeys(n), benchVals(n)
	for i := 0; i < n; i++ {
		if err := s.Insert(ks[i], vs[i]); err != nil {
			b.Fatal(err)
		}
	}
	miss := make([]kv.Key, n)
	for i := range miss {
		miss[i] = key(1000000 + i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(miss[i%n]); ok {
			b.Fatal("phantom")
		}
	}
}

func BenchmarkUpdate(b *testing.B) {
	tbl := benchTable(b, nil)
	s := sessionOn(tbl)
	const n = 10000
	ks, vs := benchKeys(n), benchVals(n)
	for i := 0; i < n; i++ {
		if err := s.Insert(ks[i], vs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Update(ks[i%n], vs[(i+1)%n]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteInsertCycle(b *testing.B) {
	tbl := benchTable(b, nil)
	s := sessionOn(tbl)
	k := key(1)
	vs := benchVals(2)
	if err := s.Insert(k, vs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Delete(k); err != nil {
			b.Fatal(err)
		}
		if err := s.Insert(k, vs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotTablePut(b *testing.B) {
	ht, r := hotFixture(ReplacerRAFL, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, h1, fp := hk(i % 64)
		ht.put(k, value(i), h1, fp, r)
	}
}

func BenchmarkHotTableGet(b *testing.B) {
	ht, r := hotFixture(ReplacerRAFL, 4)
	k, h1, fp := hk(1)
	ht.put(k, value(1), h1, fp, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ht.get(k, h1, fp); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dev, err := nvm.New(nvm.DefaultConfig(1 << 24))
			if err != nil {
				b.Fatal(err)
			}
			opts := DefaultOptions()
			opts.InitBottomSegments = 64
			tbl, err := create(dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			s := sessionOn(tbl)
			for i := 0; i < n; i++ {
				if err := s.Insert(key(i), value(i)); err != nil {
					b.Fatal(err)
				}
			}
			tbl.StopBackground()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := openRoot(dev, opts, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				re.StopBackground()
				b.StartTimer()
			}
		})
	}
}
