package core

import (
	"testing"
	"time"

	"hdnh/internal/obs"
)

// Benchmarks for the accounting-mode overhead claim: run with
//
//	go test ./internal/core/ -bench 'BenchmarkGet' -benchmem
//
// and compare the Metrics variants against their plain counterparts; the
// instrumented paths must stay within 5% on the accounting-mode device.

func BenchmarkGetHotMetrics(b *testing.B) {
	tbl := benchTable(b, func(o *Options) { o.Metrics = obs.New(obs.Config{}) })
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

func BenchmarkGetNVTMetrics(b *testing.B) {
	tbl := benchTable(b, func(o *Options) {
		o.HotSlotsPerBucket = 0
		o.Metrics = obs.New(obs.Config{})
	})
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

func BenchmarkInsertMetrics(b *testing.B) {
	tbl := benchTable(b, func(o *Options) { o.Metrics = obs.New(obs.Config{}) })
	s := sessionOn(tbl)
	ks, vs := benchKeys(b.N), benchVals(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert(ks[i], vs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMetricsOverheadGuard is a coarse tripwire, not the 5% measurement (the
// benchmarks above are; CI machines are too noisy to assert 5% in a test).
// It fails only when instrumentation grossly regresses the read path — e.g.
// an accidental allocation or unsampled clock read per op.
func TestMetricsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	const n = 20000
	run := func(m *obs.Metrics) time.Duration {
		opts := DefaultOptions()
		opts.InitBottomSegments = 16
		opts.Metrics = m
		tbl, err := create(newDev(t, 1<<22), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		s := sessionOn(tbl)
		for i := 0; i < n; i++ {
			if err := s.Insert(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, ok := s.Get(key(i)); !ok {
					t.Fatal("miss")
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	plain := run(nil)
	instrumented := run(obs.New(obs.Config{}))
	ratio := float64(instrumented) / float64(plain)
	t.Logf("get path: plain %v, instrumented %v (ratio %.3f)", plain, instrumented, ratio)
	if ratio > 2.0 {
		t.Fatalf("metrics overhead ratio %.2f — instrumentation is on the wrong side of the sampling gate", ratio)
	}
}
