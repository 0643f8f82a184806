package bigkv

import (
	"fmt"
	"testing"
	"time"

	"hdnh/internal/core"
	"hdnh/internal/nvm"
)

// TestMultiPutGroupEconomics pins the reason the grouped write path exists:
// the same upsert stream must cost materially fewer persist operations
// through one MultiPut than through looped Puts. Flush and fence counts are
// deterministic (no timing), so the floor is tight enough to catch the
// grouped path silently degrading to per-key commits.
func TestMultiPutGroupEconomics(t *testing.T) {
	opts := DefaultOptions()
	opts.Table.InitBottomSegments = 32
	opts.Segments = 64
	dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const n = 256
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	val := make([]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("econ%08d", i))
		vals[i] = val
	}

	s := st.NewSession()
	defer s.Close()

	// Preload so both measured passes below are pure updates — the looped
	// and grouped paths then do identical logical work (new log record, new
	// slot, old slot cleared) and differ only in persist grouping.
	for i := range keys {
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}

	// Looped baseline.
	before := s.NVMStats()
	loopFlushes := dev.TotalFlushes()
	loopStart := time.Now()
	for i := range keys {
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	loopElapsed := time.Since(loopStart)
	looped := s.NVMStats().Sub(before)
	loopFlushes = dev.TotalFlushes() - loopFlushes

	// Grouped: the same updates through one MultiPut.
	before = s.NVMStats()
	groupFlushes := dev.TotalFlushes()
	groupStart := time.Now()
	for _, err := range s.MultiPut(keys, vals) {
		if err != nil {
			t.Fatal(err)
		}
	}
	groupElapsed := time.Since(groupStart)
	grouped := s.NVMStats().Sub(before)
	groupFlushes = dev.TotalFlushes() - groupFlushes
	t.Logf("wall: looped %v grouped %v", loopElapsed, groupElapsed)

	t.Logf("looped : lines %d fences %d flush calls %d writes %dw reads %dw modeled %v",
		looped.Flushes, looped.Fences, loopFlushes, looped.WriteWords, looped.ReadWords,
		time.Duration(looped.ModeledNanos))
	t.Logf("grouped: lines %d fences %d flush calls %d writes %dw reads %dw modeled %v",
		grouped.Flushes, grouped.Fences, groupFlushes, grouped.WriteWords, grouped.ReadWords,
		time.Duration(grouped.ModeledNanos))

	if grouped.Fences*2 > looped.Fences {
		t.Errorf("grouped path issued %d fences vs %d looped — want at least a 2x reduction",
			grouped.Fences, looped.Fences)
	}
	// The grouped path moves the same bytes — line write-backs are write
	// volume, not protocol overhead — so the floor is parity, while the
	// persist barriers (flush *calls*, what the device waits on) must
	// collapse: a chunk drains behind three barriers instead of ~5 per key.
	if grouped.Flushes > looped.Flushes {
		t.Errorf("grouped path flushed %d lines vs %d looped — grouping must not add write volume",
			grouped.Flushes, looped.Flushes)
	}
	if groupFlushes*2 > loopFlushes {
		t.Errorf("grouped path issued %d flush calls vs %d looped — want at least a 2x reduction",
			groupFlushes, loopFlushes)
	}
	if grouped.ModeledNanos*2 > looped.ModeledNanos {
		t.Errorf("grouped modeled time %v vs looped %v — want at least a 2x reduction",
			time.Duration(grouped.ModeledNanos), time.Duration(looped.ModeledNanos))
	}
}

var _ = core.DefaultOptions

// TestMultiPutSteadyStateAllocs pins the grouped write path's scratch
// reuse: before the session-held multiScratch, a 256-key MultiPut
// allocated ~72 KB across ~19 slices per call. Steady state now costs 4
// small allocations (the returned errs slice — per-call by contract — plus
// the writer-pool round trip); the bound leaves one stray for GC noise.
func TestMultiPutSteadyStateAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Table.InitBottomSegments = 32
	opts.Segments = 64
	dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 256
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	val := make([]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("econ%08d", i))
		vals[i] = val
	}
	s := st.NewSession()
	defer s.Close()
	// Warm: grow the scratch slices to their high-water marks.
	for w := 0; w < 3; w++ {
		for _, err := range s.MultiPut(keys, vals) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, err := range s.MultiPut(keys, vals) {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 5 {
		t.Fatalf("steady-state MultiPut(256) allocates %.1f times per call, want <= 5", allocs)
	}
}

// TestMultiGetSteadyStateAllocs pins the batch read path's scratch reuse:
// the key, slot-value and hit slices MultiGet works in come from the
// session, so a steady-state call allocates the three slices it hands back
// (the caller keeps those) and one copy per value found — six plus the
// copies before. The bounds leave one stray for GC noise.
func TestMultiGetSteadyStateAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Table.InitBottomSegments = 32
	dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 256
	present := make([][]byte, n)
	absent := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range present {
		present[i] = []byte(fmt.Sprintf("here%08d", i))
		absent[i] = []byte(fmt.Sprintf("gone%08d", i))
		vals[i] = []byte("inline")
	}
	s := st.NewSession()
	defer s.Close()
	for _, err := range s.MultiPut(present, vals) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		keys [][]byte
		hits int
		max  float64
	}{
		{"all absent", absent, 0, 3 + 1},
		{"all present", present, n, 3 + n + 1},
	} {
		get := func() {
			_, found, errs := s.MultiGet(tc.keys)
			hits := 0
			for i := range found {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if found[i] {
					hits++
				}
			}
			if hits != tc.hits {
				t.Fatalf("%s: %d hits, want %d", tc.name, hits, tc.hits)
			}
		}
		get() // warm: grow the scratch to its high-water mark
		if allocs := testing.AllocsPerRun(50, get); allocs > tc.max {
			t.Errorf("%s: steady-state MultiGet(%d) allocates %.1f times per call, want <= %.0f", tc.name, n, allocs, tc.max)
		}
	}
}

// benchStore builds one preloaded store shared by the grouped/looped
// update benchmarks below.
func benchUpdateStore(b *testing.B, cfg nvm.Config) (*Session, [][]byte, [][]byte) {
	b.Helper()
	opts := DefaultOptions()
	opts.Table.InitBottomSegments = 32
	opts.Segments = 64
	dev, err := nvm.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := Create(dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	const n = 256
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	val := make([]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("econ%08d", i))
		vals[i] = val
	}
	s := st.NewSession()
	b.Cleanup(func() { s.Close() })
	for i := range keys {
		if err := s.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return s, keys, vals
}

func benchLooped(b *testing.B, cfg nvm.Config) {
	s, keys, vals := benchUpdateStore(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if err := s.Put(keys[k], vals[k]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGrouped(b *testing.B, cfg nvm.Config) {
	s, keys, vals := benchUpdateStore(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(keys) {
		for _, err := range s.MultiPut(keys, vals) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkUpdateLooped(b *testing.B)  { benchLooped(b, nvm.DefaultConfig(1<<26)) }
func BenchmarkUpdateGrouped(b *testing.B) { benchGrouped(b, nvm.DefaultConfig(1<<26)) }

func BenchmarkUpdateLoopedEmulate(b *testing.B)  { benchLooped(b, nvm.EmulateConfig(1<<23)) }
func BenchmarkUpdateGroupedEmulate(b *testing.B) { benchGrouped(b, nvm.EmulateConfig(1<<23)) }
