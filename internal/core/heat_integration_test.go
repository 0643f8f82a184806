package core

import (
	"testing"
	"time"

	"hdnh/internal/heat"
	"hdnh/internal/kv"
)

// A skewed read workload must surface the planted hot key at the top of its
// shard's sketch, attributed to the shard the router actually routes it to.
func TestHeatPlantedHotKey(t *testing.T) {
	mon := heat.NewMonitor(heat.Config{TopK: 8, SampleEvery: 4})
	opts := DefaultOptions()
	opts.Shards = 2
	opts.InitBottomSegments = 4
	opts.Heat = mon
	r, err := CreateRouter(newDev(t, 1<<22), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := r.NewSession()
	defer s.Close()

	const n = 256
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Zipf-ish skew: half of all Gets hit one key, the rest sweep the space.
	hot := key(7)
	for i := 0; i < 8000; i++ {
		s.Get(hot)
		s.Get(key(i % n))
	}

	wantShard := r.ShardForKey(hot)
	snap := mon.Snapshot()
	if len(snap.Shards) != 2 {
		t.Fatalf("heat shards = %d, want 2", len(snap.Shards))
	}
	sh := snap.Shards[wantShard]
	if len(sh.Top) == 0 {
		t.Fatalf("shard %d sketch is empty", wantShard)
	}
	if sh.Top[0].Key != hot.String() {
		t.Fatalf("shard %d top key = %q (count %d), want planted %q",
			wantShard, sh.Top[0].Key, sh.Top[0].Count, hot.String())
	}
	// ~8000 sampled-estimated touches, plus this key's share of the sweep.
	if c := sh.Top[0].Count; c < 4000 || c > 16000 {
		t.Fatalf("planted key estimate = %d, want within [4000,16000]", c)
	}
	// The sampled ops are attributed to shards: both shards saw gets plus
	// the initial inserts.
	var total uint64
	for _, ss := range snap.Shards {
		total += ss.Total
	}
	if total == 0 {
		t.Fatal("no sampled ops attributed to any shard")
	}
}

// The batch Get path must feed the sketch too: a MultiGet-only workload with
// a repeated key surfaces it.
func TestHeatMultiGet(t *testing.T) {
	mon := heat.NewMonitor(heat.Config{TopK: 4, SampleEvery: 1})
	opts := DefaultOptions()
	opts.InitBottomSegments = 4
	opts.Heat = mon
	tbl, err := create(newDev(t, 1<<22), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	defer s.Close()
	for i := 0; i < 32; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	hot := key(3)
	bk := []kv.Key{hot, hot, hot, key(1), key(2)}
	vals := make([]kv.Value, len(bk))
	found := make([]bool, len(bk))
	for round := 0; round < 100; round++ {
		if hits := s.MultiGet(bk, vals, found); hits != len(bk) {
			t.Fatalf("round %d: hits = %d, want %d", round, hits, len(bk))
		}
	}
	top := mon.Snapshot().Shards[0].Top
	if len(top) == 0 || top[0].Key != hot.String() {
		t.Fatalf("top = %+v, want %q first", top, hot.String())
	}
	// 3 per batch x 100 rounds, plus the insert touch and any Space-Saving
	// takeover inflation from the 32-key insert phase (bounded by Err).
	if c, e := top[0].Count, top[0].Err; c < 300 || c-e > 301 {
		t.Fatalf("hot count = %d (err %d), want Space-Saving bracket around 300", c, e)
	}
}

// The unsampled hot path must not allocate with heat enabled — the
// acceptance bar for compiling the sketch into Get/Put.
func TestHeatUnsampledAllocs(t *testing.T) {
	mon := heat.NewMonitor(heat.Config{TopK: 8, SampleEvery: 1 << 30})
	opts := DefaultOptions()
	opts.InitBottomSegments = 4
	opts.Heat = mon
	tbl, err := create(newDev(t, 1<<22), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	defer s.Close()
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	s.Get(key(1)) // warm the hot-table entry
	k := key(1)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Get(k); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("Get with heat enabled allocates %v/op on the unsampled path", n)
	}
	v := value(2)
	if n := testing.AllocsPerRun(1000, func() {
		if err := s.Update(k, v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Update with heat enabled allocates %v/op on the unsampled path", n)
	}
}

// TestHeatOverheadGuard mirrors TestMetricsOverheadGuard: a coarse tripwire
// that fails only if the sketch lands on the wrong side of the sampling gate
// (per-op locking or allocation), not a precise cost measurement.
func TestHeatOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	const n = 20000
	run := func(mon *heat.Monitor) time.Duration {
		opts := DefaultOptions()
		opts.InitBottomSegments = 16
		opts.Heat = mon
		tbl, err := create(newDev(t, 1<<22), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		s := sessionOn(tbl)
		defer s.Close()
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
	sampled := run(heat.NewMonitor(heat.Config{})) // default 1-in-64 sampling
	ratio := float64(sampled) / float64(plain)
	t.Logf("get path: plain %v, heat-sampled %v (ratio %.3f)", plain, sampled, ratio)
	if ratio > 2.0 {
		t.Fatalf("heat overhead ratio %.2f — the sketch is on the wrong side of the sampling gate", ratio)
	}
}
