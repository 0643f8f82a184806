package heat

import (
	"fmt"
	"sync"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/obs"
)

func key(i int) kv.Key { return kv.MustKey([]byte(fmt.Sprintf("key-%06d", i))) }

// An unsampled stream (SampleEvery=1) must count a planted heavy hitter
// exactly and rank it first.
func TestPlantedHeavyHitter(t *testing.T) {
	m := NewMonitor(Config{TopK: 8, SampleEvery: 1})
	h := m.Handle(0)
	hot := key(0)
	for i := 0; i < 1000; i++ {
		h.Touch(obs.OpGet, hot)
		h.Touch(obs.OpGet, key(1+i%4))
	}
	snap := m.Snapshot()
	if len(snap.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(snap.Shards))
	}
	top := snap.Shards[0].Top
	if len(top) == 0 || top[0].Key != hot.String() {
		t.Fatalf("top = %+v, want %q first", top, hot.String())
	}
	if top[0].Count != 1000 || top[0].Err != 0 {
		t.Fatalf("hot count=%d err=%d, want 1000/0", top[0].Count, top[0].Err)
	}
	if got := snap.Shards[0].Ops["get"]; got != 2000 {
		t.Fatalf("get ops = %d, want 2000", got)
	}
	if snap.Shards[0].Total != 2000 {
		t.Fatalf("total = %d, want 2000", snap.Shards[0].Total)
	}
}

// With sampling enabled, reported counts are scaled estimates: a handle that
// touches one key N times with SampleEvery=E must report exactly N when E
// divides N (the sketch sees N/E touches of weight E).
func TestSampledScaling(t *testing.T) {
	m := NewMonitor(Config{TopK: 4, SampleEvery: 8})
	h := m.Handle(3)
	k := key(7)
	for i := 0; i < 8000; i++ {
		h.Touch(obs.OpUpdate, k)
	}
	snap := m.Snapshot()
	// Shards 0..3 exist; only 3 has data.
	if len(snap.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(snap.Shards))
	}
	sh := snap.Shards[3]
	if len(sh.Top) != 1 || sh.Top[0].Count != 8000 {
		t.Fatalf("top = %+v, want one entry count 8000", sh.Top)
	}
	if sh.Ops["update"] != 8000 || sh.Total != 8000 {
		t.Fatalf("ops = %+v total %d, want update 8000", sh.Ops, sh.Total)
	}
	if sh.Shard != 3 {
		t.Fatalf("shard id = %d, want 3", sh.Shard)
	}
}

// A stream with more distinct keys than TopK must keep the heavy hitters and
// report a non-zero overestimate bound for entries that took over a slot.
func TestEvictionKeepsHeavyHitters(t *testing.T) {
	const topK = 8
	m := NewMonitor(Config{TopK: topK, SampleEvery: 1})
	h := m.Handle(0)
	// Two heavy keys interleaved with a long tail of singletons.
	a, b := key(10000), key(10001)
	for i := 0; i < 500; i++ {
		h.Touch(obs.OpGet, a)
		h.Touch(obs.OpGet, b)
		h.Touch(obs.OpGet, key(i)) // 500 distinct cold keys
	}
	top := m.Snapshot().Shards[0].Top
	if len(top) != topK {
		t.Fatalf("len(top) = %d, want %d", len(top), topK)
	}
	if top[0].Count < top[1].Count {
		t.Fatalf("top not sorted: %+v", top[:2])
	}
	names := map[string]KeyCount{}
	for _, e := range top {
		names[e.Key] = e
	}
	for _, hot := range []kv.Key{a, b} {
		e, ok := names[hot.String()]
		if !ok {
			t.Fatalf("heavy hitter %q missing from top: %+v", hot.String(), top)
		}
		// Space-Saving guarantees count-err <= true <= count.
		if e.Count < 500 || e.Count-e.Err > 500 {
			t.Fatalf("heavy hitter %q: count=%d err=%d, want bracket around 500", e.Key, e.Count, e.Err)
		}
	}
}

// Concurrent handles on the same shard must be race-free (run with -race)
// and lose no sampled counts.
func TestConcurrentHandles(t *testing.T) {
	m := NewMonitor(Config{TopK: 16, SampleEvery: 1})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.Handle(0)
			for i := 0; i < per; i++ {
				h.Touch(obs.OpGet, key(w%2)) // two hot keys across workers
			}
		}(w)
	}
	wg.Wait()
	sh := m.Snapshot().Shards[0]
	if sh.Total != workers*per {
		t.Fatalf("total = %d, want %d", sh.Total, workers*per)
	}
	var sum uint64
	for _, e := range sh.Top {
		sum += e.Count
	}
	if sum != workers*per {
		t.Fatalf("sum of top counts = %d, want %d", sum, workers*per)
	}
}

// The disabled path (a nil Handle) and the unsampled path of an enabled
// Handle must both be allocation-free: these run on every Get/Put.
func TestTouchAllocs(t *testing.T) {
	k := key(1)
	var off *Handle
	if n := testing.AllocsPerRun(1000, func() { off.Touch(obs.OpGet, k) }); n != 0 {
		t.Fatalf("nil Handle.Touch allocates %v/op", n)
	}
	m := NewMonitor(Config{TopK: 4, SampleEvery: 1 << 30}) // effectively never samples
	h := m.Handle(0)
	if n := testing.AllocsPerRun(1000, func() { h.Touch(obs.OpGet, k) }); n != 0 {
		t.Fatalf("Handle.Touch (unsampled) allocates %v/op", n)
	}
}

// A nil Monitor must be fully usable: Handle is nil, Snapshot is empty.
// This is the disabled wiring in core.Options.
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	h := m.Handle(0)
	if h != nil {
		t.Fatalf("nil Monitor Handle = %v, want nil", h)
	}
	h.Touch(obs.OpGet, key(0))
	if snap := m.Snapshot(); len(snap.Shards) != 0 {
		t.Fatalf("nil snapshot has shards: %+v", snap)
	}
}
