package bigkv

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hdnh/internal/nvm"
)

// Sharded-store coverage: one value log + GC worker per index shard, with
// vlog addresses log-relative so every retire/decode/append must route by
// key shard. These tests exercise that routing under churn and across
// close/open cycles.

// shardedStore builds a Shards=n store; segWords/segs size the TOTAL log
// (split across shards), autoGC picks background workers vs explicit GCOnce.
func shardedStore(t *testing.T, shards int, segWords, segs int64, autoGC bool) *Store {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Table.Shards = shards
	opts.SegmentWords = segWords
	opts.Segments = segs
	opts.DisableAutoGC = !autoGC
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestShardedPutGetDelete(t *testing.T) {
	st := shardedStore(t, 4, 0, 0, true)
	s := st.NewSession()
	defer s.Close()
	const n = 400
	val := func(i int) []byte {
		if i%2 == 0 {
			return []byte(fmt.Sprintf("v-%d", i)) // inline
		}
		return bytes.Repeat([]byte{byte(i)}, 200) // pointer into the shard's log
	}
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Every shard's log should hold some of the pointer values.
	for i, lg := range st.Logs() {
		if lg.LiveWords() == 0 {
			t.Fatalf("shard %d log holds no live words; key routing is degenerate", i)
		}
	}
	for i := 0; i < n; i++ {
		got, ok, err := s.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("get %d: (%q, %v, %v)", i, got, ok, err)
		}
	}
	// Batch ops across shard boundaries.
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	vals, found, errs := s.MultiGet(keys)
	for i := range keys {
		if errs[i] != nil || !found[i] || !bytes.Equal(vals[i], val(i)) {
			t.Fatalf("MultiGet %d: (%q, %v, %v)", i, vals[i], found[i], errs[i])
		}
	}
	for _, err := range s.MultiDelete(keys[:n/2]) {
		if err != nil {
			t.Fatalf("MultiDelete: %v", err)
		}
	}
	if got := st.Count(); got != n/2 {
		t.Fatalf("Count after MultiDelete = %d, want %d", got, n/2)
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatalf("liveness audit: %v", err)
	}
}

// TestShardedGCChurn overwrites pointer values until every shard's tiny log
// needs reclaiming, drains GC explicitly, and audits per-shard liveness —
// the regression net for retire/relocate routing by key shard rather than
// by address.
func TestShardedGCChurn(t *testing.T) {
	st := shardedStore(t, 2, 256, 8, false)
	st.stopGC() // deterministic: reclaim only via explicit GCOnce below
	s := st.NewSession()
	defer s.Close()
	const keys = 12
	payload := func(i, gen int) []byte {
		return bytes.Repeat([]byte{byte(i*16 + gen)}, 300)
	}
	gen := 0
	for round := 0; round < 30; round++ {
		for i := 0; i < keys; i++ {
			if err := s.Put([]byte(fmt.Sprintf("churn-%02d", i)), payload(i, gen)); err != nil {
				t.Fatalf("round %d put %d: %v", round, i, err)
			}
		}
		gen = (gen + 1) % 16
		drainGC(t, st)
	}
	last := (gen + 15) % 16
	for i := 0; i < keys; i++ {
		got, ok, err := s.Get([]byte(fmt.Sprintf("churn-%02d", i)))
		if err != nil || !ok || !bytes.Equal(got, payload(i, last)) {
			t.Fatalf("after churn, key %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatalf("liveness audit after GC churn: %v", err)
	}
}

// TestShardedConcurrentChurn runs writers across shards with tiny logs and
// background GC on — the -race target for the per-shard GC workers and the
// foreground ErrLogFull help path.
func TestShardedConcurrentChurn(t *testing.T) {
	st := shardedStore(t, 4, 256, 16, true)
	const (
		workers = 4
		rounds  = 40
		keys    = 8
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := st.NewSession()
			defer s.Close()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					k := []byte(fmt.Sprintf("w%d-k%d", w, i))
					if err := s.Put(k, bytes.Repeat([]byte{byte(r)}, 200)); err != nil {
						t.Errorf("worker %d round %d: %v", w, r, err)
						return
					}
					if _, ok, err := s.Get(k); err != nil || !ok {
						t.Errorf("worker %d round %d get: (%v, %v)", w, r, ok, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st.stopGC()
	drainGC(t, st)
	if err := st.AuditLiveness(); err != nil {
		t.Fatalf("liveness audit: %v", err)
	}
}

// TestShardedRecovery closes a 4-shard store and re-opens it on the same
// device: the shard directory re-links each shard's log, each shard's index
// recovery re-adds its own log's live words, and every value (inline and
// pointer) survives.
func TestShardedRecovery(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Table.Shards = 4
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	const n = 300
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 50+i%200) }
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("rec-%04d", i)), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dev, opts)
	if err != nil {
		t.Fatalf("Open after close: %v", err)
	}
	defer st2.Close()
	if got := st2.Index().NumShards(); got != 4 {
		t.Fatalf("recovered NumShards = %d, want 4", got)
	}
	auditLivenessFromLog(t, st2, "after reopen")
	s2 := st2.NewSession()
	defer s2.Close()
	for i := 0; i < n; i++ {
		got, ok, err := s2.Get([]byte(fmt.Sprintf("rec-%04d", i)))
		if err != nil || !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("recovered key %d: (%v, %v)", i, ok, err)
		}
	}
	if err := st2.AuditLiveness(); err != nil {
		t.Fatalf("liveness audit after recovery: %v", err)
	}
}

// TestShardedOpenMismatch: mismatched shard counts must fail loudly — a
// wrong count would route keys to the wrong log and decode garbage.
func TestShardedOpenMismatch(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Table.Shards = 4
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wrong := DefaultOptions()
	wrong.Table.Shards = 2
	if _, err := Open(dev, wrong); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("Open with wrong shard count = %v, want mismatch error", err)
	}
	// An explicitly unsharded open of a sharded image must refuse too.
	one := DefaultOptions()
	one.Table.Shards = 1
	if _, err := Open(dev, one); err == nil {
		t.Fatal("Shards=1 Open of a sharded image succeeded")
	}
	// Shards=0 adopts the persisted count — that open must succeed.
	adopted, err := Open(dev, DefaultOptions())
	if err != nil {
		t.Fatalf("adopting Open: %v", err)
	}
	if got := adopted.Index().NumShards(); got != 4 {
		t.Fatalf("adopted NumShards = %d, want 4", got)
	}
	adopted.Close()
}
