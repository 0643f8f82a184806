package bigkv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
	"hdnh/internal/vlog"
)

func storeFixture(t *testing.T) *Store {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// smallLogStore builds a store whose value log is tiny enough for tests to
// fill and force the GC to work.
func smallLogStore(t *testing.T, segWords, segs int64, autoGC bool) *Store {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
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

// drainGC runs GC passes until a full pass frees nothing.
func drainGC(t *testing.T, st *Store) {
	t.Helper()
	for {
		progress, err := st.GCOnce()
		if err != nil {
			t.Fatalf("GCOnce: %v", err)
		}
		if !progress {
			return
		}
	}
}

func TestPutGetInlineAndPointer(t *testing.T) {
	st := storeFixture(t)
	s := st.NewSession()
	cases := map[string][]byte{
		"tiny":   []byte("x"),
		"inline": []byte("thirteen-byte"),                  // exactly maxInline
		"medium": []byte("this value will not fit inline"), // pointer path
		"big":    bytes.Repeat([]byte("payload-"), 512),    // 4KB
	}
	for k, v := range cases {
		if err := s.Put([]byte(k), v); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	for k, want := range cases {
		got, ok, err := s.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("get %q: (%v, %v)", k, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %q: %d bytes, want %d", k, len(got), len(want))
		}
	}
	if _, ok, _ := s.Get([]byte("absent")); ok {
		t.Fatal("phantom key")
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

func TestPutOverwrites(t *testing.T) {
	st := storeFixture(t)
	s := st.NewSession()
	if err := s.Put([]byte("k"), []byte("small")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("B"), 300)
	if err := s.Put([]byte("k"), big); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatal("overwrite small→big failed")
	}
	if err := s.Put([]byte("k"), []byte("tiny-again")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get([]byte("k"))
	if string(got) != "tiny-again" {
		t.Fatal("overwrite big→small failed")
	}
	if st.Count() != 1 {
		t.Fatalf("Count = %d", st.Count())
	}
	// Both pointer records were displaced (big→small retired the second);
	// the liveness counters must agree the log holds no live words.
	if live := st.Log().LiveWords(); live != 0 {
		t.Fatalf("live words = %d after all pointers displaced", live)
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	st := storeFixture(t)
	s := st.NewSession()
	if err := s.Put([]byte("k"), bytes.Repeat([]byte("v"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get([]byte("k")); ok {
		t.Fatal("deleted key present")
	}
	if err := s.Delete([]byte("k")); err == nil {
		t.Fatal("double delete succeeded")
	}
	if live := st.Log().LiveWords(); live != 0 {
		t.Fatalf("live words = %d after delete", live)
	}
}

func TestErrorsOnBadInput(t *testing.T) {
	st := storeFixture(t)
	s := st.NewSession()
	if err := s.Put(bytes.Repeat([]byte("k"), 20), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := s.Put([]byte("k"), nil); err == nil {
		t.Fatal("empty value accepted")
	}
	if _, _, err := s.Get(bytes.Repeat([]byte("k"), 20)); err == nil {
		t.Fatal("oversized key accepted on get")
	}
}

func TestManyMixedSizes(t *testing.T) {
	st := storeFixture(t)
	s := st.NewSession()
	const n = 3000
	valFor := func(i int) []byte {
		if i%3 == 0 {
			return []byte(fmt.Sprintf("s%d", i))
		}
		return bytes.Repeat([]byte{byte(i)}, 20+i%200)
	}
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%05d", i)), valFor(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, ok, err := s.Get([]byte(fmt.Sprintf("key-%05d", i)))
		if err != nil || !ok || !bytes.Equal(got, valFor(i)) {
			t.Fatalf("key %d wrong", i)
		}
	}
	if st.Count() != n {
		t.Fatalf("Count = %d", st.Count())
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

// TestPutDeleteRaceUpsert is the regression for the upsert fallback bug:
// Put's old single Update fallback could observe ErrNotFound when a
// concurrent deleter removed the key between Put's failed Insert and its
// retried Update, surfacing a spurious error for a plain overwrite.
func TestPutDeleteRaceUpsert(t *testing.T) {
	st := storeFixture(t)
	key := []byte("contended")
	val := bytes.Repeat([]byte("w"), 50)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := st.NewSession()
			for i := 0; i < 500; i++ {
				if err := s.Put(key, val); err != nil {
					t.Errorf("Put racing Delete: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := st.NewSession()
			for i := 0; i < 500; i++ {
				if err := s.Delete(key); err != nil && !isNotFound(err) {
					t.Errorf("Delete: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

func isNotFound(err error) bool { return errors.Is(err, scheme.ErrNotFound) }

// TestGCReclaimsSpace replaces the old TestCompact: overwrite churn bloats
// the log with dead records, and explicit GC passes must recycle segments
// in place without growing the device, losing a key, or resurrecting a
// deleted one.
func TestGCReclaimsSpace(t *testing.T) {
	st := smallLogStore(t, 1024, 32, false)
	s := st.NewSession()
	const n = 200
	big := func(i, gen int) []byte {
		return bytes.Repeat([]byte{byte(i), byte(gen)}, 50)
	}
	for gen := 0; gen < 5; gen++ {
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("c-%04d", i)), big(i, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i += 4 {
		if err := s.Delete([]byte(fmt.Sprintf("c-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := st.Log().FreeSegments()

	drainGC(t, st)

	if st.Log().Recycles() == 0 {
		t.Fatal("GC recycled nothing despite 80% dead log")
	}
	if free := st.Log().FreeSegments(); free <= freeBefore {
		t.Fatalf("free segments %d -> %d, GC freed no space", freeBefore, free)
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
	// Every live key still reads its newest value through the relocated
	// records; deleted keys stay dead.
	s2 := st.NewSession()
	for i := 0; i < n; i++ {
		got, ok, err := s2.Get([]byte(fmt.Sprintf("c-%04d", i)))
		if i%4 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected by GC", i)
			}
			continue
		}
		if err != nil || !ok || !bytes.Equal(got, big(i, 4)) {
			t.Fatalf("key %d wrong after GC: ok=%v err=%v", i, ok, err)
		}
	}
	// Reopen: recycled segments and relocated records must be durable.
	dev := st.dev
	opts := st.opts
	st.Close()
	st2, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.AuditLiveness(); err != nil {
		t.Fatalf("rebuilt liveness inconsistent: %v", err)
	}
	s3 := st2.NewSession()
	for i := 1; i < n; i += 2 {
		if _, ok, err := s3.Get([]byte(fmt.Sprintf("c-%04d", i))); err != nil || !ok {
			t.Fatalf("key %d lost after GC + reopen: %v", i, err)
		}
	}
	// And the reopened store's GC keeps working.
	drainGC(t, st2)
}

// TestChurnBoundedSpace is the acceptance property: 100% overwrite at a
// fixed key count sustains appended bytes far beyond the log capacity
// without ErrLogFull — the GC recycles space online and the device never
// grows. The second input is two writers on a log twice the live words,
// each overwriting keys drawn at random, so every segment keeps a residue of
// live records to relocate.
func TestChurnBoundedSpace(t *testing.T) {
	for _, tc := range []struct {
		name           string
		segWords, segs int64
		writers        int
		random         bool
	}{
		{"16x-live", 1024, 16, 1, false},
		{"2x-live-2-writers", 256, 8, 2, true}, // 64 live records of 16 words
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := smallLogStore(t, tc.segWords, tc.segs, true)
			const keys = 64
			key := func(i int) []byte { return []byte(fmt.Sprintf("ch-%03d", i)) }
			val := func(i, gen int) []byte {
				return bytes.Repeat([]byte{byte(i), byte(gen)}, 50)
			}
			s := st.NewSession()
			for i := 0; i < keys; i++ {
				if err := s.Put(key(i), val(i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			target := 10 * st.Log().Capacity()
			var wg sync.WaitGroup
			for w := 0; w < tc.writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := st.NewSession()
					defer s.Close()
					rng := rand.New(rand.NewSource(int64(w)))
					for gen := 1; st.Log().AppendedWords() < target; gen++ {
						for n := w; n < keys; n += tc.writers {
							i := n
							if tc.random {
								i = w + tc.writers*rng.Intn(keys/tc.writers)
							}
							if err := s.Put(key(i), val(i, gen)); err != nil {
								t.Errorf("gen %d key %d: %v (appended %d / target %d)",
									gen, i, err, st.Log().AppendedWords(), target)
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
			if st.Log().UsedWords() > st.Log().Capacity() {
				t.Fatalf("used %d exceeds fixed capacity %d", st.Log().UsedWords(), st.Log().Capacity())
			}
			st.stopGC()
			drainGC(t, st)
			if err := st.AuditLiveness(); err != nil {
				t.Fatal(err)
			}
			t.Logf("appended %d words through a %d-word log (%d recycles)",
				st.Log().AppendedWords(), st.Log().Capacity(), st.Log().Recycles())
		})
	}
}

// TestGCChurnConcurrent races overwrites, deletes, reads, and the
// background GC on a tiny log. Run under -race in CI.
func TestGCChurnConcurrent(t *testing.T) {
	st := smallLogStore(t, 1024, 16, true)
	const keys = 48
	const perWorker = 400
	keyName := func(i int) []byte { return []byte(fmt.Sprintf("cc-%03d", i)) }

	boot := st.NewSession()
	for i := 0; i < keys; i++ {
		if err := boot.Put(keyName(i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var fails atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := st.NewSession()
			rng := rand.New(rand.NewSource(int64(w) * 977))
			for i := 0; i < perWorker; i++ {
				k := rng.Intn(keys)
				switch rng.Intn(10) {
				case 0:
					if err := s.Delete(keyName(k)); err != nil && !isNotFound(err) {
						t.Errorf("delete: %v", err)
						fails.Add(1)
						return
					}
				case 1, 2:
					v, ok, err := s.Get(keyName(k))
					if err != nil {
						t.Errorf("get key %d: %v", k, err)
						fails.Add(1)
						return
					}
					if ok && (len(v) != 100 || v[0] != byte(k)) {
						t.Errorf("key %d read foreign value (%d bytes)", k, len(v))
						fails.Add(1)
						return
					}
				default:
					if err := s.Put(keyName(k), bytes.Repeat([]byte{byte(k)}, 100)); err != nil {
						t.Errorf("put key %d: %v", k, err)
						fails.Add(1)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if fails.Load() > 0 {
		t.FailNow()
	}
	st.stopGC()
	drainGC(t, st)
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	for i := 0; i < keys; i++ {
		v, ok, err := s.Get(keyName(i))
		if err != nil {
			t.Fatalf("key %d after churn: %v", i, err)
		}
		if ok && (len(v) != 100 || v[0] != byte(i)) {
			t.Fatalf("key %d corrupt after churn", i)
		}
	}
}

// TestLogGenuinelyFull: with a log full of live records, Put must surface
// ErrLogFull rather than hang or corrupt, and reads keep working. With auto
// GC on the error arrives through the collector's proof: no sealed segment
// holds a dead word.
func TestLogGenuinelyFull(t *testing.T) {
	for _, autoGC := range []bool{false, true} {
		t.Run(fmt.Sprintf("autoGC=%v", autoGC), func(t *testing.T) {
			st := smallLogStore(t, vlog.MinSegmentWords*4, 4, autoGC)
			s := st.NewSession()
			var stored int
			var full bool
			for i := 0; i < 1000; i++ {
				err := s.Put([]byte(fmt.Sprintf("f-%04d", i)), bytes.Repeat([]byte{byte(i)}, 100))
				if err != nil {
					if !errors.Is(err, vlog.ErrLogFull) {
						t.Fatalf("put %d: %v", i, err)
					}
					full = true
					break
				}
				stored++
			}
			if !full {
				t.Fatal("tiny log never filled")
			}
			for i := 0; i < stored; i++ {
				if _, ok, err := s.Get([]byte(fmt.Sprintf("f-%04d", i))); err != nil || !ok {
					t.Fatalf("key %d unreadable in full log: %v", i, err)
				}
			}
			// GC cannot help — everything is live.
			if progress, err := st.GCOnce(); err != nil || progress {
				t.Fatalf("GC on all-live log: progress=%v err=%v", progress, err)
			}
		})
	}
}

// TestLogFullLeavesWritesUntouched: a logged write reserves its record only
// once its slots are locked, so a full log fails it there — and it must hand
// every slot back untouched: the old value still reads, a fresh key stays
// absent, nothing was stored in the log (the liveness audit re-adds), and the
// same keys take the next write at once, alone or in a batch.
func TestLogFullLeavesWritesUntouched(t *testing.T) {
	st := smallLogStore(t, 1024, 2, false) // one segment for users, one in reserve
	s := st.NewSession()
	defer s.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("lf-%03d", i)) }
	// 16-word records: 64 of them fill the segment exactly.
	val := func(i, gen int) []byte { return bytes.Repeat([]byte{byte(i), byte(gen)}, 50) }
	for i := 0; i < 64; i++ {
		if err := s.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	used := st.Log().UsedWords()
	if err := s.Put(key(0), val(0, 1)); !errors.Is(err, vlog.ErrLogFull) {
		t.Fatalf("logged update into a full log: %v, want ErrLogFull", err)
	}
	if err := s.Put(key(100), val(100, 1)); !errors.Is(err, vlog.ErrLogFull) {
		t.Fatalf("logged insert into a full log: %v, want ErrLogFull", err)
	}
	errs := s.MultiPut([][]byte{key(1), key(101), key(2)}, [][]byte{val(1, 1), val(101, 1), []byte("inline")})
	if !errors.Is(errs[0], vlog.ErrLogFull) || !errors.Is(errs[1], vlog.ErrLogFull) || errs[2] != nil {
		t.Fatalf("MultiPut into a full log: %v; want ErrLogFull, ErrLogFull, nil", errs)
	}
	if got := st.Log().UsedWords(); got != used {
		t.Fatalf("the log holds %d words after the refused writes, %d before", got, used)
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
	if errs := st.Index().CheckInvariants(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	for i, want := range map[int][]byte{0: val(0, 0), 1: val(1, 0), 2: []byte("inline"), 100: nil, 101: nil} {
		got, ok, err := s.Get(key(i))
		if err != nil || ok != (want != nil) || !bytes.Equal(got, want) {
			t.Fatalf("key %d after the refused writes: %q ok=%v err=%v", i, got, ok, err)
		}
	}
	if st.Count() != 64 {
		t.Fatalf("count %d, want 64", st.Count())
	}
	// The slots are free to write: inline values need no log.
	for _, i := range []int{0, 1, 100} {
		if err := s.Put(key(i), []byte("small")); err != nil {
			t.Fatalf("key %d after the refusal: %v", i, err)
		}
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

// TestWritersHelpTheCollector: with the background collector stopped, a
// full log is reclaimed only by the writers that hit it — Put and MultiPut
// alike release their slots, run a collector pass (which relocates live
// records through the index, possibly some of the very keys just refused)
// and try again, so a churn far beyond the log's capacity never fails.
func TestWritersHelpTheCollector(t *testing.T) {
	st := smallLogStore(t, 256, 4, true) // 16 records a segment, 64 in all
	st.stopGC()
	s := st.NewSession()
	defer s.Close()
	keys, vals := make([][]byte, 8), make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("help-%d", i))
	}
	for r := 0; r < 40; r++ { // 320 records of 16 words through a 1,024-word log
		for i := range vals {
			vals[i] = bytes.Repeat([]byte{byte(i), byte(r)}, 50)
		}
		if r%2 == 0 {
			for i, err := range s.MultiPut(keys, vals) {
				if err != nil {
					t.Fatalf("round %d key %d: %v", r, i, err)
				}
			}
			continue
		}
		for i := range keys {
			if err := s.Put(keys[i], vals[i]); err != nil {
				t.Fatalf("round %d key %d: %v", r, i, err)
			}
		}
	}
	if st.Log().Recycles() == 0 {
		t.Fatal("the log never needed the writers' help; the test is vacuous")
	}
	for i := range keys {
		if got, ok, err := s.Get(keys[i]); err != nil || !ok || !bytes.Equal(got, vals[i]) {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiPutFullLogKeepsBatchOrder: a batch whose logged write meets a
// full log still leaves each key with the batch's last value. Position 0's
// record finds no room and fails in the group, while position 1, the same
// key inline, commits; finishing position 0 afterwards would write the older
// value over the newer, so it is not finished, and reports nil.
func TestMultiPutFullLogKeepsBatchOrder(t *testing.T) {
	st := smallLogStore(t, 1024, 3, true)
	st.stopGC() // writers alone reclaim
	s := st.NewSession()
	defer s.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("lw-%03d", i)) }
	val := func(i, gen int) []byte { return bytes.Repeat([]byte{byte(i), byte(gen)}, 50) }
	// Two generations of 64 sixteen-word records fill two segments exactly:
	// the first is sealed and all dead, the second active and full.
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 64; i++ {
			if err := s.Put(key(i), val(i, gen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if free := st.Log().FreeSegments(); free != 1 {
		t.Fatalf("%d free segments, want only the collector's", free)
	}
	errs := s.MultiPut([][]byte{key(0), key(0)}, [][]byte{val(0, 2), []byte("x")})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("MultiPut: %v", errs)
	}
	if got, ok, err := s.Get(key(0)); err != nil || !ok || string(got) != "x" {
		t.Fatalf("key 0 holds %d bytes (ok=%v err=%v), want the batch's last value", len(got), ok, err)
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorOwnsLastSegment: a collector pass that takes the log's last
// free segment owns it. The pass is parked at its first copy's reservation
// there; a user Put to the shard meanwhile must not reserve in it — its
// write fails, and it waits on the collector — and completes once the pass
// goes on. At the parent commit the Put reserved in the collector's segment.
func TestCollectorOwnsLastSegment(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New(obs.Config{})
	opts := DefaultOptions()
	opts.SegmentWords, opts.Segments, opts.Table.Metrics = 1024, 3, m
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.stopGC()
	s := st.NewSession()
	defer s.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("own-%03d", i)) }
	val := func(i, gen int) []byte { return bytes.Repeat([]byte{byte(i), byte(gen)}, 50) }
	// Segment 0 gets keys 0..63, then segment 1 new values of keys 0..47 and
	// keys 64..79: segment 0 is sealed with 16 live records to copy, segment
	// 1 active and full, segment 2 the last free one.
	for i := 0; i < 64; i++ {
		if err := s.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		if i < 48 || i >= 64 {
			if err := s.Put(key(i), val(i, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	log := st.Log()
	const last = 2
	if log.State(last) != vlog.SegFree || log.FreeSegments() != 1 {
		t.Fatalf("segment %d is %v with %d free, want the last free one", last, log.State(last), log.FreeSegments())
	}
	userErrors := func() (n uint64) {
		snap := m.Snapshot()
		for op := range snap.Ops {
			n += snap.Ops[op][obs.OutError]
		}
		return n
	}
	before := userErrors()
	parked, release := make(chan struct{}), make(chan struct{})
	var intruder atomic.Int64 // a reservation in the last segment while the copy was parked
	intruder.Store(-1)
	log.SetAppendHook(func(stage vlog.AppendStage, addr int64) {
		if stage != vlog.StageReserved || addr/log.SegmentWords() != last {
			return
		}
		select {
		case <-parked:
			select {
			case <-release:
			default:
				intruder.Store(addr)
			}
		default:
			close(parked) // the collector's first copy: only it may take the last segment
			<-release
		}
	})
	gcDone := make(chan error, 1)
	go func() {
		_, err := st.GCOnce()
		gcDone <- err
	}()
	<-parked
	putDone := make(chan error, 1)
	go func() {
		u := st.NewSession()
		defer u.Close()
		putDone <- u.Put(key(0), val(0, 2))
	}()
	// The Put either reserves in the collector's segment or fails its write
	// and goes to wait on the pass.
	for intruder.Load() < 0 && userErrors() == before {
		runtime.Gosched()
	}
	if addr := intruder.Load(); addr >= 0 {
		t.Errorf("a user write reserved at %d, in the segment the collector took", addr)
	}
	close(release)
	if err := <-gcDone; err != nil {
		t.Fatal(err)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("Put after the pass: %v", err)
	}
	if got, ok, err := s.Get(key(0)); err != nil || !ok || !bytes.Equal(got, val(0, 2)) {
		t.Fatalf("key 0 after the pass: ok=%v err=%v", ok, err)
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecovery(t *testing.T) {
	cfg := nvm.StrictConfig(1 << 22)
	cfg.EvictProb = 0.4
	dev, err := nvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	const n = 500
	big := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 40) }
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("bk-%04d", i)), big(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Power failure without Close: the log head was never synced, so Open's
	// forward scan does the recovery.
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dev, opts)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer st2.Close()
	s2 := st2.NewSession()
	for i := 0; i < n; i++ {
		got, ok, err := s2.Get([]byte(fmt.Sprintf("bk-%04d", i)))
		if err != nil {
			t.Fatalf("get %d after crash: %v", i, err)
		}
		if !ok {
			t.Fatalf("committed key %d lost", i)
		}
		if !bytes.Equal(got, big(i)) {
			t.Fatalf("key %d corrupt after crash", i)
		}
	}
	if err := st2.AuditLiveness(); err != nil {
		t.Fatalf("liveness rebuild after crash: %v", err)
	}
	// And the store must keep working.
	if err := s2.Put([]byte("post"), bytes.Repeat([]byte("p"), 64)); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
}

func TestCrashMidPutNeverDangles(t *testing.T) {
	// Sweep crash points through puts of large values: recovery must never
	// leave an index entry whose log record is unreadable.
	for f := int64(5); f < 120; f += 9 {
		f := f
		t.Run(fmt.Sprintf("flush%d", f), func(t *testing.T) {
			cfg := nvm.StrictConfig(1 << 22)
			cfg.EvictProb = 0.3
			cfg.Seed = uint64(f) * 31
			dev, err := nvm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			st, err := Create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.SetCrashAfterFlushes(f); err != nil {
				t.Fatal(err)
			}
			s := st.NewSession()
			for i := 0; i < 40; i++ {
				if err := s.Put([]byte(fmt.Sprintf("d-%03d", i)), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
					t.Fatal(err)
				}
			}
			img := dev.CrashImage()
			if img == nil {
				return
			}
			dev2, err := nvm.FromImage(cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dev2, opts)
			if err != nil {
				t.Fatalf("open after crash: %v", err)
			}
			defer st2.Close()
			s2 := st2.NewSession()
			for i := 0; i < 40; i++ {
				got, ok, err := s2.Get([]byte(fmt.Sprintf("d-%03d", i)))
				if err != nil {
					t.Fatalf("dangling index entry for key %d: %v", i, err)
				}
				if ok && !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100)) {
					t.Fatalf("key %d corrupt", i)
				}
			}
		})
	}
}

// TestBatchGetDuringGCChurn points MultiGet readers at a store whose value
// log is being rewritten underneath them: churn writers force continuous GC
// segment recycling while batch readers sweep every key. The decode-retry
// loop inside the batch path must absorb relocations exactly like the
// single-key Get — a reader may see a key present or (briefly) deleted, but
// never a foreign or torn value. The epoch-chunked table walk is also in
// play here against the table growth the churn causes.
func TestBatchGetDuringGCChurn(t *testing.T) {
	st := smallLogStore(t, 1024, 16, true)
	const keys = 48
	keyName := func(i int) []byte { return []byte(fmt.Sprintf("bg-%03d", i)) }

	boot := st.NewSession()
	for i := 0; i < keys; i++ {
		if err := boot.Put(keyName(i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var writers, readers sync.WaitGroup

	// Churn writers: overwrite and occasionally delete, keeping the GC busy.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			s := st.NewSession()
			rng := rand.New(rand.NewSource(int64(w)*1299709 + 7))
			for i := 0; i < 600; i++ {
				k := rng.Intn(keys)
				if rng.Intn(12) == 0 {
					if err := s.Delete(keyName(k)); err != nil && !isNotFound(err) {
						t.Errorf("delete: %v", err)
						return
					}
					continue
				}
				if err := s.Put(keyName(k), bytes.Repeat([]byte{byte(k)}, 100)); err != nil {
					t.Errorf("put key %d: %v", k, err)
					return
				}
			}
		}(w)
	}

	// Batch readers: full-key MultiGet sweeps for as long as the churn runs.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			s := st.NewSession()
			names := make([][]byte, keys)
			for i := range names {
				names[i] = keyName(i)
			}
			for !stop.Load() {
				vals, found, errs := s.MultiGet(names)
				for i := 0; i < keys; i++ {
					if errs[i] != nil {
						t.Errorf("MultiGet key %d: %v", i, errs[i])
						return
					}
					if found[i] && (len(vals[i]) != 100 || vals[i][0] != byte(i)) {
						t.Errorf("MultiGet key %d read foreign value (%d bytes)", i, len(vals[i]))
						return
					}
				}
			}
		}()
	}

	writers.Wait()
	stop.Store(true)
	readers.Wait()

	st.stopGC()
	drainGC(t, st)
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiOpsRoundTrip covers the byte-slice batch API across both value
// encodings (inline ≤13 bytes, pointer into the log) plus per-key verdicts
// for absent keys and bad input.
func TestMultiOpsRoundTrip(t *testing.T) {
	st := storeFixture(t)
	s := st.NewSession()

	keys := [][]byte{[]byte("inline"), []byte("pointer"), []byte("big")}
	vals := [][]byte{
		[]byte("tiny"),                          // inline encoding
		bytes.Repeat([]byte{0xAB}, 100),         // log pointer
		bytes.Repeat([]byte("payload-"), 1<<10), // multi-KiB log pointer
	}
	if errs := s.MultiPut(keys, vals); firstBatchErr(errs) != nil {
		t.Fatalf("MultiPut: %v", firstBatchErr(errs))
	}

	qk := append([][]byte{[]byte("absent")}, keys...)
	got, found, errs := s.MultiGet(qk)
	if firstBatchErr(errs) != nil {
		t.Fatalf("MultiGet: %v", firstBatchErr(errs))
	}
	if found[0] {
		t.Fatal("phantom hit on absent key")
	}
	for i, want := range vals {
		if !found[i+1] || !bytes.Equal(got[i+1], want) {
			t.Fatalf("key %q: found=%v len=%d want len=%d", qk[i+1], found[i+1], len(got[i+1]), len(want))
		}
	}

	dErrs := s.MultiDelete([][]byte{[]byte("inline"), []byte("absent"), []byte("big")})
	if dErrs[0] != nil || dErrs[2] != nil {
		t.Fatalf("present-key deletes failed: %v %v", dErrs[0], dErrs[2])
	}
	if !isNotFound(dErrs[1]) {
		t.Fatalf("absent-key delete verdict = %v", dErrs[1])
	}
	_, found, _ = s.MultiGet(keys)
	if found[0] || !found[1] || found[2] {
		t.Fatalf("post-delete presence = %v, want [false true false]", found)
	}
}

func firstBatchErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
