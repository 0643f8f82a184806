package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

// Semantics coverage for the staged group-commit write path (groupcommit.go).
// The contract is the solo paths', unchanged: exactly-once exchange values,
// last-write-wins for duplicate keys in one batch, conclusive miss verdicts,
// and clean invariants after any mix of staging, draining, and fallback.

// TestSoloWriteBarrierCounts pins what one write costs the device: a lone
// insert pays two barriers, an update three, a delete one, each draining one
// line, and the latency model charges exactly reads, lines and fences times
// the configured constants — a one-line barrier carries no bandwidth term
// (nvm.Handle.FlushBarrier), which the write bandwidth set here would expose.
func TestSoloWriteBarrierCounts(t *testing.T) {
	cfg := nvm.DefaultConfig(1 << 22)
	cfg.WriteBandwidth = 1 << 30
	dev, err := nvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := create(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	k := key(1)
	for _, c := range []struct {
		name   string
		run    func() error
		lines  uint64
		fences uint64
	}{
		{"insert", func() error { return s.Insert(k, value(1)) }, 2, 2},
		{"update", func() error { return s.Update(k, value(2)) }, 3, 3},
		{"delete", func() error { return s.Delete(k) }, 1, 1},
	} {
		s.ResetNVMStats()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := s.NVMStats()
		if st.Flushes != c.lines || st.Fences != c.fences {
			t.Errorf("%s: %d lines / %d fences, want %d / %d", c.name, st.Flushes, st.Fences, c.lines, c.fences)
		}
		want := time.Duration(st.MediaBlockReads)*cfg.ReadLatency +
			time.Duration(st.Flushes)*cfg.WriteLatency + time.Duration(st.Fences)*cfg.FenceLatency
		if st.Modeled() != want {
			t.Errorf("%s: modeled %v, want %v (%d block reads, %d lines, %d fences)",
				c.name, st.Modeled(), want, st.MediaBlockReads, st.Flushes, st.Fences)
		}
	}
}

// TestDrainBarrierCounts pins what growth costs the device, as counts: a
// drain commits its moves batchChunk at a time (groups end on bucket
// boundaries and at the chunk's end), each group pays the protocol's three
// barriers however many records it carries, each chunk one progress word,
// and the clears of one bucket share lines. A resumed drain's records are
// already in the new structure, and a group of those pays one barrier. The
// source level is built by hand — fixed slots, so the expectation is plain
// arithmetic — and drained by one handle calling drainChunk, as a worker
// does. A displacement is a move group of one.
func TestDrainBarrierCounts(t *testing.T) {
	const (
		m       = 16 // buckets per segment; the source level has two segments
		buckets = 2 * m
		chunk   = 8
		groupAt = 16
		// finishDrain: the state word, the range count and the progress words.
		finishPersists = 2 + MaxDrainRanges
	)
	cfg := nvm.DefaultConfig(1 << 22)
	cfg.WriteBandwidth = 1 << 30
	perLine := time.Duration(float64(time.Second) * nvm.CachelineBytes / float64(cfg.WriteBandwidth))
	modeled := func(st nvm.Stats) time.Duration {
		// Every barrier here is followed by one fence, so fences count them;
		// each charges one write latency, each further line its transfer.
		return time.Duration(st.MediaBlockReads)*cfg.ReadLatency +
			time.Duration(st.Fences)*(cfg.WriteLatency+cfg.FenceLatency) +
			time.Duration(st.Flushes-st.Fences)*perLine
	}
	dev, err := nvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SegmentBuckets = m
	opts.drainWorkers = 1
	opts.drainChunkBuckets = chunk
	opts.batchChunk = groupAt
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)

	// Bucket b holds (5b+3) mod 9 records, in slots scattered by 3s mod 8.
	holds := func(b int64, slot int) bool { return (slot*3+int(b))%SlotsPerBucket < int(b*5+3)%9 }
	var records, groups, clearLines uint64
	for lo := int64(0); lo < buckets; lo += chunk {
		pending := 0
		for b := lo; b < lo+chunk; b++ {
			for slot := 0; slot < SlotsPerBucket; slot++ {
				if holds(b, slot) {
					records++
					pending++
					if slot%2 == 0 || !holds(b, slot-1) {
						clearLines++ // two slots to a line
					}
				}
			}
			if pending >= groupAt || (b == lo+chunk-1 && pending > 0) {
				groups++
				pending = 0
			}
		}
	}

	for _, c := range []struct {
		name     string
		present  bool // the records are already committed in the table
		barriers uint64
		lines    uint64
	}{
		{"moves", false, 3 * groups, 2*records + clearLines},
		{"resumed: already in the new structure", true, groups, clearLines},
	} {
		h := dev.NewHandle()
		base, err := dev.Alloc(h, buckets*BucketWords, nvm.BlockWords)
		if err != nil {
			t.Fatal(err)
		}
		src := newLevel(base, buckets/m, m)
		i := 0
		for b := int64(0); b < buckets; b++ {
			for slot := 0; slot < SlotsPerBucket; slot++ {
				if !holds(b, slot) {
					continue
				}
				var w [slotWords]uint64
				kv.PackRecord(w[:], key(i), value(i), packMeta(true, 1))
				for j, word := range w {
					dev.Store(src.slotWord(b, slot)+int64(j), word)
				}
				i++
			}
		}
		tbl.scanLevel(src)
		task := tbl.newDrainTask(src, 1, time.Now(), true, tbl.state())
		tbl.draining.Store(task)

		h.ResetStats()
		flushes := dev.TotalFlushes()
		var group []pendingCommit
		chunks := uint64(0)
		for {
			r, lo, hi, ok := task.claim(0)
			if !ok {
				break
			}
			tbl.drainChunk(h, &group, task, r, lo, hi)
			chunks++
		}
		<-task.done
		if task.err != nil {
			t.Fatalf("%s: %v", c.name, task.err)
		}
		if !c.present {
			tbl.count.Add(int64(records)) // they arrived without an insert
		}

		st := h.Stats()
		wantFences := c.barriers + chunks + finishPersists
		wantLines := c.lines + chunks + finishPersists
		if st.Fences != wantFences || st.Flushes != wantLines {
			t.Errorf("%s: %d barriers / %d lines for %d records in %d groups and %d chunks, want %d / %d",
				c.name, st.Fences, st.Flushes, records, groups, chunks, wantFences, wantLines)
		}
		if got := uint64(dev.TotalFlushes() - flushes); got != wantFences {
			t.Errorf("%s: device counted %d write-backs, want %d", c.name, got, wantFences)
		}
		if st.Modeled() != modeled(st) {
			t.Errorf("%s: modeled %v, want %v (%d block reads, %d lines, %d fences)",
				c.name, st.Modeled(), modeled(st), st.MediaBlockReads, st.Flushes, st.Fences)
		}
		for j := 0; j < i; j++ {
			if v, ok := s.Get(key(j)); !ok || v != value(j) {
				t.Fatalf("%s: key %d reads %v (ok=%v) after the drain", c.name, j, v, ok)
			}
		}
		for b := int64(0); b < src.buckets(); b++ {
			for slot := 0; slot < SlotsPerBucket; slot++ {
				if ocfIsValid(src.ocfLoad(b, slot)) {
					t.Fatalf("%s: source bucket %d slot %d still valid after the drain", c.name, b, slot)
				}
			}
		}
		if errs := tbl.CheckInvariants(); len(errs) != 0 {
			t.Fatalf("%s: %v", c.name, errs[0])
		}
	}

	// Displacement: one record out of key 0's candidate buckets, three
	// barriers of one line each, as before it went through the group code.
	h := dev.NewHandle()
	flushes := dev.TotalFlushes()
	k0 := key(0)
	h1, h2, _ := hashKV(k0[:])
	if !tbl.displaceOne(h, h1, h2) {
		t.Fatal("displaceOne moved nothing")
	}
	if st := h.Stats(); st.Fences != 3 || st.Flushes != 3 || dev.TotalFlushes()-flushes != 3 || st.Modeled() != modeled(st) {
		t.Errorf("displaceOne: %d barriers / %d lines / %d write-backs, modeled %v; want 3 / 3 / 3, %v",
			st.Fences, st.Flushes, dev.TotalFlushes()-flushes, st.Modeled(), modeled(st))
	}
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("after displaceOne: %v", errs[0])
	}
}

// TestGroupCommitDuplicateKeys drives duplicate keys through one MultiPut
// batch: a fresh key staged three times (the second occurrence collides
// with the staged, still-locked insert and must drain the group first) and
// a preloaded key twice. Verdicts, exchange chains, and final values must
// match running the same stream through solo upserts.
func TestGroupCommitDuplicateKeys(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.batchChunk = 4 })
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(0)); err != nil {
		t.Fatal(err)
	}

	fresh := key(2)
	keys := []kv.Key{fresh, key(1), fresh, key(3), fresh, key(1)}
	vals := []kv.Value{value(10), value(11), value(12), value(13), value(14), value(15)}
	olds := make([]kv.Value, len(keys))
	had := make([]bool, len(keys))
	errs := make([]error, len(keys))
	if fails := s.MultiPutExchange(keys, vals, olds, had, errs); fails != 0 {
		t.Fatalf("MultiPutExchange failed %d keys: %v", fails, errs)
	}
	// The fresh key: insert, then a chain of displacements in caller order.
	if had[0] {
		t.Fatal("first occurrence of a fresh key displaced something")
	}
	if !had[2] || olds[2] != value(10) {
		t.Fatalf("second occurrence displaced %v (had=%v), want %v", olds[2], had[2], value(10))
	}
	if !had[4] || olds[4] != value(12) {
		t.Fatalf("third occurrence displaced %v (had=%v), want %v", olds[4], had[4], value(12))
	}
	// The preloaded key's chain starts from its preloaded value.
	if !had[1] || olds[1] != value(0) {
		t.Fatalf("preloaded key first displaced %v (had=%v), want %v", olds[1], had[1], value(0))
	}
	if !had[5] || olds[5] != value(11) {
		t.Fatalf("preloaded key second displaced %v (had=%v), want %v", olds[5], had[5], value(11))
	}
	// Last write wins.
	for k, want := range map[int]kv.Value{1: value(15), 2: value(14), 3: value(13)} {
		if v, ok := s.Get(key(k)); !ok || v != want {
			t.Fatalf("key %d reads %v (ok=%v), want %v", k, v, ok, want)
		}
	}
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants after duplicate-key batch: %v", errs)
	}
}

// TestGroupDeleteDuplicateAndMixed covers duplicate deletes in one batch
// (first wins, second reads a conclusive ErrNotFound) and a delete batch
// mixing present and absent keys.
func TestGroupDeleteDuplicateAndMixed(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.batchChunk = 4 })
	s := sessionOn(tbl)
	for i := 0; i < 4; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := []kv.Key{key(0), key(9999), key(0), key(2)}
	olds := make([]kv.Value, len(keys))
	errs := make([]error, len(keys))
	s.MultiDeleteExchange(keys, olds, errs)
	if errs[0] != nil || olds[0] != value(0) {
		t.Fatalf("first delete: err=%v old=%v", errs[0], olds[0])
	}
	if errs[1] != scheme.ErrNotFound {
		t.Fatalf("absent key delete: err=%v, want ErrNotFound", errs[1])
	}
	if errs[2] != scheme.ErrNotFound {
		t.Fatalf("duplicate delete: err=%v, want ErrNotFound", errs[2])
	}
	if errs[3] != nil || olds[3] != value(2) {
		t.Fatalf("second present delete: err=%v old=%v", errs[3], olds[3])
	}
	for i, want := range map[int]bool{0: false, 1: true, 2: false, 3: true} {
		if _, ok := s.Get(key(i)); ok != want {
			t.Fatalf("key %d present=%v after delete batch, want %v", i, ok, want)
		}
	}
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants after delete batch: %v", errs)
	}
}

// TestGroupExchangeObservesEachValueOnce is TestExchangeObservesEachValueOnce
// through the grouped path: concurrent MultiPutExchange/MultiDeleteExchange
// churn over a tiny hot keyset, and every value written must be displaced
// exactly once (or survive as a final value). The staged protocol holds the
// old slot's lock from stage to drain, so the guarantee must survive the
// longer exchange window.
func TestGroupExchangeObservesEachValueOnce(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.batchChunk = 8 })
	boot := sessionOn(tbl)
	const hot = 3
	for k := 0; k < hot; k++ {
		if err := boot.Insert(key(k), value(k)); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	const rounds = 60
	const batch = 12
	var mu sync.Mutex
	displaced := map[kv.Value]int{}
	written := map[kv.Value]bool{}
	for k := 0; k < hot; k++ {
		written[value(k)] = true
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			keys := make([]kv.Key, batch)
			vals := make([]kv.Value, batch)
			olds := make([]kv.Value, batch)
			had := make([]bool, batch)
			errs := make([]error, batch)
			for r := 0; r < rounds; r++ {
				for i := range keys {
					keys[i] = key((w + r + i) % hot)
					vals[i] = value(100 + (w*rounds+r)*batch + i)
				}
				s.MultiPutExchange(keys, vals, olds, had, errs)
				mu.Lock()
				for i := range keys {
					if errs[i] != nil {
						continue
					}
					written[vals[i]] = true
					if had[i] {
						displaced[olds[i]]++
					}
				}
				mu.Unlock()
				if r%9 == 0 {
					dk := []kv.Key{key(r % hot)}
					dolds := make([]kv.Value, 1)
					derrs := make([]error, 1)
					s.MultiDeleteExchange(dk, dolds, derrs)
					if derrs[0] == nil {
						mu.Lock()
						displaced[dolds[0]]++
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := sessionOn(tbl)
	for k := 0; k < hot; k++ {
		if final, ok := s.Get(key(k)); ok {
			displaced[final]++
		}
	}
	for v, n := range displaced {
		if n != 1 {
			t.Fatalf("value %v observed %d times, want exactly 1", v, n)
		}
		if !written[v] {
			t.Fatalf("value %v displaced but never written", v)
		}
	}
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants after grouped exchange churn: %v", errs)
	}
}

// TestGroupCommitContentionFallback pins the drain-and-fall-back protocol:
// a batch key whose slot another writer holds locked must not deadlock the
// group (the no-wait probe reports contention, the group drains, and the
// key takes the blocking solo path) and must still commit correctly.
func TestGroupCommitContentionFallback(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.batchChunk = 8 })
	s := sessionOn(tbl)
	const n = 16
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Lock the victim's slot from outside, exactly as a mid-move writer
	// would hold it, and release a few milliseconds later.
	victim := key(5)
	h1, h2, fp := hashKV(victim[:])
	var ps probeStats
	s.ss[0].enterCritical()
	ht, res := tbl.walk(s.ss[0].h, victim, h1, h2, fp, &ps, walkRead)
	s.ss[0].exitCritical()
	if res != lookupFound {
		t.Fatalf("lookup of victim = %v", res)
	}
	c := ht.ref.lvl.ocfLoad(ht.ref.b, ht.ref.s)
	if !ht.ref.lvl.ocfTryLock(ht.ref.b, ht.ref.s, c) {
		t.Fatal("could not lock the victim slot")
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		ht.ref.lvl.ocfRelease(ht.ref.b, ht.ref.s, true, fp, ocfVer(c))
	}()

	keys := make([]kv.Key, n)
	vals := make([]kv.Value, n)
	errs := make([]error, n)
	for i := range keys {
		keys[i] = key(i)
		vals[i] = value(1000 + i)
	}
	if fails := s.MultiPut(keys, vals, errs); fails != 0 {
		t.Fatalf("MultiPut through contention failed %d keys: %v", fails, errs)
	}
	for i := 0; i < n; i++ {
		if v, ok := s.Get(key(i)); !ok || v != value(1000+i) {
			t.Fatalf("key %d reads %v (ok=%v) after contended batch", i, v, ok)
		}
	}
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants after contended batch: %v", errs)
	}
}

// TestGroupCommitThroughExpansion grows the table by an order of magnitude
// purely through MultiPut: staged inserts that find no empty slot fall back
// to the solo path, which expands — the batch must ride through the
// doublings with nothing lost.
func TestGroupCommitThroughExpansion(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.InitBottomSegments = 1 })
	s := sessionOn(tbl)
	const n = 8000
	const batch = 256
	keys := make([]kv.Key, batch)
	vals := make([]kv.Value, batch)
	errs := make([]error, batch)
	for base := 0; base < n; base += batch {
		for i := range keys {
			keys[i] = key(base + i)
			vals[i] = value(base + i)
		}
		if fails := s.MultiPut(keys, vals, errs); fails != 0 {
			t.Fatalf("MultiPut at %d failed %d keys: %v", base, fails, errs)
		}
	}
	tbl.waitDrain()
	for i := 0; i < n; i += 97 {
		if v, ok := s.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d reads %v (ok=%v) after growth", i, v, ok)
		}
	}
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants after grouped growth: %v", errs)
	}
}

// TestGroupWriteStressThroughResizes races grouped writers, grouped
// deleters, and batch/single readers through several doublings. Readers
// assert the single-key invariant the solo stress test pins: a committed,
// never-deleted key is always found, with one of its possible values.
func TestGroupWriteStressThroughResizes(t *testing.T) {
	tbl := newTable(t, func(o *Options) {
		o.drainChunkBuckets = 8
		o.drainWorkers = 2
		o.batchChunk = 16
	})
	const stable = 2000
	load := sessionOn(tbl)
	for i := 0; i < stable; i++ {
		if err := load.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Grouped grower: inserts fresh keys through MultiPut, forcing resizes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		const batch = 128
		keys := make([]kv.Key, batch)
		vals := make([]kv.Value, batch)
		errs := make([]error, batch)
		for base := 0; base < 10000; base += batch {
			for i := range keys {
				keys[i] = key(stable + base + i)
				vals[i] = value(stable + base + i)
			}
			if fails := s.MultiPut(keys, vals, errs); fails != 0 {
				t.Errorf("grower batch at %d failed %d keys: %v", base, fails, errs)
				break
			}
		}
		stop.Store(true)
	}()

	// Grouped updater: rewrites stable keys in batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		const batch = 64
		keys := make([]kv.Key, batch)
		vals := make([]kv.Value, batch)
		errs := make([]error, batch)
		for base := 0; !stop.Load(); base += batch {
			for i := range keys {
				k := (base + i) % stable
				keys[i] = key(k)
				vals[i] = value(k + 100000)
			}
			if fails := s.MultiPut(keys, vals, errs); fails != 0 {
				t.Errorf("updater batch failed %d keys: %v", fails, errs)
				return
			}
		}
	}()

	// Grouped delete/reinsert churn on a range disjoint from the readers'.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		const churnBase = 50000
		const batch = 32
		keys := make([]kv.Key, batch)
		vals := make([]kv.Value, batch)
		errs := make([]error, batch)
		for r := 0; !stop.Load(); r++ {
			for i := range keys {
				keys[i] = key(churnBase + i)
				vals[i] = value(churnBase + r)
			}
			if fails := s.MultiPut(keys, vals, errs); fails != 0 {
				t.Errorf("churn put failed %d keys: %v", fails, errs)
				return
			}
			s.MultiDelete(keys, errs)
			for i := range errs {
				if errs[i] != nil {
					t.Errorf("churn delete key %d: %v", i, errs[i])
					return
				}
			}
		}
	}()

	// Batch reader over stable keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		const batch = 64
		keys := make([]kv.Key, batch)
		vals := make([]kv.Value, batch)
		found := make([]bool, batch)
		for base := 0; !stop.Load(); base += batch {
			for i := range keys {
				keys[i] = key((base + i) % stable)
			}
			s.MultiGet(keys, vals, found)
			for i := range keys {
				k := (base + i) % stable
				if !found[i] {
					t.Errorf("MultiGet lost committed key %d during grouped churn", k)
					return
				}
				if vals[i] != value(k) && vals[i] != value(k+100000) {
					t.Errorf("MultiGet key %d: impossible value %v", k, vals[i])
					return
				}
			}
		}
	}()

	// Single-key reader alongside, same invariant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := sessionOn(tbl)
		for i := 0; !stop.Load(); i++ {
			k := i % stable
			v, ok := s.Get(key(k))
			if !ok {
				t.Errorf("Get lost committed key %d during grouped churn", k)
				return
			}
			if v != value(k) && v != value(k+100000) {
				t.Errorf("Get key %d: impossible value %v", k, v)
				return
			}
		}
	}()

	wg.Wait()
	tbl.waitDrain()
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariant check after grouped write stress: %v", errs)
	}
}
