package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/rng"
	"hdnh/internal/scheme"
)

// visitLog collects what a recovery visitor is handed, from however many
// recovery workers call it, and fails the test on a key handed out twice.
type visitLog struct {
	t      *testing.T
	mu     sync.Mutex
	vals   map[kv.Key]kv.Value
	shards map[kv.Key]int
}

func newVisitLog(t *testing.T) *visitLog {
	return &visitLog{t: t, vals: map[kv.Key]kv.Value{}, shards: map[kv.Key]int{}}
}

// visitShard has OpenRouterVisit's visitor shape; visit is a RecoveryVisitor.
func (l *visitLog) visitShard(shard int, k kv.Key, v kv.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.vals[k]; dup {
		l.t.Errorf("recovery visitor saw key %q twice", k.String())
	}
	l.vals[k], l.shards[k] = v, shard
}

func (l *visitLog) visit(k kv.Key, v kv.Value) { l.visitShard(0, k, v) }

// holdSweep parks every recovery sweep worker started from here on before
// it claims a segment, until the returned release runs (or the test ends):
// segments are then built only by the operations that reach them and by
// waitSwept's help, in cursor order. Release before closing the table:
// Close joins the workers.
func holdSweep(t *testing.T) (release func()) {
	hold := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	sweepHook = func() { <-hold }
	t.Cleanup(func() {
		release()
		sweepHook = nil
	})
	return release
}

func newStrictDev(t *testing.T, words int64, evictProb float64) *nvm.Device {
	t.Helper()
	cfg := nvm.StrictConfig(words)
	cfg.EvictProb = evictProb
	d, err := nvm.New(cfg)
	if err != nil {
		t.Fatalf("nvm.New: %v", err)
	}
	return d
}

func TestReopenAfterCleanShutdown(t *testing.T) {
	dev := newStrictDev(t, 1<<21, 0)
	opts := DefaultOptions()
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: only the persisted image survives.
	dev2, err := nvm.FromImage(dev.Config(), dev.PersistedImage())
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := openRoot(dev2, opts, nil)
	if err != nil {
		t.Fatalf("Open after clean shutdown: %v", err)
	}
	defer tbl2.Close()
	rs := tbl2.LastRecovery()
	if !rs.CleanShutdown {
		t.Error("recovery did not see the clean-shutdown flag")
	}
	if rs.Items != n {
		t.Errorf("recovered %d items, want %d", rs.Items, n)
	}
	if rs.Scan <= 0 || rs.Serve <= 0 || rs.Sweep < rs.Serve || rs.Scans != 1 || rs.Dedup != 0 {
		t.Errorf("recovery stats not populated: %+v", rs)
	}
	if tbl2.Count() != n {
		t.Fatalf("Count = %d after reopen", tbl2.Count())
	}
	s2 := sessionOn(tbl2)
	for i := 0; i < n; i++ {
		if v, ok := s2.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d wrong after reopen", i)
		}
	}
	if _, ok := s2.Get(key(n + 5)); ok {
		t.Fatal("phantom key after reopen")
	}
	// Hot table must have been rebuilt.
	if tbl2.HotEntries() == 0 {
		t.Fatal("hot table empty after recovery")
	}
	// The table must remain writable.
	if err := s2.Insert(key(n), value(n)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

func TestCrashWithoutCloseLosesNothingCommitted(t *testing.T) {
	dev := newStrictDev(t, 1<<21, 0.5)
	opts := DefaultOptions()
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Power failure: no Close, dirty cache lines partially evicted. The old
	// process must stop mutating the device before the new one opens it —
	// the incremental drain runs on background goroutines now, so quiesce
	// them first (without the clean-shutdown flag Close would set).
	tbl.StopBackground()
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl2, err := openRoot(dev, opts, nil)
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer tbl2.Close()
	if tbl2.LastRecovery().CleanShutdown {
		t.Error("crash recovery claims clean shutdown")
	}
	if tbl2.Count() != n {
		t.Fatalf("recovered %d of %d committed inserts", tbl2.Count(), n)
	}
	s2 := sessionOn(tbl2)
	for i := 0; i < n; i++ {
		if v, ok := s2.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("committed key %d lost or wrong after crash", i)
		}
	}
}

// crashPointHarness drives ops against a strict device armed to snapshot at
// flush f, then recovers from the snapshot and checks invariants.
func crashPointHarness(t *testing.T, f int64, run func(s *RouterSession, tbl *Table), check func(t *testing.T, s *RouterSession, tbl *Table)) {
	t.Helper()
	crashPointHarnessEvict(t, f, 0.3, run, check)
}

// crashPointHarnessEvict is crashPointHarness with the probability that a
// dirty line reaches the crash image on its own (cache eviction) explicit.
func crashPointHarnessEvict(t *testing.T, f int64, evict float64, run func(s *RouterSession, tbl *Table), check func(t *testing.T, s *RouterSession, tbl *Table)) {
	t.Helper()
	cfg := nvm.StrictConfig(1 << 21)
	cfg.EvictProb = evict
	cfg.Seed = uint64(f)*2654435761 + 1
	dev, err := nvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	if err := dev.SetCrashAfterFlushes(f); err != nil {
		t.Fatal(err)
	}
	run(s, tbl)
	img := dev.CrashImage()
	if img == nil {
		return // the run finished before reaching this flush count
	}
	dev2, err := nvm.FromImage(cfg, img)
	if err != nil {
		t.Fatalf("crash image does not boot: %v", err)
	}
	tbl2, err := openRoot(dev2, opts, nil)
	if err != nil {
		t.Fatalf("recovery from crash at flush %d failed: %v", f, err)
	}
	defer tbl2.Close()
	check(t, sessionOn(tbl2), tbl2)
}

func TestCrashAtEveryPointDuringInserts(t *testing.T) {
	// Sweep crash points through a run of inserts. Invariant: recovery
	// yields a consistent table where every present key has its correct
	// value (prefix inserts: a crash may lose only the most recent,
	// unacknowledged insert).
	const n = 60
	for f := int64(1); f < 200; f += 3 {
		f := f
		t.Run(fmt.Sprintf("flush%d", f), func(t *testing.T) {
			crashPointHarness(t,
				f,
				func(s *RouterSession, tbl *Table) {
					for i := 0; i < n; i++ {
						if err := s.Insert(key(i), value(i)); err != nil {
							t.Fatal(err)
						}
					}
				},
				func(t *testing.T, s *RouterSession, tbl *Table) {
					// Committed prefix property: keys acked before the crash
					// point must exist. We don't know exactly how many were
					// acked, but presence must be a prefix-closed set except
					// possibly one in-flight insert.
					present := make([]bool, n)
					for i := 0; i < n; i++ {
						v, ok := s.Get(key(i))
						if ok && v != value(i) {
							t.Fatalf("key %d has wrong value %q after crash", i, v.String())
						}
						present[i] = ok
					}
					firstMissing := n
					for i, p := range present {
						if !p {
							firstMissing = i
							break
						}
					}
					for i := firstMissing + 1; i < n; i++ {
						if present[i] {
							t.Fatalf("non-prefix survival: key %d missing but key %d present", firstMissing, i)
						}
					}
					if int64(firstMissing) != tbl.Count() {
						t.Fatalf("Count %d disagrees with surviving prefix %d", tbl.Count(), firstMissing)
					}
				})
		})
	}
}

func TestCrashAtEveryPointDuringUpdates(t *testing.T) {
	// Preload, then crash mid-update-stream. Invariant: every key is
	// present exactly once with either its old or new value.
	const n = 40
	for f := int64(1); f < 140; f += 3 {
		f := f
		t.Run(fmt.Sprintf("flush%d", f), func(t *testing.T) {
			var preloadFlushes int64
			crashPointHarness(t,
				1<<40, // effectively never during preload; re-armed below
				func(s *RouterSession, tbl *Table) {
					for i := 0; i < n; i++ {
						if err := s.Insert(key(i), value(i)); err != nil {
							t.Fatal(err)
						}
					}
					preloadFlushes = tbl.Device().TotalFlushes()
					_ = preloadFlushes
					if err := tbl.Device().SetCrashAfterFlushes(f); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						if err := s.Update(key(i), value(1000+i)); err != nil {
							t.Fatal(err)
						}
					}
				},
				func(t *testing.T, s *RouterSession, tbl *Table) {
					if errs := tbl.CheckInvariants(); len(errs) != 0 {
						t.Fatalf("invariants violated after crashed update recovery: %v", errs[0])
					}
					if tbl.Count() != n {
						t.Fatalf("Count = %d after crashed updates, want %d (duplicate not resolved?)", tbl.Count(), n)
					}
					for i := 0; i < n; i++ {
						v, ok := s.Get(key(i))
						if !ok {
							t.Fatalf("key %d lost in crashed update", i)
						}
						if v != value(i) && v != value(1000+i) {
							t.Fatalf("key %d has impossible value %q", i, v.String())
						}
					}
				})
		})
	}
}

// soloVerbHistory is the write phase of TestCrashAtEveryPersistCallThroughVerbs:
// every single-key verb, each a staged group of one, over keys preloaded
// with value(i) — Put over a present key, UpdateIf, Delete and Update by
// i%4 — then Put of fresh keys. Returns the first error.
func soloVerbHistory(s *RouterSession, preloaded, fresh int) error {
	for i := 0; i < preloaded+fresh; i++ {
		var err error
		switch {
		case i >= preloaded || i%4 == 0:
			err = s.Put(key(i), value(1000+i))
		case i%4 == 1:
			err = s.UpdateIf(key(i), value(i), value(1000+i))
		case i%4 == 2:
			err = s.Delete(key(i))
		default:
			err = s.Update(key(i), value(1000+i))
		}
		if err != nil {
			return fmt.Errorf("key %d: %w", i, err)
		}
	}
	return nil
}

func TestCrashAtEveryPersistCallThroughVerbs(t *testing.T) {
	// The insert and update sweeps above sample every third flush of one
	// verb; this one lands on EVERY strict persist call of a history that
	// goes through all of them, with half the dirty lines evicted into each
	// crash image. Invariant: each key reads its old or its new state —
	// nothing torn, nothing duplicated, nothing acknowledged lost.
	const preloaded, fresh = 24, 8
	var c0, c1 int64
	crashPointHarnessEvict(t, 1<<40, 0.5, func(s *RouterSession, tbl *Table) { // reference run: never crashes
		for i := 0; i < preloaded; i++ {
			if err := s.Insert(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		c0 = tbl.Device().PersistCalls()
		if err := soloVerbHistory(s, preloaded, fresh); err != nil {
			t.Fatal(err)
		}
		c1 = tbl.Device().PersistCalls()
	}, nil)
	// 3 persist calls per out-of-place update, 1 per delete, 2 per insert.
	if want := int64(3*(preloaded-preloaded/4) + preloaded/4 + 2*fresh); c1-c0 != want {
		t.Fatalf("verb history made %d persist calls, want %d", c1-c0, want)
	}
	for f := int64(1); f <= c1-c0; f++ {
		f := f
		t.Run(fmt.Sprintf("persist%d", f), func(t *testing.T) {
			crashPointHarnessEvict(t, f, 0.5, // f seeds the evictions; the crash point is re-armed after the preload
				func(s *RouterSession, tbl *Table) {
					for i := 0; i < preloaded; i++ {
						if err := s.Insert(key(i), value(i)); err != nil {
							t.Fatal(err)
						}
					}
					if err := tbl.Device().SetCrashAfterFlushes(f); err != nil {
						t.Fatal(err)
					}
					if err := soloVerbHistory(s, preloaded, fresh); err != nil {
						t.Fatal(err)
					}
				},
				func(t *testing.T, s *RouterSession, tbl *Table) {
					if errs := tbl.CheckInvariants(); len(errs) != 0 {
						t.Fatalf("invariants violated after crash at persist call %d: %v", f, errs[0])
					}
					for i := 0; i < preloaded+fresh; i++ {
						v, ok := s.Get(key(i))
						deleted := i < preloaded && i%4 == 2
						switch {
						case ok && v == value(1000+i) && !deleted:
						case ok && v == value(i) && i < preloaded:
						case !ok && (deleted || i >= preloaded):
						default:
							t.Fatalf("key %d reads %q (present=%v): neither its old nor its new state", i, v.String(), ok)
						}
					}
				})
		})
	}
}

func TestCrashAtEveryPointDuringResize(t *testing.T) {
	// Fill until just before the first expansion, then crash at points
	// throughout the resize. Invariant: no committed key is lost.
	for f := int64(1); f < 260; f += 5 {
		f := f
		t.Run(fmt.Sprintf("flush%d", f), func(t *testing.T) {
			cfg := nvm.StrictConfig(1 << 21)
			cfg.EvictProb = 0.3
			cfg.Seed = uint64(f) ^ 0xabcdef
			dev, err := nvm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.SegmentBuckets = 8 // tiny segments: quick resizes
			tbl, err := create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := sessionOn(tbl)
			// Load until the first expansion completes at least once.
			loaded := 0
			gen0 := tbl.Generation()
			for tbl.Generation() == gen0 && loaded < 100000 {
				if loaded == 80 { // arm mid-load so crash lands around resize
					if err := dev.SetCrashAfterFlushes(f); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Insert(key(loaded), value(loaded)); err != nil {
					t.Fatal(err)
				}
				loaded++
			}
			img := dev.CrashImage()
			if img == nil {
				t.Skip("resize completed before the armed crash point")
			}
			dev2, err := nvm.FromImage(cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			tbl2, err := openRoot(dev2, opts, nil)
			if err != nil {
				t.Fatalf("recovery from mid-resize crash: %v", err)
			}
			defer tbl2.Close()
			s2 := sessionOn(tbl2)
			// Same prefix-closure invariant as the insert sweep.
			firstMissing := -1
			for i := 0; i < loaded; i++ {
				v, ok := s2.Get(key(i))
				if ok && v != value(i) {
					t.Fatalf("key %d corrupt after mid-resize crash", i)
				}
				if !ok && firstMissing < 0 {
					firstMissing = i
				}
				if ok && firstMissing >= 0 {
					t.Fatalf("non-prefix survival across resize crash: %d missing, %d present", firstMissing, i)
				}
			}
			// And the table must still work.
			if err := s2.Insert(key(200000), value(1)); err != nil {
				t.Fatalf("insert after mid-resize recovery: %v", err)
			}
		})
	}
}

func TestRecoveryAfterDeletes(t *testing.T) {
	dev := newStrictDev(t, 1<<21, 0)
	opts := DefaultOptions()
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	for i := 0; i < 1000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 2 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.StopBackground() // quiesce drain goroutines; no clean-shutdown flag
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl2, err := openRoot(dev, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	if tbl2.Count() != 500 {
		t.Fatalf("Count = %d, want 500", tbl2.Count())
	}
	s2 := sessionOn(tbl2)
	for i := 0; i < 1000; i++ {
		v, ok := s2.Get(key(i))
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d resurrected by crash", i)
		}
		if i%2 == 1 && (!ok || v != value(i)) {
			t.Fatalf("surviving key %d wrong", i)
		}
	}
}

func TestRecoveryPreservesUpdatesAcrossResizes(t *testing.T) {
	dev := newStrictDev(t, 1<<22, 0)
	opts := DefaultOptions()
	opts.SegmentBuckets = 8
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	r := rng.New(99)
	live := map[int]kv.Value{}
	for i := 0; i < 4000; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			k := i
			if err := s.Insert(key(k), value(k)); err != nil && !errors.Is(err, scheme.ErrExists) {
				t.Fatal(err)
			} else if err == nil {
				live[k] = value(k)
			}
		case 6, 7:
			if len(live) > 0 {
				for k := range live {
					nv := value(k + 500000)
					if err := s.Update(key(k), nv); err != nil {
						t.Fatal(err)
					}
					live[k] = nv
					break
				}
			}
		default:
			if len(live) > 0 {
				for k := range live {
					if err := s.Delete(key(k)); err != nil {
						t.Fatal(err)
					}
					delete(live, k)
					break
				}
			}
		}
	}
	tbl.StopBackground() // quiesce drain goroutines; no clean-shutdown flag
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	tbl2, err := openRoot(dev, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	if got, want := tbl2.Count(), int64(len(live)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	s2 := sessionOn(tbl2)
	for k, want := range live {
		v, ok := s2.Get(key(k))
		if !ok || v != want {
			t.Fatalf("key %d = (%q, %v), want %q", k, v.String(), ok, want.String())
		}
	}
}

// TestRecoveryWorkerCounts reopens one image with 1, 2 and 7 recovery
// workers, with and without a hot table, with and without a visitor, after a
// clean and after an unclean shutdown. Every committed record reaches the
// visitor exactly once whatever the worker count, and the traversals are
// pinned in media block reads: a clean Open reads each bucket once — one
// traversal rebuilds the OCF, the count, the hot table and the visitor's
// state — and an unclean one twice, the dedup pass being the other.
func TestRecoveryWorkerCounts(t *testing.T) {
	for _, hotSlots := range []int{DefaultOptions().HotSlotsPerBucket, 0} {
		for _, workers := range []int{1, 2, 7} {
			name := fmt.Sprintf("workers%d", workers)
			if hotSlots == 0 {
				name = "nohot-" + name
			}
			t.Run(name, func(t *testing.T) {
				dev := newStrictDev(t, 1<<21, 0)
				opts := DefaultOptions()
				opts.HotSlotsPerBucket = hotSlots
				tbl, err := create(dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				s := sessionOn(tbl)
				const n = 1500
				for i := 0; i < n; i++ {
					if err := s.Insert(key(i), value(i)); err != nil {
						t.Fatal(err)
					}
				}
				tbl.waitDrain()
				unclean := dev.PersistedImage() // the open table's clean flag is down
				tbl.Close()
				clean := dev.PersistedImage()
				opts.recoveryWorkers = workers

				for _, c := range []struct {
					name    string
					img     []uint64
					visitor bool
					scans   int
				}{
					{"clean", clean, true, 1},
					{"clean, no visitor", clean, false, 1},
					{"unclean", unclean, true, 2},
				} {
					dev2, err := nvm.FromImage(dev.Config(), c.img)
					if err != nil {
						t.Fatal(err)
					}
					visits := newVisitLog(t)
					var visit RecoveryVisitor
					if c.visitor {
						visit = visits.visit
					}
					tbl2, err := openRoot(dev2, opts, visit)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					rs := tbl2.LastRecovery()
					if tbl2.Count() != n || rs.Items != n {
						t.Fatalf("%s: Count = %d, Items = %d, want %d", c.name, tbl2.Count(), rs.Items, n)
					}
					if c.visitor {
						if len(visits.vals) != n {
							t.Fatalf("%s: visitor saw %d records, want %d", c.name, len(visits.vals), n)
						}
						for i := 0; i < n; i++ {
							if visits.vals[key(i)] != value(i) {
								t.Fatalf("%s: visitor saw key %d as %q", c.name, i, visits.vals[key(i)].String())
							}
						}
					}
					buckets := uint64(tbl2.Capacity() / SlotsPerBucket)
					if rs.Scans != c.scans || rs.MediaBlockReads != uint64(c.scans)*buckets {
						t.Fatalf("%s: %d traversals charging %d media block reads, want %d charging %d",
							c.name, rs.Scans, rs.MediaBlockReads, c.scans, uint64(c.scans)*buckets)
					}
					if (rs.Dedup > 0) != (c.scans == 2) {
						t.Fatalf("%s: dedup took %v", c.name, rs.Dedup)
					}
					if errs := tbl2.CheckInvariants(); len(errs) != 0 {
						t.Fatalf("%s: %v", c.name, errs[0])
					}
					tbl2.Close()
				}
			})
		}
	}
}

// TestRecoveryResumesDrainInThreeScans opens images a doubling crashed in,
// mid-drain: one traversal rebuilds the OCF the resumed drain needs, the
// unclean shutdown's dedup is the second and the scan the third. The visitor
// runs after the drain, so it still meets each key once.
func TestRecoveryResumesDrainInThreeScans(t *testing.T) {
	w := drainCrashWorld{workers: 1}
	w.findTrigger(t)
	w.run(t, 0, 0)
	resumed := 0
	for n := w.window / 4; n <= w.window && resumed < 3; n += max(w.window/8, 1) {
		img := w.run(t, 1, n)
		if img == nil {
			continue
		}
		dev, err := nvm.FromImage(w.config(1), img)
		if err != nil {
			t.Fatal(err)
		}
		visits := newVisitLog(t)
		tbl, err := openRoot(dev, w.opts(), visits.visit)
		if err != nil {
			t.Fatalf("crash at call %d: %v", n, err)
		}
		rs := tbl.LastRecovery()
		what := fmt.Sprintf("crash at call %d", n)
		w.check(t, what, tbl) // CheckInvariants and the run's model
		if int64(len(visits.vals)) != tbl.Count() {
			t.Fatalf("%s: visitor saw %d records, the table holds %d", what, len(visits.vals), tbl.Count())
		}
		switch {
		case rs.ResumedRehash:
			resumed++
			if rs.Scans != 3 {
				t.Fatalf("%s: resumed drain recovered in %d traversals, want 3", what, rs.Scans)
			}
		case rs.Scans != 2:
			t.Fatalf("%s: unclean recovery made %d traversals, want 2", what, rs.Scans)
		}
		tbl.Close()
	}
	if resumed == 0 {
		t.Fatal("no crash point left a drain to resume")
	}
}

// TestRecoveryResolvesPlantedTornDuplicate plants the image a crashed
// out-of-place update leaves between publish and retire — the key committed
// twice, the second copy under the next stamp — and opens it uncleanly: the
// dedup reads each bucket once and keeps the newer copy, the scan after it
// sees only the winner, and the visitor meets the key once.
func TestRecoveryResolvesPlantedTornDuplicate(t *testing.T) {
	dev := newStrictDev(t, 1<<21, 0)
	opts := DefaultOptions()
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.waitDrain()

	const torn = 7
	k := key(torn)
	h1, h2, fp := hashKV(k[:])
	var ps probeStats
	s.ss[0].enterCritical()
	hit, _ := tbl.walk(s.ss[0].h, k, h1, h2, fp, &ps, walkRead)
	s.ss[0].exitCritical()
	if hit.ref.lvl == nil {
		t.Fatalf("key %d not found", torn)
	}
	_, _, meta := readSlot(s.ss[0].h, hit.ref)
	var free slotRef
	pr := tbl.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			for sl := 0; sl < SlotsPerBucket && free.lvl == nil; sl++ {
				if c := lvl.ocfLoad(b, sl); !ocfIsValid(c) && !ocfIsLocked(c) {
					free = slotRef{lvl, b, sl}
				}
			}
		}
	}
	if free.lvl == nil {
		t.Fatal("no free slot among the key's candidates")
	}
	newer := value(torn + 5000)
	var words [slotWords]uint64
	kv.PackRecord(words[:], k, newer, packMeta(true, (metaStamp(meta)+1)&metaStampMask))
	h := dev.NewHandle()
	for j, word := range words {
		h.StorePersist(free.wordOff()+int64(j), word)
	}
	unclean := dev.PersistedImage()
	tbl.Close()

	dev2, err := nvm.FromImage(dev.Config(), unclean)
	if err != nil {
		t.Fatal(err)
	}
	visits := newVisitLog(t)
	tbl2, err := openRoot(dev2, opts, visits.visit)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	rs := tbl2.LastRecovery()
	if rs.DuplicatesResolved != 1 || rs.Scans != 2 || rs.Items != n {
		t.Fatalf("resolved %d duplicates in %d traversals, %d items; want 1 in 2, %d", rs.DuplicatesResolved, rs.Scans, rs.Items, n)
	}
	if want := 2 * uint64(tbl2.Capacity()/SlotsPerBucket); rs.MediaBlockReads != want {
		t.Fatalf("recovery charged %d media block reads, want %d", rs.MediaBlockReads, want)
	}
	if errs := tbl2.CheckInvariants(); len(errs) != 0 {
		t.Fatal(errs[0])
	}
	if len(visits.vals) != n || visits.vals[k] != newer {
		t.Fatalf("visitor saw %d records, key %d as %q; want %d, %q", len(visits.vals), torn, visits.vals[k].String(), n, newer.String())
	}
	if v, ok := sessionOn(tbl2).Get(k); !ok || v != newer {
		t.Fatalf("key %d reads %q after dedup, want the newer copy %q", torn, v.String(), newer.String())
	}
}

// hotDigest hashes the hot table's control and record words, top level first.
func hotDigest(ht *hotTable) string {
	d := sha256.New()
	var buf [8]byte
	pr := ht.pair()
	for _, l := range [2]*hotLevel{pr.top, pr.bottom} {
		for _, c := range l.ctrl {
			binary.LittleEndian.PutUint32(buf[:4], c)
			d.Write(buf[:4])
		}
		for _, w := range l.words {
			binary.LittleEndian.PutUint64(buf[:], w)
			d.Write(buf[:])
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}

// TestRecoveryHotFillMatchesTwoPass pins, at one recovery worker, the hot
// table a clean reopen builds to the bytes the two-traversal recovery built
// (digests taken from that code): the fused scan makes the same fills in the
// same order, and the in-place-update search its fresh fills skip never
// found anything. The image overflows the hot table, so replacement runs.
func TestRecoveryHotFillMatchesTwoPass(t *testing.T) {
	for _, c := range []struct {
		replacer Replacer
		digest   string
	}{
		{ReplacerRAFL, "517c52a007a24b87dfa8eab342097c3c026b6f1ecd5714fd06a9cc22d2fcc5d6"},
		{ReplacerLRU, "3dc2d256094796dad1a30d56707836f25a70e11708e8db996e516a1c96578cca"},
	} {
		dev := newStrictDev(t, 1<<21, 0)
		opts := DefaultOptions()
		opts.InitBottomSegments = 4 // no doubling: one session, one placement
		opts.Replacer = c.replacer
		tbl, err := create(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := sessionOn(tbl)
		const n = 3000
		for i := 0; i < n; i++ {
			if err := s.Insert(key(i), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if tbl.Generation() != 1 {
			t.Fatalf("generation %d: the image doubled", tbl.Generation())
		}
		tbl.Close()
		opts.recoveryWorkers = 1
		dev2, err := nvm.FromImage(dev.Config(), dev.PersistedImage())
		if err != nil {
			t.Fatal(err)
		}
		// Eager recovery at one worker: the worker is held, so waitSwept's
		// help builds every segment, in cursor order, on this goroutine.
		release := holdSweep(t)
		tbl2, err := openRoot(dev2, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		tbl2.waitSwept()
		release()
		if tbl2.HotEntries() >= n {
			t.Fatalf("%d hot entries for %d records: nothing was replaced", tbl2.HotEntries(), n)
		}
		if got := hotDigest(tbl2.hot); got != c.digest {
			t.Errorf("replacer %v: hot table digest %s, want %s", c.replacer, got, c.digest)
		}
		tbl2.Close()
	}
}

// TestStateTwoCrashIgnoresStaleDrainLayout regresses a recovery bug: after a
// completed parallel resize, the meta block still carried that resize's drain
// layout (metaDrainRanges plus per-range progress words). A crash inside the
// next expansion's state-2 window — after the state word flips to
// levelNumRequest but before persistDrainProgress writes the new layout —
// used to replay into state 3 with only the old single-range word zeroed, so
// resumeDrainTask honoured the stale layout. Its per-range done counts pass
// the done<=hi-lo validation against the new, roughly twice-as-large drain
// level, so whole bucket prefixes were treated as already rehashed and their
// records silently dropped when the drain finalised.
func TestStateTwoCrashIgnoresStaleDrainLayout(t *testing.T) {
	dev := newStrictDev(t, 1<<22, 0)
	opts := DefaultOptions()
	opts.SegmentBuckets = 16 // small segments: expansions come early
	opts.drainWorkers = 4
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	n := 0
	for tbl.Generation() < 3 && n < 100000 {
		if err := s.Insert(key(n), value(n)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if tbl.Generation() < 3 {
		t.Fatal("inserts never triggered an expansion")
	}
	tbl.StopBackground() // quiesce drain workers

	// Plant the residue a completed parallel resize leaves: a range layout
	// whose per-range done counts are plausible for the level the NEXT
	// expansion will drain (half of each range "already rehashed").
	h := dev.NewHandle()
	st := tbl.state()
	if st.levelNumber != levelNumStable {
		t.Fatalf("table not stable after StopBackground (level number %d)", st.levelNumber)
	}
	drainBuckets := tbl.pair().bottom.buckets() // the next expansion drains this level
	nr := int64(4)
	per := (drainBuckets + nr - 1) / nr
	h.StorePersist(tbl.metaOff+metaDrainRanges, uint64(nr))
	for i := int64(0); i < nr; i++ {
		h.StorePersist(tbl.metaOff+metaDrainBase+i, uint64(per/2))
	}

	// Crash in the next expansion's state-2 window: the state word is the
	// only thing expand persists before persistDrainProgress runs.
	free := uint8(0)
	for free == st.top || free == st.bottom {
		free++
	}
	tbl.setState(h, tableState{levelNumber: levelNumRequest, top: st.top, bottom: st.bottom, drain: free, generation: st.generation})
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}

	tbl2, err := openRoot(dev, opts, nil)
	if err != nil {
		t.Fatalf("Open after state-2 crash: %v", err)
	}
	defer tbl2.Close()
	if !tbl2.LastRecovery().ResumedRehash {
		t.Fatal("recovery did not replay the interrupted resize")
	}
	s2 := sessionOn(tbl2)
	lost := 0
	for i := 0; i < n; i++ {
		if v, ok := s2.Get(key(i)); !ok || v != value(i) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d committed keys lost to a stale drain layout", lost, n)
	}
	if errs := tbl2.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants violated after replay: %v", errs[0])
	}
}
