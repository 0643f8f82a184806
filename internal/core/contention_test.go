package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// simulateMovement makes every NVT-walk pass inconclusive: the per-pass test
// hook bumps the key's movement shard after the pass snapshots it, exactly
// what a concurrent out-of-place update racing the scan does. Deterministic
// on any GOMAXPROCS (a real interleaving cannot be forced on one CPU).
// Returns a stop function that restores conclusive scans.
func simulateMovement(tbl *Table, h1 uint64) func() {
	sh := tbl.moveShard(h1)
	tbl.testHookLookupPass = func() { sh.Add(1) }
	return func() { tbl.testHookLookupPass = nil }
}

// TestBudgetExhaustionIsContendedNotMiss is the regression test for the
// silent-false-miss bug: when the rescan budget exhausts under relentless
// movement, a search for a key must report ErrContended — before the fix,
// lookup returned "missing" and the session ops fabricated ErrNotFound (or a
// plain false Get miss) even though no pass ever completed conclusively.
func TestBudgetExhaustionIsContendedNotMiss(t *testing.T) {
	m := obs.New(obs.Config{SampleEvery: 1})
	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0 // force every search to the NVT walk
		o.lookupRetryBudget = 2 // tiny budget: exhaust quickly
		o.Metrics = m
	})
	s := sessionOn(tbl)

	absent := key(424242)
	h1, _, _ := hashKV(absent[:])
	stop := simulateMovement(tbl, h1)
	defer stop()

	if _, err := s.Lookup(absent); !errors.Is(err, scheme.ErrContended) {
		t.Fatalf("Lookup under movement pressure = %v, want ErrContended", err)
	}
	if err := s.Update(absent, value(1)); !errors.Is(err, scheme.ErrContended) {
		t.Fatalf("Update under movement pressure = %v, want ErrContended", err)
	}
	if err := s.Delete(absent); !errors.Is(err, scheme.ErrContended) {
		t.Fatalf("Delete under movement pressure = %v, want ErrContended", err)
	}
	if err := s.Insert(absent, value(1)); !errors.Is(err, scheme.ErrContended) {
		t.Fatalf("Insert under movement pressure = %v, want ErrContended", err)
	}
	stop()

	// Once the movement stops the same searches become conclusive again —
	// ErrContended is transient, ErrNotFound is the truth.
	if _, err := s.Lookup(absent); !errors.Is(err, scheme.ErrNotFound) {
		t.Fatalf("Lookup after movement stopped = %v, want ErrNotFound", err)
	}

	snap := m.Snapshot()
	if snap.Contended == 0 {
		t.Fatal("contended events were not counted")
	}
	if snap.Ops[obs.OpGet][obs.OutContended] == 0 {
		t.Fatal("get/contended outcome was not counted")
	}
	for _, c := range []struct {
		op  obs.Op
		out obs.Outcome
	}{
		{obs.OpInsert, obs.OutContended},
		{obs.OpUpdate, obs.OutContended},
		{obs.OpDelete, obs.OutContended},
	} {
		if snap.Ops[c.op][c.out] == 0 {
			t.Fatalf("%s/%s outcome was not counted", c.op, c.out)
		}
	}
	if snap.LookupRescans == 0 {
		t.Fatal("rescans were not counted")
	}
}

// TestGetRetriesThroughTransientContention: Get must not fabricate a miss
// while scans are inconclusive — it retries with capped backoff and answers
// once a conclusive pass happens. The movement here stops after a few
// hundred passes, as a real movement burst does.
func TestGetRetriesThroughTransientContention(t *testing.T) {
	m := obs.New(obs.Config{SampleEvery: 1})
	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0
		o.lookupRetryBudget = 2
		o.Metrics = m
	})
	s := sessionOn(tbl)
	k := key(9)
	if err := s.Insert(k, value(9)); err != nil {
		t.Fatal(err)
	}

	// The inserted key is found mid-pass regardless of movement noise; an
	// absent key is the interesting case. Simulate a burst that subsides.
	absent := key(99999)
	h1, _, _ := hashKV(absent[:])
	var passes atomic.Int64
	sh := tbl.moveShard(h1)
	tbl.testHookLookupPass = func() {
		if passes.Add(1) < 300 {
			sh.Add(1)
		}
	}
	defer func() { tbl.testHookLookupPass = nil }()

	done := make(chan bool, 1)
	go func() {
		_, ok := s.Get(absent)
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("absent key reported present")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get did not resolve after the movement burst subsided")
	}
	if m.Snapshot().GetRetries == 0 {
		t.Fatal("get retry rounds were not counted")
	}
}

// TestGetNeverFalseMissesUnderMovement drives the real hazard end to end
// with actual concurrency: a writer updates one key as fast as it can (each
// update is an out-of-place move), readers Get the same key with a rescan
// budget of 1 — maximally sensitive to the race. Before the fix a reader
// whose single pass raced a move reported a miss for a key that was present
// the whole time.
func TestGetNeverFalseMissesUnderMovement(t *testing.T) {
	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0 // keep every Get on the racy NVT path
		o.lookupRetryBudget = 1
	})
	w := sessionOn(tbl)
	k := key(7)
	if err := w.Insert(k, value(0)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 1; !stop.Load(); i++ {
			if err := w.Update(k, value(i)); err != nil && !errors.Is(err, scheme.ErrContended) {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	r := sessionOn(tbl)
	deadline := time.Now().Add(200 * time.Millisecond)
	gets := 0
	for time.Now().Before(deadline) {
		if _, ok := r.Get(k); !ok {
			t.Fatal("Get reported a present key as missing (silent false miss)")
		}
		if _, err := r.Lookup(k); err != nil && !errors.Is(err, scheme.ErrContended) {
			t.Fatalf("Lookup on a present key = %v (only ErrContended is acceptable)", err)
		}
		gets++
	}
	stop.Store(true)
	<-writerDone
	if gets == 0 {
		t.Fatal("reader made no progress")
	}
}

// TestWaitUnlockedBackoffReturnsFreshWord locks a slot, lets a waiter spin,
// and checks the waiter both survives a multi-millisecond hold (the backoff
// must sleep, not burn a core at full tilt) and reports its spin count.
func TestWaitUnlockedBackoffReturnsFreshWord(t *testing.T) {
	tbl := newTable(t, nil)
	lvl := tbl.pair().top
	c := lvl.ocfLoad(0, 0)
	if !lvl.ocfTryLock(0, 0, c) {
		t.Fatal("could not lock a fresh slot")
	}

	type result struct {
		word  uint32
		spins int64
	}
	res := make(chan result)
	go func() {
		var ps probeStats
		w := waitUnlocked(lvl, 0, 0, &ps)
		res <- result{w, ps.spins}
	}()

	time.Sleep(5 * time.Millisecond)
	select {
	case <-res:
		t.Fatal("waitUnlocked returned while the slot was still locked")
	default:
	}
	lvl.ocfRelease(0, 0, false, 0, ocfVer(c))

	select {
	case got := <-res:
		if ocfIsLocked(got.word) {
			t.Fatal("waitUnlocked returned a locked control word")
		}
		if got.spins == 0 {
			t.Fatal("spin count not recorded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waitUnlocked did not observe the release")
	}
}

// TestContendedRoundTripsThroughSchemeAdapter checks the sentinel survives
// the registry adapter so harness-level callers can distinguish it.
func TestContendedRoundTripsThroughSchemeAdapter(t *testing.T) {
	r := newRouterT(t, 1, func(o *Options) {
		o.HotSlotsPerBucket = 0
		o.lookupRetryBudget = 2
	})
	sess := NewRouterStore(r).NewSession()

	absent := key(515151)
	h1, _, _ := hashKV(absent[:])
	stop := simulateMovement(r.shards[0], h1)
	defer stop()

	if err := sess.Update(absent, value(1)); !errors.Is(err, scheme.ErrContended) {
		t.Fatalf("adapter Update = %v, want ErrContended", err)
	}
}

// TestLookupRetryBudgetOption checks that a zero budget means the default.
func TestLookupRetryBudgetOption(t *testing.T) {
	if got := DefaultOptions().withDefaults().lookupRetryBudget; got != defaultLookupRetryBudget {
		t.Fatalf("withDefaults budget = %d, want %d", got, defaultLookupRetryBudget)
	}
	tbl := newTable(t, func(o *Options) { o.lookupRetryBudget = 0 })
	if got := tbl.Options().lookupRetryBudget; got != defaultLookupRetryBudget {
		t.Fatalf("table normalised budget = %d, want %d", got, defaultLookupRetryBudget)
	}
}
