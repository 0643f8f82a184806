package core

import (
	"testing"
	"time"

	"hdnh/internal/flight"
	"hdnh/internal/obs"
)

// dumpHasKind reports whether any event in the dump carries the kind.
func dumpHasKind(d flight.Dump, k flight.Kind) bool {
	for _, e := range d.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// windowHasKind reports whether a slow op's retained event window carries
// the kind.
func windowHasKind(s flight.SlowOp, k flight.Kind) bool {
	for _, e := range s.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// TestFlightRecordsOps checks the basic span plumbing: sampled operations
// leave begin/end pairs with their outcome, and NVT walks leave probe
// counts.
func TestFlightRecordsOps(t *testing.T) {
	fr := flight.New(flight.Config{SampleEvery: 1})
	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0 // force NVT walks so probes are emitted
		o.Flight = fr
	})
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Fatal("miss")
	}
	if _, ok := s.Get(key(999)); ok {
		t.Fatal("phantom hit")
	}
	d := fr.Snapshot()
	for _, k := range []flight.Kind{flight.KindOpBegin, flight.KindOpEnd, flight.KindProbe} {
		if !dumpHasKind(d, k) {
			t.Fatalf("dump has no %v event", k)
		}
	}
	var outcomes []obs.Outcome
	for _, e := range d.Events {
		if e.Kind == flight.KindOpEnd {
			outcomes = append(outcomes, obs.Outcome(e.B))
		}
	}
	want := map[obs.Outcome]bool{obs.OutOK: false, obs.OutNVTHit: false, obs.OutMiss: false}
	for _, o := range outcomes {
		if _, ok := want[o]; ok {
			want[o] = true
		}
	}
	for o, seen := range want {
		if !seen {
			t.Fatalf("no op-end with outcome %v (got %v)", o, outcomes)
		}
	}
	// The NVT-walk Get must carry its NVM read delta as span args.
	var sawReads bool
	for _, e := range d.Events {
		if e.Kind == flight.KindOpEnd && obs.Op(e.A) == obs.OpGet {
			if acc, _ := flight.UnpackAccess(e.Args[1]); acc > 0 {
				sawReads = true
			}
		}
	}
	if !sawReads {
		t.Fatal("no get span carried NVM read accesses")
	}
}

// TestSlowOpCaptureExplainsTail is the acceptance test for slow-op capture:
// inject a contended, backoff-heavy Get and assert the retained window
// holds the rescan and lock-spin events that produced the latency —
// the point of the feature is that a tail sample explains itself.
func TestSlowOpCaptureExplainsTail(t *testing.T) {
	fr := flight.New(flight.Config{
		SampleEvery:     1,
		SlowOpThreshold: 1, // capture everything; the asserts pick the victims
	})
	tbl := newTable(t, func(o *Options) {
		o.HotSlotsPerBucket = 0 // force the NVT walk
		o.lookupRetryBudget = 2
		o.Flight = fr
	})
	s := sessionOn(tbl)
	k := key(7)
	if err := s.Insert(k, value(7)); err != nil {
		t.Fatal(err)
	}

	// Victim 1 — movement-hazard rescans: search an absent key under a
	// bounded movement burst (the deterministic stand-in for an update
	// racing the walk; see contention_test.go). The budget-2 walks keep
	// rescanning until the burst subsides, so the Get retries through
	// transient contention and its window accumulates rescan events.
	absent := key(424242)
	h1a, _, _ := hashKV(absent[:])
	var passes int64
	sh := tbl.moveShard(h1a)
	tbl.testHookLookupPass = func() {
		if passes++; passes < 300 {
			sh.Add(1)
		}
	}
	if _, ok := s.Get(absent); ok {
		t.Fatal("phantom hit")
	}
	tbl.testHookLookupPass = nil

	// Victim 2 — lock spins: lock the present key's OCF slot, release it a
	// few milliseconds later from another goroutine, and Get in between.
	// The walk fingerprint-matches the locked slot and parks in
	// waitUnlocked until the release.
	h1, h2, fp := hashKV(k[:])
	var ps probeStats
	s.ss[0].enterCritical()
	ht, res := tbl.walk(s.ss[0].h, k, h1, h2, fp, &ps, walkRead)
	s.ss[0].exitCritical()
	if res != lookupFound {
		t.Fatalf("lookup of the inserted key = %v", res)
	}
	c := ht.ref.lvl.ocfLoad(ht.ref.b, ht.ref.s)
	if !ht.ref.lvl.ocfTryLock(ht.ref.b, ht.ref.s, c) {
		t.Fatal("could not lock the slot")
	}
	go func() {
		time.Sleep(3 * time.Millisecond)
		ht.ref.lvl.ocfRelease(ht.ref.b, ht.ref.s, true, fp, ocfVer(c))
	}()
	if _, ok := s.Get(k); !ok {
		t.Fatal("Get reported the locked (but present) key as missing")
	}

	slow := fr.SlowOps()
	if len(slow) == 0 {
		t.Fatal("no slow ops were captured")
	}
	var sawRescan, sawSpin bool
	for _, so := range slow {
		if so.Op != obs.OpGet {
			continue
		}
		if windowHasKind(so, flight.KindRescan) {
			sawRescan = true
		}
		if windowHasKind(so, flight.KindLockSpin) {
			sawSpin = true
		}
	}
	if !sawRescan {
		t.Fatal("no captured Get window holds the rescan events that caused its latency")
	}
	if !sawSpin {
		t.Fatal("no captured Get window holds the lock-spin events that caused its latency")
	}
}

// TestFlightRecordsResizeAndRecovery drives a doubling and a crash-free
// close/open cycle and asserts the structural spans land: drain chunks,
// the pointer swap, the finished expansion, and the recovery steps.
func TestFlightRecordsResizeAndRecovery(t *testing.T) {
	fr := flight.New(flight.Config{SampleEvery: 64})
	dev := newDev(t, 1<<22)
	opts := DefaultOptions()
	opts.InitBottomSegments = 1
	opts.Flight = fr
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sessionOn(tbl)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.waitDrain()
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	tbl2, err := openRoot(dev, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	s2 := sessionOn(tbl2)
	if _, ok := s2.Get(key(1)); !ok {
		t.Fatal("key lost across close/open")
	}
	tbl2.waitSwept() // the sweep records its step when it ends

	d := fr.Snapshot()
	for _, k := range []flight.Kind{
		flight.KindOpEnd,
		flight.KindDrainChunk,
		flight.KindResizeSwap,
		flight.KindResizeDone,
		flight.KindRecoveryStep,
	} {
		if !dumpHasKind(d, k) {
			t.Fatalf("dump has no %v event", k)
		}
	}
	// A clean Open is one step: the sweep, which rebuilds the OCF and the hot
	// table in one traversal.
	steps := map[flight.RecoveryStep]int{}
	for _, e := range d.Events {
		if e.Kind == flight.KindRecoveryStep {
			steps[flight.RecoveryStep(e.A)]++
		}
	}
	if len(steps) != 1 || steps[flight.RecSweep] != 1 {
		t.Fatalf("recovery steps in trace: %v, want one sweep", steps)
	}
}

// TestFlightSpansBalanceAcrossFailedExpansion is the regression test for
// the leaked op spans on the expansion-failure exits: Insert and Update
// returned through a path that recorded the metrics counter directly
// instead of closing the flight span, so every failed expansion left a
// dangling OpBegin. Fill a tiny device until expansion fails, update into
// the full table for good measure, and assert every sampled begin has a
// matching end.
func TestFlightSpansBalanceAcrossFailedExpansion(t *testing.T) {
	fr := flight.New(flight.Config{SampleEvery: 1, RingEvents: 1 << 16})
	dev := newDev(t, 2048)
	opts := DefaultOptions()
	opts.SegmentBuckets = 4
	opts.maxExpansions = 2
	opts.Flight = fr
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	inserted := 0
	sawFull := false
	for i := 0; i < 100000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			sawFull = true
			break
		}
		inserted++
	}
	if !sawFull {
		t.Fatal("tiny device never filled; the failed-expansion path was not exercised")
	}
	// Out-of-place updates against a saturated candidate set walk the same
	// expansion-failure exit on the update path.
	for i := 0; i < inserted; i++ {
		s.Update(key(i), value(i+3)) // ErrFull is fine; the span must close either way
	}

	d := fr.Snapshot()
	begins, ends := 0, 0
	fullEnds := 0
	for _, e := range d.Events {
		switch e.Kind {
		case flight.KindOpBegin:
			begins++
		case flight.KindOpEnd:
			ends++
			if obs.Outcome(e.B) == obs.OutFull {
				fullEnds++
			}
		}
	}
	if begins == 0 {
		t.Fatal("no sampled op begins in the dump")
	}
	if begins != ends {
		t.Fatalf("flight spans leak: %d OpBegin vs %d OpEnd", begins, ends)
	}
	if fullEnds == 0 {
		t.Fatal("no op closed with OutFull; the failure exits were not hit")
	}
}

// TestFlightOverheadGuard extends TestMetricsOverheadGuard to the flight
// recorder: a sampled tracer attached to the hot Get path must not grossly
// regress it. Like the metrics guard this is a 2x tripwire, not the 5%
// measurement (BenchmarkGet*Flight is).
func TestFlightOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	const n = 20000
	run := func(fr *flight.Recorder) time.Duration {
		opts := DefaultOptions()
		opts.InitBottomSegments = 16
		opts.Flight = fr
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
	instrumented := run(flight.New(flight.Config{SampleEvery: 8}))
	ratio := float64(instrumented) / float64(plain)
	t.Logf("get path: plain %v, traced %v (ratio %.3f)", plain, instrumented, ratio)
	if ratio > 2.0 {
		t.Fatalf("flight overhead ratio %.2f — tracing is on the wrong side of the sampling gate", ratio)
	}
}

// BenchmarkGetHotFlight pairs with BenchmarkGetHot for the 5% guardrail
// with a sampled tracer attached.
func BenchmarkGetHotFlight(b *testing.B) {
	tbl := benchTable(b, func(o *Options) { o.Flight = flight.New(flight.Config{SampleEvery: 8}) })
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
