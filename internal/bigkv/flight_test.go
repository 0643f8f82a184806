package bigkv

import (
	"bytes"
	"fmt"
	"testing"

	"hdnh/internal/flight"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/vlog"
)

// instrumentedSmallLogStore is smallLogStore with metrics and a flight
// recorder attached to the underlying table.
func instrumentedSmallLogStore(t *testing.T, segWords, segs int64, m *obs.Metrics, fr *flight.Recorder) *Store {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SegmentWords = segWords
	opts.Segments = segs
	opts.DisableAutoGC = true
	opts.Table.Metrics = m
	opts.Table.Flight = fr
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// fillAndKill writes n pointer-sized values and overwrites every one with a
// same-size replacement, then seals the active segment. Each record is
// exactly 16 words (3 header + 13 payload for the 100-byte value), so with
// 1024-word segments and n=64 each generation fills one segment exactly:
// generation 1's segment ends up fully dead and generation 2's fully live,
// giving the GC a victim it can recycle without relocating anything.
func fillAndKill(t *testing.T, st *Store, n int) {
	t.Helper()
	s := st.NewSession()
	val := func(i, gen int) []byte {
		return bytes.Repeat([]byte{byte(i + gen)}, 100)
	}
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("fk-%04d", i)), val(i, gen)); err != nil {
				t.Fatalf("put gen %d: %v", gen, err)
			}
		}
	}
	st.logs[0].SealActive(st.dev.NewHandle())
}

// TestObsCountsBackgroundNVM is the regression test for the background-NVM
// bridge: the GC worker's log reads and recycle zeroing flow through gc.h,
// not the index session, and before
// the syncGCObs baseline bridge it never reached the metrics registry —
// hdnh_nvm_* silently under-reported every byte the collector moved. The
// assertion is on WRITE traffic against a fully-dead victim: index reads
// through gc.sess would satisfy a read-delta check even without the fix,
// and a partially-live victim's index rewrites would leak write traffic
// through the session bridge — with a fully-dead victim, the only writes in
// the pass are gc.h's recycle zeroing and state persists.
func TestObsCountsBackgroundNVM(t *testing.T) {
	m := obs.New(obs.Config{})
	st := instrumentedSmallLogStore(t, 1024, 8, m, nil)
	fillAndKill(t, st, 64)

	base := m.Snapshot()
	drainGC(t, st)
	if st.logs[0].Recycles() == 0 {
		t.Fatal("fixture did not make the GC recycle anything")
	}
	delta := m.Snapshot().NVM.Sub(base.NVM)
	if delta.WriteAccesses == 0 || delta.WriteWords == 0 {
		t.Fatalf("GC write traffic missing from the registry: %+v", delta)
	}
	if delta.Flushes == 0 {
		t.Fatalf("GC flushes missing from the registry: %+v", delta)
	}
}

// TestFlightRecordsGCAndVlog checks the background-worker spans land in the
// trace: the GC pass's copy/persist/rewrite/recycle phases and the value
// log's segment lifecycle transitions.
func TestFlightRecordsGCAndVlog(t *testing.T) {
	fr := flight.New(flight.Config{SampleEvery: 1})
	st := instrumentedSmallLogStore(t, 1024, 8, nil, fr)
	fillAndKill(t, st, 64)
	drainGC(t, st)
	if st.logs[0].Recycles() == 0 {
		t.Fatal("fixture did not make the GC recycle anything")
	}

	d := fr.Snapshot()
	phases := map[flight.GCPhase]bool{}
	segStates := map[uint8]bool{}
	for _, e := range d.Events {
		switch e.Kind {
		case flight.KindGCPhase:
			phases[flight.GCPhase(e.A)] = true
		case flight.KindVLogSeg:
			segStates[e.A] = true
		}
	}
	for _, p := range []flight.GCPhase{flight.GCCopy, flight.GCPersist, flight.GCRewrite, flight.GCRecycle} {
		if !phases[p] {
			t.Fatalf("trace has no gc %v phase (got %v)", p, phases)
		}
	}
	for _, s := range []vlog.SegState{vlog.SegActive, vlog.SegSealed, vlog.SegFreeing, vlog.SegFree} {
		if !segStates[uint8(s)] {
			t.Fatalf("trace has no vlog %v transition (got %v)", s, segStates)
		}
	}
}
