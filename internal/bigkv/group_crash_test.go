package bigkv

import (
	"bytes"
	"fmt"
	"testing"

	"hdnh/internal/nvm"
)

// The group-commit crash sweep: run a deterministic grouped batch phase
// (one MultiPut spanning updates, inserts, and inline/pointer encoding
// changes, then one MultiDelete), note every strict-mode persist call it
// makes, and replay the identical history once per boundary with a crash
// injected there. The staged protocol's windows are all exercised — the
// value-log payload run before its headers, the header burst (with cache
// evictions making an arbitrary subset durable, not a prefix), staged NVT
// key/value words before their commit words, and an update's both-copies
// window — and every recovery must satisfy: nothing the pre-batch history
// acknowledged is lost, no key reads anything but its old or new value, no
// key is committed twice, and the liveness counters re-add. The sweep then
// repeats with the same history issued one key at a time (Put, Delete):
// single-key writes run the same staged protocol as groups of one.

const (
	groupSweepPreload = 48 // keys present before the batch phase
	groupSweepBatch   = 64 // MultiPut size: preloaded updates + fresh inserts
	groupSweepSegWs   = 512
	groupSweepSegs    = 10
)

func groupSweepCfg(seed uint64) nvm.Config {
	cfg := nvm.StrictConfig(1 << 20)
	// Evictions on: a crash image writes back a random subset of the dirty
	// lines, so the header burst and staged commit words land non-prefix —
	// the exact hazard the group protocol's barrier ordering must absorb.
	// flushCount is unaffected by evictions, so replays stay deterministic.
	cfg.EvictProb = 0.5
	cfg.Seed = seed
	return cfg
}

func groupSweepOpts() Options {
	opts := DefaultOptions()
	opts.SegmentWords = groupSweepSegWs
	opts.Segments = groupSweepSegs
	opts.DisableAutoGC = true
	return opts
}

func groupSweepKey(i int) []byte { return []byte(fmt.Sprintf("gc-%04d", i)) }

// groupSweepVal alternates each key between inline and logged encodings
// across generations, so the batch phase drives both the pure-index commit
// and the log-then-index path, including pointer<->inline transitions.
func groupSweepVal(i, gen int) []byte {
	long := (i+gen)%3 == 0
	if long {
		return bytes.Repeat([]byte{byte(i), byte(gen)}, 36)
	}
	return []byte{byte(i), byte(gen), 0xab, 0xcd}
}

// groupSweepPreloadStore creates the store and runs the acknowledged
// pre-batch history: solo Puts of the first groupSweepPreload keys.
func groupSweepPreloadStore(t *testing.T, dev *nvm.Device) *Store {
	t.Helper()
	st, err := Create(dev, groupSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	defer s.Close()
	for i := 0; i < groupSweepPreload; i++ {
		if err := s.Put(groupSweepKey(i), groupSweepVal(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// groupSweepBatchPhase runs the grouped history under test: one MultiPut
// over every key (gen-1 values), then one MultiDelete of every fourth
// preloaded key. Errors are returned, not asserted — a replay headed for a
// crash still completes the calls (the device snapshots, it doesn't stop).
func groupSweepBatchPhase(st *Store) []error {
	s := st.NewSession()
	defer s.Close()
	keys := make([][]byte, groupSweepBatch)
	vals := make([][]byte, groupSweepBatch)
	for i := range keys {
		keys[i] = groupSweepKey(i)
		vals[i] = groupSweepVal(i, 1)
	}
	errs := s.MultiPut(keys, vals)
	var del [][]byte
	for i := 0; i < groupSweepPreload; i += 4 {
		del = append(del, groupSweepKey(i))
	}
	return append(errs, s.MultiDelete(del)...)
}

// groupSweepSoloPhase is the same history one key at a time: every write a
// staged group of one through Put and Delete — the path a solo write and a
// contended batch key both take.
func groupSweepSoloPhase(st *Store) []error {
	s := st.NewSession()
	defer s.Close()
	var errs []error
	for i := 0; i < groupSweepBatch; i++ {
		errs = append(errs, s.Put(groupSweepKey(i), groupSweepVal(i, 1)))
	}
	for i := 0; i < groupSweepPreload; i += 4 {
		errs = append(errs, s.Delete(groupSweepKey(i)))
	}
	return errs
}

// groupSweepVerifyCrash checks the recovered store against the only states
// a mid-batch crash may expose: a preloaded key reads gen 0 or gen 1 (or,
// for a delete target, nothing); a fresh insert reads gen 1 or nothing.
// Nothing acknowledged is lost: a non-delete-target preloaded key must be
// present.
func groupSweepVerifyCrash(t *testing.T, st *Store) {
	t.Helper()
	s := st.NewSession()
	defer s.Close()
	for i := 0; i < groupSweepBatch; i++ {
		preloaded := i < groupSweepPreload
		delTarget := preloaded && i%4 == 0
		got, ok, err := s.Get(groupSweepKey(i))
		if err != nil {
			t.Fatalf("key %d unreadable after crash: %v", i, err)
		}
		if !ok {
			if preloaded && !delTarget {
				t.Fatalf("acknowledged key %d lost", i)
			}
			continue
		}
		if bytes.Equal(got, groupSweepVal(i, 1)) {
			continue
		}
		if preloaded && bytes.Equal(got, groupSweepVal(i, 0)) {
			continue
		}
		t.Fatalf("key %d reads neither its old nor its new value", i)
	}
}

func TestGroupCommitCrashSweep(t *testing.T) {
	groupCrashSweep(t, "persist", groupSweepBatchPhase)
	groupCrashSweep(t, "solo-persist", groupSweepSoloPhase)
}

// groupCrashSweep replays the preload plus one write phase once per strict
// persist call the phase makes, crashing there; subtests are named
// <name><absolute persist call>.
func groupCrashSweep(t *testing.T, name string, phase func(*Store) []error) {
	// Reference run: find the persist-call window [c0+1, c1] the write
	// phase spans. PersistCalls, not TotalFlushes: staged write-backs
	// persist per call while only barriers count as flushes, and the sweep
	// must land between the staged calls inside a group.
	dev, err := nvm.New(groupSweepCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	st := groupSweepPreloadStore(t, dev)
	c0 := dev.PersistCalls()
	for i, err := range phase(st) {
		if err != nil {
			t.Fatalf("reference %s op %d: %v", name, i, err)
		}
	}
	c1 := dev.PersistCalls()
	st.Close()
	if c1 <= c0 {
		t.Fatalf("%s phase persisted nothing (%d..%d)", name, c0, c1)
	}
	t.Logf("sweeping %d crash points through the %s phase", c1-c0, name)

	for c := c0 + 1; c <= c1; c++ {
		c := c
		t.Run(fmt.Sprintf("%s%d", name, c), func(t *testing.T) {
			dev, err := nvm.New(groupSweepCfg(1))
			if err != nil {
				t.Fatal(err)
			}
			st := groupSweepPreloadStore(t, dev)
			if got := dev.PersistCalls(); got != c0 {
				t.Fatalf("replay diverged: preload persisted %d times, reference %d", got, c0)
			}
			if err := dev.SetCrashAfterFlushes(c - c0); err != nil {
				t.Fatal(err)
			}
			phase(st)
			img := dev.CrashImage()
			st.Close()
			if img == nil {
				t.Fatalf("crash at persist call %d never triggered", c)
			}
			dev2, err := nvm.FromImage(groupSweepCfg(1), img)
			if err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dev2, groupSweepOpts())
			if err != nil {
				t.Fatalf("open after crash at persist call %d: %v", c, err)
			}
			defer st2.Close()
			auditLivenessFromLog(t, st2, "after crash")
			groupSweepVerifyCrash(t, st2)
			if errs := st2.Index().CheckInvariants(); len(errs) > 0 {
				t.Fatalf("index invariants violated after crash: %v", errs[0])
			}
			if err := st2.AuditLiveness(); err != nil {
				t.Fatal(err)
			}
			// The recovered store must keep accepting writes.
			s := st2.NewSession()
			defer s.Close()
			for _, i := range []int{0, 1, groupSweepPreload, groupSweepBatch - 1} {
				if err := s.Put(groupSweepKey(i), groupSweepVal(i, 2)); err != nil {
					t.Fatalf("put after recovery: %v", err)
				}
				got, ok, err := s.Get(groupSweepKey(i))
				if err != nil || !ok || !bytes.Equal(got, groupSweepVal(i, 2)) {
					t.Fatalf("key %d unreadable after post-recovery put (ok=%v err=%v)", i, ok, err)
				}
			}
		})
	}
}
