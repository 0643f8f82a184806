package bigkv

import (
	"bytes"
	"fmt"
	"testing"

	"hdnh/internal/nvm"
)

// The GC crash sweep: run a deterministic workload plus one full GC cycle,
// note the persist-call count at every boundary of the cycle, then replay the
// identical history once per boundary with a crash injected there. Every
// recovery must read every surviving key's final value — the property the
// old Compact violated (its index rewrites became durable before the log
// root swap, stranding pointers in an unreachable log).

const (
	gcSweepKeys     = 60
	gcSweepSegWords = 256
	gcSweepSegs     = 8
)

func gcSweepCfg(seed uint64) nvm.Config {
	cfg := nvm.StrictConfig(1 << 20)
	cfg.EvictProb = 0 // deterministic flush counts across replays
	cfg.Seed = seed
	return cfg
}

func gcSweepOpts() Options {
	opts := DefaultOptions()
	opts.SegmentWords = gcSweepSegWords
	opts.Segments = gcSweepSegs
	opts.DisableAutoGC = true // the test drives every pass itself
	return opts
}

func gcSweepKey(i int) []byte { return []byte(fmt.Sprintf("g-%03d", i)) }

func gcSweepVal(i, gen int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(gen)}, 48)
}

// gcSweepWorkload creates the store and runs the pre-GC history: insert
// every key, overwrite the first 40 (making ~2/3 of the early segments
// dead), delete every fifth. Returns the store and the expected final
// state (nil value = deleted).
func gcSweepWorkload(t *testing.T, dev *nvm.Device) (*Store, map[int][]byte) {
	t.Helper()
	st, err := Create(dev, gcSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	want := map[int][]byte{}
	for i := 0; i < gcSweepKeys; i++ {
		if err := s.Put(gcSweepKey(i), gcSweepVal(i, 0)); err != nil {
			t.Fatal(err)
		}
		want[i] = gcSweepVal(i, 0)
	}
	for i := 0; i < 40; i++ {
		if err := s.Put(gcSweepKey(i), gcSweepVal(i, 1)); err != nil {
			t.Fatal(err)
		}
		want[i] = gcSweepVal(i, 1)
	}
	for i := 0; i < gcSweepKeys; i += 5 {
		if err := s.Delete(gcSweepKey(i)); err != nil {
			t.Fatal(err)
		}
		want[i] = nil
	}
	return st, want
}

func gcSweepVerify(t *testing.T, st *Store, want map[int][]byte, when string) {
	t.Helper()
	s := st.NewSession()
	for i := 0; i < gcSweepKeys; i++ {
		got, ok, err := s.Get(gcSweepKey(i))
		if err != nil {
			t.Fatalf("%s: key %d unreadable: %v", when, i, err)
		}
		if want[i] == nil {
			if ok {
				t.Fatalf("%s: deleted key %d resurrected", when, i)
			}
			continue
		}
		if !ok {
			t.Fatalf("%s: key %d lost", when, i)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s: key %d reads wrong value", when, i)
		}
	}
}

func TestGCCrashSweep(t *testing.T) {
	// Reference run: find the persist-call window [f0+1, f1] a full GC cycle
	// spans. PersistCalls, the unit SetCrashAfterFlushes counts in, not
	// TotalFlushes: a barrier that drains a record's body together with its
	// slot words is one flush but two persist calls, and the sweep must land
	// between them.
	cfg := gcSweepCfg(1)
	dev, err := nvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, want := gcSweepWorkload(t, dev)
	f0 := dev.PersistCalls()
	for {
		progress, err := st.GCOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !progress {
			break
		}
	}
	f1 := dev.PersistCalls()
	if st.Log().Recycles() == 0 {
		t.Fatal("reference GC cycle recycled nothing; sweep would be vacuous")
	}
	gcSweepVerify(t, st, want, "reference run")
	st.Close()
	if f1 <= f0 {
		t.Fatalf("GC cycle persisted nothing (%d..%d)", f0, f1)
	}
	t.Logf("sweeping %d crash points through the GC cycle", f1-f0)

	// One replay per persist call inside the cycle. EvictProb is 0 and the
	// history is single-threaded, so each replay reproduces the reference
	// run exactly up to its crash point.
	for f := f0 + 1; f <= f1; f++ {
		f := f
		t.Run(fmt.Sprintf("flush%d", f), func(t *testing.T) {
			dev, err := nvm.New(gcSweepCfg(1))
			if err != nil {
				t.Fatal(err)
			}
			st, want := gcSweepWorkload(t, dev)
			if got := dev.PersistCalls(); got != f0 {
				t.Fatalf("replay diverged: workload persisted %d times, reference %d", got, f0)
			}
			// SetCrashAfterFlushes counts from now, so arm the distance into
			// the GC cycle, not the absolute persist call.
			if err := dev.SetCrashAfterFlushes(f - f0); err != nil {
				t.Fatal(err)
			}
			for {
				progress, err := st.GCOnce()
				if err != nil || !progress {
					break
				}
			}
			img := dev.CrashImage()
			if img == nil {
				t.Fatalf("crash at persist call %d never triggered", f)
			}
			dev2, err := nvm.FromImage(gcSweepCfg(1), img)
			if err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dev2, gcSweepOpts())
			if err != nil {
				t.Fatalf("open after crash at persist call %d: %v", f, err)
			}
			defer st2.Close()
			auditLivenessFromLog(t, st2, "after crash")
			gcSweepVerify(t, st2, want, "after crash")
			// The recovered store must still collect garbage and accept
			// writes: finish the interrupted cycle, then overwrite a key.
			for {
				progress, err := st2.GCOnce()
				if err != nil {
					t.Fatalf("GC after recovery: %v", err)
				}
				if !progress {
					break
				}
			}
			if err := st2.AuditLiveness(); err != nil {
				t.Fatalf("liveness after recovered GC: %v", err)
			}
			s := st2.NewSession()
			if err := s.Put(gcSweepKey(1), gcSweepVal(1, 7)); err != nil {
				t.Fatalf("put after recovery: %v", err)
			}
		})
	}
}
