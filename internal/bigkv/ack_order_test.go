package bigkv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/vlog"
)

// TestCrashBetweenOutOfOrderHeaders pins the crash argument for logged
// writes whose records persist outside the log mutex, inside their index
// write's barrier train (INTERNALS §9): writer A is parked inside its train,
// writer B behind it runs its own up to its header barrier (B′), and the
// power fails. B's record is valid on the device but was never acknowledged
// — B's acknowledgment waits for A's, and B's commit word waits for that —
// so no index entry can point at it, nor at A's.
//
// A parks in one of two places. After its phase B (body and slot words
// durable, header still zero), A's record is a hole in front of B's: Open
// puts the head at A's start, neither key exists, the liveness audit is
// clean, and the store survives the next append and a second crash, whether
// that append overwrites B's stale record (a longer value) or leaves it
// whole behind itself to be recovered as dead words (the same length as
// A's). After its B′ (A's header durable too, acknowledgment pending), both
// records read valid and Open's head passes them, but they are dead words:
// neither key exists, the audit is clean, and the next append lands behind
// them.
func TestCrashBetweenOutOfOrderHeaders(t *testing.T) {
	const preload = 5
	key := func(i int) []byte { return []byte(fmt.Sprintf("ooo-%02d", i)) }
	val := func(i, n int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, n) }
	const valLen = 100 // 16 words a record
	w := vlog.RecordWords(valLen)

	for _, tc := range []struct {
		name     string
		park     vlog.AppendStage // where A waits while B runs to its B′
		nextLen  int              // the value appended after the first recovery
		wantHead int64            // the head the first recovery finds
		wantUsed int64            // the head the second recovery finds
	}{
		{"next-overwrites-B", vlog.StagePayloadDurable, 2 * valLen, preload * w, preload*w + vlog.RecordWords(2*valLen)},
		{"next-leaves-B-whole", vlog.StagePayloadDurable, valLen, preload * w, (preload + 2) * w},
		{"acknowledgment-pending", vlog.StageHeaderDurable, valLen, (preload + 2) * w, (preload + 3) * w},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := nvm.StrictConfig(1 << 20)
			cfg.EvictProb = 0
			dev, err := nvm.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.SegmentWords = 1024
			opts.Segments = 8
			opts.DisableAutoGC = true
			st, err := Create(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := st.NewSession()
			for i := 0; i < preload; i++ {
				if err := s.Put(key(i), val(i, valLen)); err != nil {
					t.Fatal(err)
				}
			}
			addrA := st.Log().UsedWords()
			addrB := addrA + w

			parked, bDurable, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
			st.Log().SetAppendHook(func(stage vlog.AppendStage, addr int64) {
				switch {
				case stage == tc.park && addr == addrA:
					close(parked)
					<-release
				case stage == vlog.StageHeaderDurable && addr == addrB:
					close(bDurable)
				}
			})
			done := make(chan error, 2)
			put := func(i int) {
				ps := st.NewSession()
				defer ps.Close()
				done <- ps.Put(key(i), val(i, valLen))
			}
			go put(preload) // A
			<-parked
			go put(preload + 1) // B
			<-bDurable
			img := dev.PersistedImage() // EvictProb 0: exactly what a crash here leaves
			close(release)
			for i := 0; i < 2; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if err := st.AuditLiveness(); err != nil {
				t.Fatalf("the store that did not crash: %v", err)
			}
			st.Close()

			reopen := func(img []uint64) (*nvm.Device, *Store) {
				t.Helper()
				d, err := nvm.FromImage(cfg, img)
				if err != nil {
					t.Fatal(err)
				}
				st, err := Open(d, opts)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if err := st.AuditLiveness(); err != nil {
					t.Fatalf("after Open: %v", err)
				}
				return d, st
			}
			check := func(st *Store, present int, absent ...int) {
				t.Helper()
				s := st.NewSession()
				defer s.Close()
				for i := 0; i < present; i++ {
					if got, ok, err := s.Get(key(i)); err != nil || !ok || !bytes.Equal(got, val(i, valLen)) {
						t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
					}
				}
				for _, i := range absent {
					if _, ok, err := s.Get(key(i)); ok || err != nil {
						t.Fatalf("key %d, never acknowledged, reads ok=%v err=%v", i, ok, err)
					}
				}
			}

			dev2, st2 := reopen(img)
			if used := st2.Log().UsedWords(); used != tc.wantHead {
				t.Fatalf("recovered head %d, want %d", used, tc.wantHead)
			}
			if _, _, err := st2.Log().Read(dev2.NewHandle(), addrB); err != nil {
				t.Fatalf("B's record should sit valid on the device (the image this test is about): %v", err)
			}
			if _, _, err := st2.Log().Read(dev2.NewHandle(), addrA); (err == nil) != (tc.park == vlog.StageHeaderDurable) {
				t.Fatalf("A's record reads %v; want valid exactly when A parked after its header barrier", err)
			}
			check(st2, preload, preload, preload+1)
			scan := st2.NewSession()
			scan.ts.Scan(func(_ kv.Key, sv kv.Value) bool {
				if addr, _ := unpackPointer(sv); sv[0] == tagPointer && addr >= addrA {
					t.Fatalf("an index entry points at %d, at or beyond the first unacknowledged record (%d)", addr, addrA)
				}
				return true
			})
			scan.Close()

			// The next append lands on A's words; crash again without a Sync.
			s2 := st2.NewSession()
			if err := s2.Put(key(preload+2), val(preload+2, tc.nextLen)); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			if err := st2.AuditLiveness(); err != nil {
				t.Fatalf("after the post-recovery append: %v", err)
			}
			_, st3 := reopen(dev2.PersistedImage())
			defer st3.Close()
			if used := st3.Log().UsedWords(); used != tc.wantUsed {
				t.Fatalf("second recovery's head %d, want %d", used, tc.wantUsed)
			}
			check(st3, preload, preload, preload+1)
			s3 := st3.NewSession()
			defer s3.Close()
			if got, ok, err := s3.Get(key(preload + 2)); err != nil || !ok || !bytes.Equal(got, val(preload+2, tc.nextLen)) {
				t.Fatalf("the post-recovery key after the second crash: ok=%v err=%v", ok, err)
			}
			if live, want := st3.Log().LiveWords(), preload*w+vlog.RecordWords(tc.nextLen); live != want {
				t.Fatalf("%d live words after the second recovery, want %d", live, want)
			}
		})
	}
}

// TestAuditLivenessCoversBitmap: the audit must notice a liveness bit that
// disagrees with the index even when every counter is right — a stray bit
// (the collector would read a dead record) and a missing one (a live record
// the collector never moves, in a segment that never dies).
func TestAuditLivenessCoversBitmap(t *testing.T) {
	st := smallLogStore(t, 1024, 8, false)
	s := st.NewSession()
	defer s.Close()
	val := bytes.Repeat([]byte("a"), 100)
	w := vlog.RecordWords(len(val))
	for i := 0; i < 8; i++ {
		if err := s.Put([]byte(fmt.Sprintf("bm-%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite keys 0 and 1: the records at 0 and w are dead, 2w.. live.
	for i := 0; i < 2; i++ {
		if err := s.Put([]byte(fmt.Sprintf("bm-%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatalf("untouched store: %v", err)
	}
	log := st.Log()
	dead0, dead1, live0, live1 := int64(0), w, 2*w, 3*w

	log.AddLive(dead0, w)  // sets the dead record's bit, counter +w
	log.AddLive(dead1, -w) // its bit was clear already: counter back, bit stray
	if err := st.AuditLiveness(); err == nil || !strings.Contains(err.Error(), "no index entry points at") {
		t.Fatalf("stray bit: %v", err)
	}
	log.AddLive(dead0, -w)
	log.AddLive(live0, w)
	if err := st.AuditLiveness(); err != nil {
		t.Fatalf("bitmap restored: %v", err)
	}

	log.AddLive(live0, -w) // clears a live record's bit, counter -w
	log.AddLive(live1, w)  // its bit was set already: counter back, live0's bit missing
	if err := st.AuditLiveness(); err == nil || !strings.Contains(err.Error(), "liveness bit is clear") {
		t.Fatalf("missing bit: %v", err)
	}
	log.AddLive(live0, w)
	log.AddLive(dead1, -w)
	if err := st.AuditLiveness(); err != nil {
		t.Fatalf("bitmap restored: %v", err)
	}
}

// TestGCReadsLiveRecordsOnly: relocating a victim with k live of n records
// costs k record reads, not n — the pass walks the liveness bits instead of
// the segment — and the visited count the metrics carry says the same.
func TestGCReadsLiveRecordsOnly(t *testing.T) {
	const n, k = 64, 5 // 64 records of 16 words fill one 1024-word segment
	m := obs.New(obs.Config{})
	st := instrumentedSmallLogStore(t, 1024, 8, m, nil)
	s := st.NewSession()
	defer s.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("lv-%04d", i)) }
	val := func(i, gen int) []byte { return bytes.Repeat([]byte{byte(i + gen)}, 100) }
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := k; i < n; i++ { // segment 0 keeps keys 0..k-1
		if err := s.Put(key(i), val(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st.Log().SealActive(st.h)
	if live := st.Log().SegLive(0); live != k*vlog.RecordWords(100) {
		t.Fatalf("segment 0 holds %d live words, want %d records' worth", live, k)
	}

	g := st.gcs[0]
	before, base := g.h.Stats(), m.Snapshot()
	progress, err := st.GCOnce()
	if err != nil || !progress {
		t.Fatalf("GCOnce: progress=%v err=%v", progress, err)
	}
	if st.Log().State(0) != vlog.SegFree {
		t.Fatalf("segment 0 is %s after the pass, want free", st.Log().State(0))
	}
	if reads := g.h.Stats().Sub(before).ReadAccesses; reads != k {
		t.Fatalf("the pass read %d records for %d live of %d, want %d", reads, k, n, k)
	}
	d := m.Snapshot().Sub(base)
	if d.GCVisited != k || d.GCRelocations != k || d.GCRecycles != 1 {
		t.Fatalf("metrics: %d visited, %d relocated, %d recycled; want %d, %d, 1", d.GCVisited, d.GCRelocations, d.GCRecycles, k, k)
	}
	for i := 0; i < n; i++ {
		gen := 1
		if i < k {
			gen = 0
		}
		if got, ok, err := s.Get(key(i)); err != nil || !ok || !bytes.Equal(got, val(i, gen)) {
			t.Fatalf("key %d after the pass: ok=%v err=%v", i, ok, err)
		}
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}
