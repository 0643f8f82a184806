package bigkv

import (
	"bytes"
	"fmt"
	"testing"
)

// TestLoggedWriteBarrierCounts pins what a logged write costs the device, as
// counts: a value-log record commits through its index write's own barrier
// train — its body durable with the slot words at phase B, its header
// behind one barrier of its own (B′), then the index's commit word and, for
// an update, the old slot's clear. Flushes are dev.TotalFlushes (Flush calls
// plus drained barriers), fences the handles' Fence calls. Before the record
// rode the index's barriers its append paid two of its own (body, then
// header), and a recycle's zeroing paid one flush per 512-word chunk; the
// earlier counts are in the comments.
func TestLoggedWriteBarrierCounts(t *testing.T) {
	const segWords = 2048 // 128 records of 16 words
	st := smallLogStore(t, segWords, 8, false)
	s := st.NewSession()
	defer s.Close()
	dev, log, g := st.dev, st.Log(), st.gcs[0]
	key := func(p string, i int) []byte { return []byte(fmt.Sprintf("%s-%03d", p, i)) }
	val := func(gen int) []byte { return bytes.Repeat([]byte{byte(gen + 1)}, 100) } // 16 words a record
	put := func(k, v []byte) {
		t.Helper()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}

	// Segment 0: 128 records, then 127 of their keys rewritten inline, so
	// only r-000's record stays live there. The next logged write seals it
	// and activates segment 1.
	for i := 0; i < segWords/16; i++ {
		put(key("r", i), val(0))
	}
	for i := 1; i < segWords/16; i++ {
		put(key("r", i), []byte("inline"))
	}
	put(key("w", 0), val(0))
	for i := 0; i < 16; i++ {
		put(key("m", i), val(0))
	}
	mkeys, mvals := make([][]byte, 16), make([][]byte, 16)
	for i := range mkeys {
		mkeys[i], mvals[i] = key("m", i), val(1)
	}

	fences := func() uint64 { return s.NVMStats().Fences + g.sess.NVMStats().Fences + g.h.Stats().Fences }
	for _, c := range []struct {
		name            string
		run             func() error
		flushes, fences int64
	}{
		{"insert", func() error { return s.Put(key("x", 0), val(0)) }, 3, 3}, // was 4, 4
		{"update", func() error { return s.Put(key("x", 0), val(1)) }, 4, 4}, // was 5, 5
		{"delete", func() error { return s.Delete(key("x", 0)) }, 1, 1},      // was 1, 1
		{"multiput16", func() error { // was 5, 5
			for _, err := range s.MultiPut(mkeys, mvals) {
				if err != nil {
					return err
				}
			}
			return nil
		}, 4, 4},
		{"relocation", func() error { return g.relocate(0) }, 4, 4}, // was 5, 5
		// FREEING, the zeroing, head 0, FREE; the zeroing covers 2048 used
		// words in four chunks.
		{"recycle", func() error { return log.Recycle(g.h, 0) }, 4, 4}, // was 7, 4
	} {
		log.Sync(st.h) // no durable-head sync falls inside the measurement
		f0, n0 := dev.TotalFlushes(), fences()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if f, n := dev.TotalFlushes()-f0, int64(fences()-n0); f != c.flushes || n != c.fences {
			t.Errorf("%s: %d flushes / %d fences, want %d / %d", c.name, f, n, c.flushes, c.fences)
		}
	}
	if got := log.State(0).String(); got != "free" {
		t.Fatalf("segment 0 is %s after the recycle, want free", got)
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]byte{key("r", 0), key("m", 3)} {
		want := val(0)
		if k[0] == 'm' {
			want = val(1)
		}
		if got, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s after the sequence: ok=%v err=%v", k, ok, err)
		}
	}
}

// TestGroupRecordsSplitAcrossSegments: a write group whose records do not all
// fit the active segment commits in two trains — the records that fit first,
// then, after the log rolls, the rest — because a reservation that rolls
// waits for every earlier acknowledgment, the group's own included.
func TestGroupRecordsSplitAcrossSegments(t *testing.T) {
	st := smallLogStore(t, 1024, 8, false)
	s := st.NewSession()
	defer s.Close()
	dev, log := st.dev, st.Log()
	// 16-word records; 60 of them take 960 of segment 0's 1024 words.
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	for i := 0; i < 60; i++ {
		if err := s.Put([]byte(fmt.Sprintf("pre-%02d", i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	keys, vals := make([][]byte, 8), make([][]byte, 8)
	for i := range keys {
		keys[i], vals[i] = []byte(fmt.Sprintf("grp-%02d", i)), val(100+i)
	}
	log.Sync(st.h)
	f0 := dev.TotalFlushes()
	for i, err := range s.MultiPut(keys, vals) {
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
	}
	// Two trains of fresh inserts (B, B′, C each) around the roll's four
	// persists (head and SEALED, head 0 and ACTIVE).
	if f := dev.TotalFlushes() - f0; f != 3+4+3 {
		t.Fatalf("the split group cost %d flushes, want %d", f, 3+4+3)
	}
	if st0, used0, used1 := log.State(0).String(), log.SegUsed(0), log.SegUsed(1); st0 != "sealed" || used0 != 1024 || used1 != 4*16 {
		t.Fatalf("segment 0 %s with %d words, segment 1 %d words; want sealed 1024 and 64", st0, used0, used1)
	}
	for i := range keys {
		if got, ok, err := s.Get(keys[i]); err != nil || !ok || !bytes.Equal(got, vals[i]) {
			t.Fatalf("%s: ok=%v err=%v", keys[i], ok, err)
		}
	}
	if err := st.AuditLiveness(); err != nil {
		t.Fatal(err)
	}
}
