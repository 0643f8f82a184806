package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
)

func testKey(i int) kv.Key {
	k, err := kv.MakeKey([]byte(fmt.Sprintf("key-%08d", i)))
	if err != nil {
		panic(err)
	}
	return k
}

func logFixture(t *testing.T, segWords, numSegs int64) (*nvm.Device, *nvm.Handle, *Log) {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(segWords*numSegs + 8192))
	if err != nil {
		t.Fatal(err)
	}
	h := dev.NewHandle()
	l, err := Create(dev, h, segWords, numSegs)
	if err != nil {
		t.Fatal(err)
	}
	return dev, h, l
}

func strictLog(t *testing.T, segWords, numSegs int64) (*nvm.Device, *nvm.Handle, *Log) {
	t.Helper()
	cfg := nvm.StrictConfig(1 << 16)
	cfg.EvictProb = 0
	dev, err := nvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := dev.NewHandle()
	l, err := Create(dev, h, segWords, numSegs)
	if err != nil {
		t.Fatal(err)
	}
	return dev, h, l
}

func TestAppendReadRoundTrip(t *testing.T) {
	_, h, l := logFixture(t, 512, 8)
	payloads := [][]byte{
		[]byte("x"),
		[]byte("eight bb"),
		[]byte("a value longer than one word"),
		bytes.Repeat([]byte{0xab}, 1000),
	}
	addrs := make([]int64, len(payloads))
	for i, p := range payloads {
		addr, words, err := l.Append(h, testKey(i), p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := RecordWords(len(p)); words != want {
			t.Fatalf("append %d: %d words, want %d", i, words, want)
		}
		addrs[i] = addr
	}
	for i, p := range payloads {
		key, got, err := l.Read(h, addrs[i])
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if key != testKey(i) {
			t.Fatalf("record %d came back with the wrong key", i)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload %d mangled", i)
		}
	}
}

func TestAppendRejectsEmptyOversizedAndFull(t *testing.T) {
	_, h, l := logFixture(t, 64, 4)
	if _, _, err := l.Append(h, testKey(0), nil); err == nil {
		t.Fatal("empty append accepted")
	}
	// A value that cannot fit any segment is an error, not ErrLogFull.
	if _, _, err := l.Append(h, testKey(0), make([]byte, 1<<20)); err == nil || errors.Is(err, ErrLogFull) {
		t.Fatalf("oversized append: %v", err)
	}
	// Fill every non-reserved segment to the brim.
	var appends int
	for {
		if _, _, err := l.Append(h, testKey(appends), make([]byte, 64)); err != nil {
			if !errors.Is(err, ErrLogFull) {
				t.Fatalf("fill: %v", err)
			}
			break
		}
		appends++
	}
	if appends == 0 {
		t.Fatal("no append landed before ErrLogFull")
	}
	// The user-append reserve must leave exactly one free segment for GC,
	// and the GC's Reserve must be able to take it.
	if free := l.FreeSegments(); free != 1 {
		t.Fatalf("ErrLogFull with %d free segments, want the 1 GC reserve", free)
	}
	recs := []BatchRecord{{Key: testKey(appends), Value: make([]byte, 64)}}
	if _, err := l.Reserve(h, recs, false); !errors.Is(err, ErrLogFull) {
		t.Fatalf("Reserve into the GC reserve: %v, want ErrLogFull", err)
	}
	if n, err := l.Reserve(h, recs, true); err != nil || n != 1 {
		t.Fatalf("the GC could not use the reserve: %d, %v", n, err)
	}
	h.FlushBarrier()
	h.Fence()
	l.Publish(h, recs)
	if _, got, err := l.Read(h, recs[0].Addr); err != nil || len(got) != 64 {
		t.Fatalf("the GC-reserve record reads %d bytes, %v", len(got), err)
	}
	// The segment the GC took is its own: a user record that would fit there
	// is refused until a recycle refills the free list.
	small := []BatchRecord{{Key: testKey(appends + 1), Value: make([]byte, 8)}}
	if _, err := l.Reserve(h, small, false); !errors.Is(err, ErrLogFull) {
		t.Fatalf("Reserve in the GC's segment: %v, want ErrLogFull", err)
	}
	if _, _, err := l.Append(h, small[0].Key, small[0].Value); !errors.Is(err, ErrLogFull) {
		t.Fatalf("Append in the GC's segment: %v, want ErrLogFull", err)
	}
}

func TestSegmentLifecycleAndRecycle(t *testing.T) {
	_, h, l := logFixture(t, 64, 4)
	// Two records of 29 words each fill most of a 64-word segment.
	val := make([]byte, 208)
	var addrs []int64
	for i := 0; i < 4; i++ {
		addr, _, err := l.Append(h, testKey(i), val)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		addrs = append(addrs, addr)
	}
	seg0 := addrs[0] / l.SegmentWords()
	if st := l.State(seg0); st != SegSealed {
		t.Fatalf("first segment is %s, want sealed", st)
	}
	if got := l.FreeSegments(); got != 2 {
		t.Fatalf("%d free segments with one sealed and one active of 4, want 2", got)
	}
	// Still live: Recycle must refuse.
	if err := l.Recycle(h, seg0); !errors.Is(err, ErrSegmentLive) {
		t.Fatalf("recycled a live segment: %v", err)
	}
	// Kill the two records in segment 0 and recycle it.
	w := RecordWords(len(val))
	l.AddLive(addrs[0], -w)
	l.AddLive(addrs[1], -w)
	if err := l.Recycle(h, seg0); err != nil {
		t.Fatalf("recycle: %v", err)
	}
	if st := l.State(seg0); st != SegFree {
		t.Fatalf("recycled segment is %s, want free", st)
	}
	if l.Recycles() != 1 {
		t.Fatalf("recycles = %d, want 1", l.Recycles())
	}
	if got := l.FreeSegments(); got != 3 {
		t.Fatalf("%d free segments after the recycle, want 3", got)
	}
	// Reads into the recycled segment fail instead of returning stale data.
	if _, _, err := l.Read(h, addrs[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of recycled record: %v", err)
	}
	// The freed segment is reusable; later records still read back.
	for i := 4; i < 6; i++ {
		if _, _, err := l.Append(h, testKey(i), val); err != nil {
			t.Fatalf("append after recycle: %v", err)
		}
	}
	if _, got, err := l.Read(h, addrs[2]); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("surviving record mangled: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	dev, h, l := logFixture(t, 512, 4)
	addr, _, err := l.Append(h, testKey(1), []byte("precious bytes here"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Read(h, -1); err == nil {
		t.Fatal("negative address accepted")
	}
	if _, _, err := l.Read(h, l.Capacity()); err == nil {
		t.Fatal("out-of-range address accepted")
	}
	// Flip a payload bit: checksum must catch it.
	off := l.dataOff(addr) + recordHeaderWords
	dev.Store(off, dev.Load(off)^1)
	if _, _, err := l.Read(h, addr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt payload read: %v", err)
	}
	// A flipped key bit must be caught too — the checksum covers the key.
	dev.Store(off, dev.Load(off)^1) // restore payload
	dev.Store(l.dataOff(addr)+1, dev.Load(l.dataOff(addr)+1)^1)
	if _, _, err := l.Read(h, addr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt key read: %v", err)
	}
}

func TestOpenRecoversCommittedTail(t *testing.T) {
	dev, h, l := strictLog(t, 1024, 4)
	var addrs []int64
	for i := 0; i < 50; i++ {
		addr, _, err := l.Append(h, testKey(i), []byte(fmt.Sprintf("record-%02d-with-some-padding", i)))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	// No Sync: the durable head is stale. Crash and reopen; the forward
	// scan must find every committed record.
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev, h, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if l2.UsedWords() != l.UsedWords() {
		t.Fatalf("recovered head %d, want %d", l2.UsedWords(), l.UsedWords())
	}
	for i, addr := range addrs {
		key, got, err := l2.Read(h, addr)
		if err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
		if key != testKey(i) || string(got) != fmt.Sprintf("record-%02d-with-some-padding", i) {
			t.Fatalf("record %d mangled after recovery", i)
		}
	}
	// New appends must land after the recovered tail, not overwrite it.
	addr, _, err := l2.Append(h, testKey(999), []byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range addrs {
		if addr == old {
			t.Fatalf("post-recovery append at %d overlaps recovered data", addr)
		}
	}
}

func TestOpenRecoversEveryState(t *testing.T) {
	dev, h, l := strictLog(t, 64, 4)
	val := make([]byte, 208) // 29 words: two per segment
	// Segment A: sealed, fully dead, recycled → FREE.
	a0, w, err := l.Append(h, testKey(0), val)
	if err != nil {
		t.Fatal(err)
	}
	a1, _, err := l.Append(h, testKey(1), val)
	if err != nil {
		t.Fatal(err)
	}
	l.SealActive(h)
	// Segment B: sealed with survivors.
	b0, _, err := l.Append(h, testKey(2), val)
	if err != nil {
		t.Fatal(err)
	}
	l.SealActive(h)
	// Segment C: active.
	c0, _, err := l.Append(h, testKey(3), []byte("active tail"))
	if err != nil {
		t.Fatal(err)
	}
	// Recycle A last so no later append reuses it before the crash.
	l.AddLive(a0, -w)
	l.AddLive(a1, -w)
	if err := l.Recycle(h, a0/l.SegmentWords()); err != nil {
		t.Fatal(err)
	}
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev, h, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.State(a0 / l.SegmentWords()); st != SegFree {
		t.Fatalf("recycled segment recovered as %s", st)
	}
	if st := l2.State(b0 / l.SegmentWords()); st != SegSealed {
		t.Fatalf("sealed segment recovered as %s", st)
	}
	if st := l2.State(c0 / l.SegmentWords()); st != SegActive {
		t.Fatalf("active segment recovered as %s", st)
	}
	if _, got, err := l2.Read(h, b0); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("sealed record lost: %v", err)
	}
	if _, got, err := l2.Read(h, c0); err != nil || string(got) != "active tail" {
		t.Fatalf("active record lost: %v", err)
	}
	// Liveness starts at zero after Open; the owner rebuilds it.
	if l2.LiveWords() != 0 {
		t.Fatalf("liveness %d after Open, want 0", l2.LiveWords())
	}
	if got := l2.FreeSegments(); got != 2 {
		t.Fatalf("%d free segments after Open, want 2 (the recycled one and the never-used one)", got)
	}
	// Covers: what the owner checks each index pointer against while it
	// rebuilds liveness. Committed records pass; FREE space, the words past
	// the active head and addresses outside the log do not.
	cw := RecordWords(len("active tail"))
	for _, tc := range []struct {
		name        string
		addr, words int64
		want        bool
	}{
		{"sealed record", b0, w, true},
		{"active record", c0, cw, true},
		{"recycled segment", a0, w, false},
		{"past the sealed head", b0 + w, w, false},
		{"straddling the active head", c0 + 1, cw, false},
		{"shorter than a record header", b0, 2, false},
		{"negative address", -1, w, false},
		{"past the log", l2.Capacity(), w, false},
	} {
		if got := l2.Appended().Covers(tc.addr, tc.words); got != tc.want {
			t.Errorf("Covers(%d, %d) [%s] = %v, want %v", tc.addr, tc.words, tc.name, got, tc.want)
		}
	}
}

// TestReadChargesEachBlockOnce: a record costs the media blocks it spans —
// the header's block once, not once for the header word and again for the
// key behind it.
func TestReadChargesEachBlockOnce(t *testing.T) {
	_, h, l := logFixture(t, 256, 4)
	val := make([]byte, 100) // 16 words a record: addresses 0, 16, 32, 48 ...
	var addrs []int64
	for i := 0; i < 2; i++ {
		addr, _, err := l.Append(h, testKey(i), val)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	// After a 24-word filler the next record starts at 56 and straddles
	// blocks 1 and 2.
	if _, _, err := l.Append(h, testKey(2), make([]byte, 168)); err != nil {
		t.Fatal(err)
	}
	straddler, _, err := l.Append(h, testKey(3), val)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		addr   int64
		blocks uint64
	}{{addrs[0], 1}, {addrs[1], 1}, {straddler, 2}} {
		off := l.dataOff(tc.addr)
		if span := uint64((off+15)/nvm.BlockWords - off/nvm.BlockWords + 1); span != tc.blocks {
			t.Fatalf("record at %d spans %d blocks, the test wants one spanning %d", tc.addr, span, tc.blocks)
		}
		before := h.Stats()
		if _, _, err := l.Read(h, tc.addr); err != nil {
			t.Fatal(err)
		}
		d := h.Stats().Sub(before)
		if d.MediaBlockReads != tc.blocks || d.ReadAccesses != 1 || d.ReadWords != 16 {
			t.Errorf("Read of the record at %d charged %d blocks, %d accesses, %d words; want %d, 1, 16",
				tc.addr, d.MediaBlockReads, d.ReadAccesses, d.ReadWords, tc.blocks)
		}
	}
	// A header that fails validation still costs the block it sits in.
	before := h.Stats()
	if _, _, err := l.Read(h, straddler+16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read past the head: %v", err)
	}
	if d := h.Stats().Sub(before); d.MediaBlockReads != 1 {
		t.Errorf("rejected header charged %d blocks, want 1", d.MediaBlockReads)
	}
}

func TestOpenReZeroesFreeingSegment(t *testing.T) {
	dev, h, l := strictLog(t, 64, 4)
	val := make([]byte, 208)
	a0, w, err := l.Append(h, testKey(0), val)
	if err != nil {
		t.Fatal(err)
	}
	a1, _, err := l.Append(h, testKey(1), val)
	if err != nil {
		t.Fatal(err)
	}
	l.SealActive(h)
	seg := a0 / l.SegmentWords()
	l.AddLive(a0, -w)
	l.AddLive(a1, -w)
	// Simulate a crash mid-recycle: mark FREEING durably but leave the
	// record bytes in place.
	h.StorePersist(l.segStateOff(seg), uint64(SegFreeing))
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev, h, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.State(seg); st != SegFree {
		t.Fatalf("freeing segment recovered as %s, want free", st)
	}
	// The stale records must have been zeroed, not resurrected.
	if _, _, err := l2.Read(h, a0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stale record resurrected: %v", err)
	}
}

func TestOpenAfterTornAppend(t *testing.T) {
	dev, h, l := strictLog(t, 1024, 4)
	a0, _, err := l.Append(h, testKey(0), []byte("committed"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: payload written and flushed, crash before the
	// header persist.
	off := l.dataOff(l.UsedWords())
	dev.Store(off+1, 0xdeadbeef)
	h.Flush(off+1, 1)
	h.Fence()
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev, h, l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if l2.UsedWords() != l.UsedWords() {
		t.Fatalf("torn append advanced the head: %d vs %d", l2.UsedWords(), l.UsedWords())
	}
	if _, got, err := l2.Read(h, a0); err != nil || string(got) != "committed" {
		t.Fatalf("committed record lost: %q, %v", got, err)
	}
}

func TestOpenBadMagic(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(4096))
	if err != nil {
		t.Fatal(err)
	}
	h := dev.NewHandle()
	if _, err := Open(dev, h, 512); err == nil {
		t.Fatal("unformatted region opened as log")
	}
}

// scanAllSegments walks the committed records of every sealed and active
// segment through ScanSegment.
func scanAllSegments(l *Log, h *nvm.Handle, fn func(addr, words int64, key kv.Key, value []byte) bool) {
	for seg := int64(0); seg < l.Segments(); seg++ {
		if st := l.State(seg); st == SegSealed || st == SegActive {
			l.ScanSegment(h, seg, fn)
		}
	}
}

func TestScanSegmentWalksRecords(t *testing.T) {
	_, h, l := logFixture(t, 256, 4)
	want := map[int64]int{}
	for i := 0; i < 10; i++ {
		addr, _, err := l.Append(h, testKey(i), []byte(fmt.Sprintf("value-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want[addr] = i
	}
	seen := 0
	scanAllSegments(l, h, func(addr, words int64, key kv.Key, value []byte) bool {
		i, ok := want[addr]
		if !ok {
			t.Fatalf("scan surfaced unknown address %d", addr)
		}
		if key != testKey(i) || string(value) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("scan mangled record %d", i)
		}
		if words != RecordWords(len(value)) {
			t.Fatalf("scan reported %d words for record %d", words, i)
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("scan saw %d records, want %d", seen, len(want))
	}
}

func TestConcurrentAppends(t *testing.T) {
	dev, _, l := logFixture(t, 4096, 16)
	var wg sync.WaitGroup
	addrs := make([][]int64, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := dev.NewHandle()
			for i := 0; i < 200; i++ {
				addr, _, err := l.Append(h, testKey(w*1000+i), []byte(fmt.Sprintf("w%d-i%03d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				addrs[w] = append(addrs[w], addr)
			}
		}(w)
	}
	wg.Wait()
	h := dev.NewHandle()
	for w := range addrs {
		for i, addr := range addrs[w] {
			key, got, err := l.Read(h, addr)
			if err != nil || key != testKey(w*1000+i) || string(got) != fmt.Sprintf("w%d-i%03d", w, i) {
				t.Fatalf("worker %d record %d mangled: %q %v", w, i, got, err)
			}
		}
	}
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dev, h, l := logFixture(t, 1024, 8)
	recs := make([]BatchRecord, 32)
	for i := range recs {
		recs[i] = BatchRecord{Key: testKey(i), Value: []byte(fmt.Sprintf("batch-value-%02d-padded-out", i))}
	}
	f0 := dev.TotalFlushes()
	n, runs, err := l.AppendBatch(h, recs)
	batchFlushes := dev.TotalFlushes() - f0
	if err != nil || n != len(recs) {
		t.Fatalf("AppendBatch: n=%d runs=%d err=%v", n, runs, err)
	}
	if runs < 1 {
		t.Fatalf("runs = %d, want >= 1", runs)
	}
	var prevEnd int64 = -1
	for i := range recs {
		if want := RecordWords(len(recs[i].Value)); recs[i].Words != want {
			t.Fatalf("record %d: %d words, want %d", i, recs[i].Words, want)
		}
		if prevEnd >= 0 && recs[i].Addr != prevEnd {
			t.Fatalf("record %d at %d, want contiguous at %d", i, recs[i].Addr, prevEnd)
		}
		prevEnd = recs[i].Addr + recs[i].Words
		key, got, err := l.Read(h, recs[i].Addr)
		if err != nil || key != testKey(i) || !bytes.Equal(got, recs[i].Value) {
			t.Fatalf("record %d mangled: %q %v", i, got, err)
		}
	}
	// The whole point: far fewer barriers than 2 flushes per record.
	f1 := dev.TotalFlushes()
	for i := range recs {
		if _, _, err := l.Append(h, testKey(100+i), recs[i].Value); err != nil {
			t.Fatal(err)
		}
	}
	loopFlushes := dev.TotalFlushes() - f1
	if batchFlushes*2 > loopFlushes {
		t.Fatalf("batch took %d flushes vs %d looped: want >= 2x reduction", batchFlushes, loopFlushes)
	}
	// Accounting parity with per-record appends.
	var want int64
	for i := range recs {
		want += recs[i].Words
	}
	if live := l.SegLive(recs[0].Addr / l.SegmentWords()); live < want {
		t.Fatalf("live words %d, want >= %d", live, want)
	}
}

func TestAppendBatchSpansSegments(t *testing.T) {
	_, h, l := logFixture(t, 64, 8)
	// 29-word records: two fit per 64-word segment, so 8 records need 4
	// segments and at least 4 flush runs.
	val := make([]byte, 208)
	recs := make([]BatchRecord, 8)
	for i := range recs {
		recs[i] = BatchRecord{Key: testKey(i), Value: val}
	}
	n, runs, err := l.AppendBatch(h, recs)
	if err != nil || n != len(recs) {
		t.Fatalf("AppendBatch: n=%d err=%v", n, err)
	}
	if runs != 4 {
		t.Fatalf("runs = %d, want 4 (two records per segment)", runs)
	}
	for i := range recs {
		key, got, err := l.Read(h, recs[i].Addr)
		if err != nil || key != testKey(i) || !bytes.Equal(got, val) {
			t.Fatalf("record %d mangled across segment boundary: %v", i, err)
		}
	}
}

func TestAppendBatchPartialOnFull(t *testing.T) {
	_, h, l := logFixture(t, 64, 4)
	// 3 non-reserve segments x 2 records each = 6 records fit; ask for 10.
	val := make([]byte, 208)
	recs := make([]BatchRecord, 10)
	for i := range recs {
		recs[i] = BatchRecord{Key: testKey(i), Value: val}
	}
	n, _, err := l.AppendBatch(h, recs)
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("overfull batch: err=%v, want ErrLogFull", err)
	}
	if n != 6 {
		t.Fatalf("committed %d records, want 6", n)
	}
	// The committed prefix is durable and readable.
	for i := 0; i < n; i++ {
		key, got, err := l.Read(h, recs[i].Addr)
		if err != nil || key != testKey(i) || !bytes.Equal(got, val) {
			t.Fatalf("committed record %d mangled: %v", i, err)
		}
	}
	if free := l.FreeSegments(); free != 1 {
		t.Fatalf("ErrLogFull with %d free segments, want the 1 GC reserve", free)
	}
	// Rejections validate before touching the device.
	if _, _, err := l.AppendBatch(h, []BatchRecord{{Key: testKey(0)}}); err == nil {
		t.Fatal("empty value accepted")
	}
	if _, _, err := l.AppendBatch(h, []BatchRecord{{Key: testKey(0), Value: make([]byte, 1<<20)}}); err == nil || errors.Is(err, ErrLogFull) {
		t.Fatalf("oversized batch record: %v", err)
	}
	if n, runs, err := l.AppendBatch(h, nil); n != 0 || runs != 0 || err != nil {
		t.Fatalf("empty batch: n=%d runs=%d err=%v", n, runs, err)
	}
}

// TestAppendBatchTornGroupRecovery sweeps a crash over every flush boundary
// inside one AppendBatch and proves recovery always sees a clean prefix of
// the group: no lost committed records before the tear, no resurrected
// records after it, and the post-recovery log keeps working.
func TestAppendBatchTornGroupRecovery(t *testing.T) {
	const batch = 12
	build := func() (*nvm.Device, *nvm.Handle, *Log) {
		cfg := nvm.StrictConfig(1 << 16)
		cfg.EvictProb = 0
		cfg.Seed = 7
		dev, err := nvm.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := dev.NewHandle()
		l, err := Create(dev, h, 256, 6)
		if err != nil {
			t.Fatal(err)
		}
		// A committed pre-record so recovery always has a prefix to keep.
		if _, _, err := l.Append(h, testKey(1000), []byte("pre-batch record")); err != nil {
			t.Fatal(err)
		}
		return dev, h, l
	}
	payload := func(i int) []byte { return []byte(fmt.Sprintf("torn-group-record-%02d", i)) }
	mkRecs := func() []BatchRecord {
		recs := make([]BatchRecord, batch)
		for i := range recs {
			recs[i] = BatchRecord{Key: testKey(i), Value: payload(i)}
		}
		return recs
	}

	// Reference run: find the flush window of the batch append.
	refDev, refH, refL := build()
	f0 := refDev.TotalFlushes()
	refRecs := mkRecs()
	if n, _, err := refL.AppendBatch(refH, refRecs); err != nil || n != batch {
		t.Fatalf("reference batch: n=%d err=%v", n, err)
	}
	f1 := refDev.TotalFlushes()

	for f := int64(1); f <= f1-f0; f++ {
		dev, h, l := build()
		if err := dev.SetCrashAfterFlushes(f); err != nil {
			t.Fatal(err)
		}
		recs := mkRecs()
		if n, _, err := l.AppendBatch(h, recs); err != nil || n != batch {
			t.Fatalf("crash-point %d: batch n=%d err=%v", f, n, err)
		}
		img := dev.CrashImage()
		if img == nil {
			t.Fatalf("crash-point %d: no image armed", f)
		}
		cfg := nvm.StrictConfig(1 << 16)
		cfg.EvictProb = 0
		crashed, err := nvm.FromImage(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		ch := crashed.NewHandle()
		l2, err := Open(crashed, ch, l.Base())
		if err != nil {
			t.Fatalf("crash-point %d: Open: %v", f, err)
		}
		// Recovery must surface a strict prefix of the batch: record i is
		// readable only if every earlier record is.
		survived := 0
		for i := 0; i < batch; i++ {
			key, got, err := l2.Read(ch, recs[i].Addr)
			if err != nil {
				break
			}
			if key != testKey(i) || !bytes.Equal(got, payload(i)) {
				t.Fatalf("crash-point %d: record %d corrupted: %q", f, i, got)
			}
			survived++
		}
		for i := survived; i < batch; i++ {
			if _, _, err := l2.Read(ch, recs[i].Addr); err == nil {
				t.Fatalf("crash-point %d: record %d readable after gap at %d (resurrection hazard)", f, i, survived)
			}
		}
		// The recovered head must sit exactly at the end of the surviving
		// prefix so new appends cannot strand or overwrite anything.
		var wantUsed int64 = RecordWords(len("pre-batch record"))
		for i := 0; i < survived; i++ {
			wantUsed += recs[i].Words
		}
		if l2.UsedWords() != wantUsed {
			t.Fatalf("crash-point %d: recovered %d used words, want %d (survived %d)", f, l2.UsedWords(), wantUsed, survived)
		}
		// Post-recovery appends land after the prefix and scans stay clean.
		addr, _, err := l2.Append(ch, testKey(2000), []byte("post-recovery append"))
		if err != nil {
			t.Fatalf("crash-point %d: post-recovery append: %v", f, err)
		}
		seen := map[int64]bool{}
		scanAllSegments(l2, ch, func(a, _ int64, _ kv.Key, _ []byte) bool {
			seen[a] = true
			return true
		})
		if !seen[addr] {
			t.Fatalf("crash-point %d: post-recovery append invisible to scan", f)
		}
		for i := survived; i < batch; i++ {
			if recs[i].Addr != addr && seen[recs[i].Addr] {
				t.Fatalf("crash-point %d: scan resurrected torn record %d", f, i)
			}
		}
	}
}

func TestSyncAdvancesDurableHead(t *testing.T) {
	dev, h, l := logFixture(t, 512, 4)
	addr, words, err := l.Append(h, testKey(0), []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	l.Sync(h)
	seg := addr / l.SegmentWords()
	if got := int64(dev.Load(l.segHeadOff(seg))); got != addr%l.SegmentWords()+words {
		t.Fatalf("durable head %d, want %d", got, addr%l.SegmentWords()+words)
	}
}
