package vlog

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"hdnh/internal/kv"
)

// stageEvent is one append reaching one stage.
type stageEvent struct {
	stage AppendStage
	addr  int64
}

// stageGate is an append hook that reports every stage every append reaches
// and parks the appends it was told to until the test lets them go.
type stageGate struct {
	events chan stageEvent
	park   map[stageEvent]chan struct{} // fixed before the log sees traffic
}

func installGate(l *Log, park ...stageEvent) *stageGate {
	g := &stageGate{events: make(chan stageEvent, 256), park: map[stageEvent]chan struct{}{}}
	for _, ev := range park {
		g.park[ev] = make(chan struct{})
	}
	l.SetAppendHook(func(stage AppendStage, addr int64) {
		ev := stageEvent{stage, addr}
		g.events <- ev
		if ch := g.park[ev]; ch != nil {
			<-ch
		}
	})
	return g
}

func (g *stageGate) release(ev stageEvent) { close(g.park[ev]) }

// await blocks until an append reports ev. The timeout only turns a hang
// into a message: what the tests assert is the order of events, and an
// append that queues where it should not never sends the one awaited.
func (g *stageGate) await(t *testing.T, ev stageEvent) {
	t.Helper()
	timeout := time.After(20 * time.Second)
	for {
		select {
		case got := <-g.events:
			if got == ev {
				return
			}
		case <-timeout:
			t.Fatalf("no append reached stage %d at address %d", ev.stage, ev.addr)
		}
	}
}

// awaitAckWaits blocks until n appends are waiting for (or have waited for)
// their acknowledgment. It yields: at GOMAXPROCS 1 the appends need this P.
func awaitAckWaits(l *Log, n int64) {
	for l.AckWaits() < n {
		runtime.Gosched()
	}
}

// TestFillIsNotSerialized pins what taking the device waits out of the mutex
// is for, by the order of events and not by a clock: while writer A sits in
// its fill, writer B reserves behind it, fills and persists its own header —
// at the parent commit B queued on the mutex until A returned — and yet B
// does not return, and nothing it wrote is accounted, until A does. The
// same for AppendBatch runs, and for a roll, which has to wait out the
// reservation in flight before it seals the segment.
func TestFillIsNotSerialized(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 100) // 16 words a record
	const w = 16

	t.Run("append", func(t *testing.T) {
		dev, _, l := logFixture(t, 1024, 4)
		parkA := stageEvent{StageReserved, 0}
		g := installGate(l, parkA)
		type result struct {
			addr int64
			err  error
		}
		doneA, doneB := make(chan result, 1), make(chan result, 1)
		go func() {
			addr, _, err := l.Append(dev.NewHandle(), testKey(0), val)
			doneA <- result{addr, err}
		}()
		g.await(t, parkA)
		go func() {
			addr, _, err := l.Append(dev.NewHandle(), testKey(1), val)
			doneB <- result{addr, err}
		}()
		g.await(t, stageEvent{StageHeaderDurable, w})
		awaitAckWaits(l, 1)
		// B's header is on the device behind A's hole; B has not returned and
		// none of its words count yet.
		if dev.Load(l.dataOff(w)) == 0 || dev.Load(l.dataOff(0)) != 0 {
			t.Fatalf("headers on the device: A %#x, B %#x; want A zero, B set", dev.Load(l.dataOff(0)), dev.Load(l.dataOff(w)))
		}
		select {
		case r := <-doneB:
			t.Fatalf("B returned (%d, %v) while the reservation before it was unacknowledged", r.addr, r.err)
		default:
		}
		if l.UsedWords() != 0 || l.LiveWords() != 0 || l.AppendedWords() != 0 {
			t.Fatalf("accounted %d used, %d live, %d appended words before A acknowledged", l.UsedWords(), l.LiveWords(), l.AppendedWords())
		}
		g.release(parkA)
		ra, rb := <-doneA, <-doneB
		if ra.err != nil || rb.err != nil || ra.addr != 0 || rb.addr != w {
			t.Fatalf("A = (%d, %v), B = (%d, %v); want addresses 0 and %d", ra.addr, ra.err, rb.addr, rb.err, w)
		}
		if l.UsedWords() != 2*w || l.LiveWords() != 2*w || l.AckWaits() != 1 {
			t.Fatalf("after both: %d used, %d live words, %d ack waits; want %d, %d, 1", l.UsedWords(), l.LiveWords(), l.AckWaits(), 2*w, 2*w)
		}
		h := dev.NewHandle()
		for i, addr := range []int64{0, w} {
			if key, got, err := l.Read(h, addr); err != nil || key != testKey(i) || !bytes.Equal(got, val) {
				t.Fatalf("record %d mangled: %v", i, err)
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		dev, _, l := logFixture(t, 1024, 4)
		parkA := stageEvent{StageReserved, 0}
		g := installGate(l, parkA)
		mkRecs := func(base int) []BatchRecord {
			recs := make([]BatchRecord, 3)
			for i := range recs {
				recs[i] = BatchRecord{Key: testKey(base + i), Value: val}
			}
			return recs
		}
		recsA, recsB := mkRecs(0), mkRecs(10)
		doneA, doneB := make(chan error, 1), make(chan error, 1)
		go func() {
			_, _, err := l.AppendBatch(dev.NewHandle(), recsA)
			doneA <- err
		}()
		g.await(t, parkA)
		go func() {
			_, _, err := l.AppendBatch(dev.NewHandle(), recsB)
			doneB <- err
		}()
		g.await(t, stageEvent{StageHeaderDurable, 3 * w})
		awaitAckWaits(l, 1)
		select {
		case err := <-doneB:
			t.Fatalf("B's run returned (%v) while A's run was unacknowledged", err)
		default:
		}
		if l.UsedWords() != 0 {
			t.Fatalf("%d used words before A's run acknowledged", l.UsedWords())
		}
		g.release(parkA)
		if errA, errB := <-doneA, <-doneB; errA != nil || errB != nil {
			t.Fatalf("batches: %v, %v", errA, errB)
		}
		h := dev.NewHandle()
		for i, rec := range append(recsA, recsB...) {
			if rec.Addr != int64(i)*w {
				t.Fatalf("record %d at %d, want %d", i, rec.Addr, int64(i)*w)
			}
			if key, got, err := l.Read(h, rec.Addr); err != nil || key != rec.Key || !bytes.Equal(got, val) {
				t.Fatalf("record %d mangled: %v", i, err)
			}
		}
		if l.UsedWords() != 6*w || l.LiveWords() != 6*w {
			t.Fatalf("%d used, %d live words; want %d", l.UsedWords(), l.LiveWords(), 6*w)
		}
	})

	t.Run("roll", func(t *testing.T) {
		// 40-word segments hold two 16-word records: A takes the second slot
		// of segment 0 and parks; B does not fit and must roll, and the roll
		// must not seal segment 0 around A's unacknowledged words.
		dev, h, l := logFixture(t, 40, 4)
		if _, _, err := l.Append(h, testKey(0), val); err != nil {
			t.Fatal(err)
		}
		parkA := stageEvent{StagePayloadDurable, w}
		g := installGate(l, parkA)
		doneA, doneB := make(chan error, 1), make(chan int64, 1)
		go func() {
			_, _, err := l.Append(dev.NewHandle(), testKey(1), val)
			doneA <- err
		}()
		g.await(t, parkA)
		go func() {
			addr, _, err := l.Append(dev.NewHandle(), testKey(2), val)
			if err != nil {
				addr = -1
			}
			doneB <- addr
		}()
		// B is inside roll once it holds the mutex for good: the critical
		// section of a plain reservation is over in no time, a roll's lasts
		// until A is acknowledged.
		for held := 0; held < 1000; {
			select {
			case addr := <-doneB:
				t.Fatalf("B returned address %d while A was unacknowledged", addr)
			default:
			}
			if l.mu.TryLock() {
				l.mu.Unlock()
				held = 0
			} else {
				held++
			}
			runtime.Gosched()
		}
		if st := l.State(0); st != SegActive {
			t.Fatalf("segment 0 is %s with a reservation in flight, want active", st)
		}
		g.release(parkA)
		if err := <-doneA; err != nil {
			t.Fatal(err)
		}
		if addr := <-doneB; addr/l.SegmentWords() == 0 || addr%l.SegmentWords() != 0 {
			t.Fatalf("B landed at %d, want the start of a fresh segment", addr)
		}
		if st, used := l.State(0), l.SegUsed(0); st != SegSealed || used != 2*w {
			t.Fatalf("segment 0 is %s with %d words, want sealed with %d", st, used, 2*w)
		}
		if head := int64(dev.Load(l.segHeadOff(0))); head != 2*w {
			t.Fatalf("sealed segment's durable head %d, want %d", head, 2*w)
		}
		seen := 0
		l.ScanSegment(h, 0, func(int64, int64, kv.Key, []byte) bool { seen++; return true })
		if seen != 2 {
			t.Fatalf("sealed segment scans %d records, want 2", seen)
		}
	})
}

// TestConcurrentAppendsAcknowledgePrefix hammers one log from several
// appenders (solo and batched, through many rolls) and checks what the
// acknowledgment order promises: every returned record reads back, each
// sealed segment is a gapless run of exactly its accounted words, and the
// liveness bits are the returned addresses.
func TestConcurrentAppendsAcknowledgePrefix(t *testing.T) {
	const workers, perWorker = 4, 300
	dev, h, l := logFixture(t, 512, 64)
	type rec struct {
		addr int64
		key  int
		n    int
	}
	out := make([][]rec, workers)
	done := make(chan struct{})
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer func() { done <- struct{}{} }()
			h := dev.NewHandle()
			val := func(i int) []byte { return bytes.Repeat([]byte{byte(wk), byte(i)}, 5+i%40) }
			for i := 0; i < perWorker; {
				if wk%2 == 1 && i+4 <= perWorker {
					recs := make([]BatchRecord, 4)
					for j := range recs {
						recs[j] = BatchRecord{Key: testKey(wk*1000 + i + j), Value: val(i + j)}
					}
					if n, _, err := l.AppendBatch(h, recs); err != nil || n != len(recs) {
						t.Errorf("worker %d batch: n=%d err=%v", wk, n, err)
						return
					}
					for j := range recs {
						out[wk] = append(out[wk], rec{recs[j].Addr, wk*1000 + i + j, i + j})
					}
					i += 4
					continue
				}
				addr, _, err := l.Append(h, testKey(wk*1000+i), val(i))
				if err != nil {
					t.Errorf("worker %d append: %v", wk, err)
					return
				}
				out[wk] = append(out[wk], rec{addr, wk*1000 + i, i})
				i++
			}
		}(wk)
	}
	for wk := 0; wk < workers; wk++ {
		<-done
	}
	if t.Failed() {
		t.FailNow()
	}
	returned := map[int64]bool{}
	for wk := range out {
		for _, r := range out[wk] {
			key, got, err := l.Read(h, r.addr)
			want := bytes.Repeat([]byte{byte(wk), byte(r.n)}, 5+r.n%40)
			if err != nil || key != testKey(r.key) || !bytes.Equal(got, want) {
				t.Fatalf("worker %d record %d at %d mangled: %v", wk, r.n, r.addr, err)
			}
			returned[r.addr] = true
		}
	}
	var liveBits int
	for seg := int64(0); seg < l.Segments(); seg++ {
		l.VisitLive(seg, func(addr int64) bool {
			if !returned[addr] {
				t.Errorf("liveness bit at %d, which no append returned", addr)
			}
			liveBits++
			return true
		})
		if st := l.State(seg); st != SegSealed && st != SegActive {
			continue
		}
		var walked int64
		l.ScanSegment(h, seg, func(_, words int64, _ kv.Key, _ []byte) bool {
			walked += words
			return true
		})
		if walked != l.SegUsed(seg) || l.SegLive(seg) != walked {
			t.Errorf("segment %d: walk finds %d words, %d accounted, %d live", seg, walked, l.SegUsed(seg), l.SegLive(seg))
		}
	}
	if liveBits != len(returned) || len(returned) != workers*perWorker {
		t.Fatalf("%d liveness bits, %d distinct addresses, want %d", liveBits, len(returned), workers*perWorker)
	}
}
