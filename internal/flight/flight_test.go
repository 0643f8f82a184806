package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"hdnh/internal/obs"
)

func TestRingRecordAndSnapshot(t *testing.T) {
	r := New(Config{RingEvents: 64, SlowOpThreshold: -1})
	tr := r.Handle("session")

	begin := tr.OpBegin(obs.OpGet)
	if begin == 0 {
		t.Fatal("OpBegin returned 0 for a sampled op")
	}
	tr.Probe(7, 2, 3)
	tr.OpEnd(obs.OpGet, obs.OutNVTHit, begin)
	tr.HotFill(true)
	tr.HotEvict()
	tr.DrainChunk(128, 40, 5*time.Microsecond)
	tr.ResizeSwap(3, time.Microsecond)
	tr.ResizeDone(4, time.Millisecond)
	tr.GCPhase(GCRewrite, 9, 2*time.Microsecond, 11)
	tr.VLogSeg(2, 5)
	tr.RecoveryStep(RecOCF, 3*time.Microsecond, 1000)
	tr.GroupCommit(64, 4*time.Microsecond)

	d := r.Snapshot()
	if len(d.Rings) != 1 || d.Rings[0].Label != "session" {
		t.Fatalf("rings = %+v", d.Rings)
	}
	want := []Kind{
		KindOpBegin, KindProbe, KindRescan, KindLockSpin, KindOpEnd,
		KindHotFill, KindHotEvict, KindDrainChunk, KindResizeSwap,
		KindResizeDone, KindGCPhase, KindVLogSeg, KindRecoveryStep,
		KindGroupCommit,
	}
	if len(d.Events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(d.Events), len(want), d.Events)
	}
	for i, k := range want {
		if d.Events[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, d.Events[i].Kind, k)
		}
	}
	end := d.Events[4]
	if obs.Op(end.A) != obs.OpGet || obs.Outcome(end.B) != obs.OutNVTHit {
		t.Fatalf("op-end decoded as %v/%v", obs.Op(end.A), obs.Outcome(end.B))
	}
	if end.Args[0] == 0 {
		t.Fatal("op-end carries no duration")
	}
	gc := d.Events[10]
	if GCPhase(gc.A) != GCRewrite || gc.Args[1] != 9 || gc.Args[2] != 11 {
		t.Fatalf("gc-phase decoded as %+v", gc)
	}
	grp := d.Events[13]
	if grp.Args[1] != 64 || grp.Args[0] == 0 {
		t.Fatalf("group-commit decoded as %+v", grp)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(Config{RingEvents: 16, SlowOpThreshold: -1})
	tr := r.Handle("w")
	for i := 0; i < 100; i++ {
		tr.VLogSeg(1, int64(i))
	}
	d := r.Snapshot()
	if len(d.Events) != 16 {
		t.Fatalf("got %d events after wrap, want 16", len(d.Events))
	}
	for i, ev := range d.Events {
		if want := uint64(100 - 16 + i); ev.Args[0] != want {
			t.Fatalf("event %d segment = %d, want %d", i, ev.Args[0], want)
		}
	}
}

func TestSampling(t *testing.T) {
	r := New(Config{RingEvents: 256, SampleEvery: 8, SlowOpThreshold: -1})
	tr := r.Handle("s")
	for i := 0; i < 64; i++ {
		b := tr.OpBegin(obs.OpInsert)
		tr.Probe(1, 1, 1) // must be dropped outside sampled ops
		tr.OpEnd(obs.OpInsert, obs.OutOK, b)
	}
	d := r.Snapshot()
	var begins, ends, probes int
	for _, ev := range d.Events {
		switch ev.Kind {
		case KindOpBegin:
			begins++
		case KindOpEnd:
			ends++
		case KindProbe:
			probes++
		}
	}
	if begins != 8 || ends != 8 {
		t.Fatalf("sampled %d begins / %d ends, want 8/8", begins, ends)
	}
	if probes != 8 {
		t.Fatalf("probe events = %d, want 8 (only inside sampled ops)", probes)
	}
}

func TestSlowOpCapturePromotesWindow(t *testing.T) {
	r := New(Config{RingEvents: 64, SlowOpThreshold: 1, SlowOpKeep: 4})
	tr := r.Handle("s")
	// Background noise before the op must stay out of the window.
	tr.VLogSeg(1, 99)
	b := tr.OpBegin(obs.OpGet)
	tr.Probe(5, 2, 0)
	time.Sleep(50 * time.Microsecond) // guarantee dur >= 1ns threshold
	tr.OpEnd(obs.OpGet, obs.OutMiss, b)

	slow := r.SlowOps()
	if len(slow) != 1 {
		t.Fatalf("retained %d slow ops, want 1", len(slow))
	}
	so := slow[0]
	if so.Op != obs.OpGet || so.Out != obs.OutMiss || so.Dur <= 0 {
		t.Fatalf("slow op = %+v", so)
	}
	kinds := map[Kind]int{}
	for _, ev := range so.Events {
		kinds[ev.Kind]++
		if ev.Kind == KindVLogSeg {
			t.Fatal("pre-op event leaked into the slow-op window")
		}
	}
	if kinds[KindOpBegin] != 1 || kinds[KindProbe] != 1 || kinds[KindRescan] != 1 || kinds[KindOpEnd] != 1 {
		t.Fatalf("window kinds = %v", kinds)
	}

	// The buffer is bounded: overflow drops the oldest.
	for i := 0; i < 10; i++ {
		b := tr.OpBegin(obs.OpDelete)
		tr.OpEnd(obs.OpDelete, obs.OutOK, b)
	}
	slow = r.SlowOps()
	if len(slow) != 4 {
		t.Fatalf("retained %d slow ops, want cap 4", len(slow))
	}
	for _, so := range slow {
		if so.Op != obs.OpDelete {
			t.Fatalf("oldest entries not dropped: %+v", so)
		}
	}
	if r.SlowOpsSeen() != 11 {
		t.Fatalf("SlowOpsSeen = %d, want 11", r.SlowOpsSeen())
	}
}

// TestOverlappedOpEndReturnsDuration pins OpEnd on a span a later OpBegin
// took over (a write group begins every write before any ends): it emits
// nothing, yet still returns the op's duration for the metrics latency.
func TestOverlappedOpEndReturnsDuration(t *testing.T) {
	r := New(Config{RingEvents: 64, SlowOpThreshold: -1})
	tr := r.Handle("s")
	b1 := tr.OpBegin(obs.OpInsert)
	b2 := tr.OpBegin(obs.OpInsert)
	time.Sleep(time.Microsecond)
	if d := tr.OpEnd(obs.OpInsert, obs.OutOK, b1); d <= 0 {
		t.Fatalf("first end duration = %d, want > 0", d)
	}
	if d := tr.OpEnd(obs.OpInsert, obs.OutOK, b2); d <= 0 {
		t.Fatalf("second end duration = %d, want > 0", d)
	}
	var begins, ends int
	for _, ev := range r.Snapshot().Events {
		switch ev.Kind {
		case KindOpBegin:
			begins++
		case KindOpEnd:
			ends++
		}
	}
	if begins != 2 || ends != 1 {
		t.Fatalf("%d begins / %d ends, want 2/1 (one open span per handle)", begins, ends)
	}
}

func TestNilRecorderIsNop(t *testing.T) {
	var r *Recorder
	tr := r.Handle("x")
	if tr != nil {
		t.Fatalf("nil recorder handle = %v, want nil", tr)
	}
	tr.BindNVM(nil)
	if b := tr.OpBegin(obs.OpGet); b != 0 {
		t.Fatalf("nil handle OpBegin = %d", b)
	}
	if d := tr.OpEnd(obs.OpGet, obs.OutOK, 1); d != 0 {
		t.Fatalf("nil handle OpEnd = %d", d)
	}
	tr.Probe(1, 1, 1)
	tr.HotFill(true)
	tr.RecoveryStep(RecScan, time.Second, 1)
	if d := r.Snapshot(); len(d.Events) != 0 || len(d.Rings) != 0 {
		t.Fatalf("nil recorder snapshot = %+v", d)
	}
	if r.SlowOps() != nil || r.SlowOpsSeen() != 0 {
		t.Fatal("nil recorder retained slow ops")
	}
}

// TestConcurrentEmitAndSnapshot hammers one shared ring from several writers
// while a reader snapshots continuously: under -race this pins the seqlock
// protocol, and the assertions pin that accepted events are never torn
// (every accepted event must be internally consistent).
func TestConcurrentEmitAndSnapshot(t *testing.T) {
	r := New(Config{RingEvents: 128, SlowOpThreshold: -1})
	tr := r.Handle("shared")

	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Args encode a checksum so a torn event is detectable.
				v := uint64(w)<<32 | uint64(i)
				tr.rg.emit(int64(v), KindVLogSeg, 1, 0, v, v^0xABCD, v+1, v^0x1234)
			}
		}(w)
	}
	var snapshots int
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := r.Snapshot()
			snapshots++
			for _, ev := range d.Events {
				v := ev.Args[0]
				if ev.Args[1] != v^0xABCD || ev.Args[2] != v+1 || ev.Args[3] != v^0x1234 || ev.TS != int64(v) {
					t.Errorf("torn event accepted: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	d := r.Snapshot()
	if len(d.Events) != 128 {
		t.Fatalf("final snapshot has %d events, want full ring 128", len(d.Events))
	}
}

// TestWriteChromeTrace pins the one file format the recorder exports: the
// output parses as JSON, every ring is declared as a named thread, and every
// complete ("X") span has a non-negative duration on a declared thread —
// written even when it is zero, as the drain chunk's is here.
func TestWriteChromeTrace(t *testing.T) {
	r := New(Config{RingEvents: 64, SlowOpThreshold: -1})
	tr := r.Handle("session")
	bg := r.Handle("table")
	b := tr.OpBegin(obs.OpGet)
	tr.OpEnd(obs.OpGet, obs.OutHotHit, b)
	tr.GCPhase(GCCopy, 1, time.Microsecond, 5)
	tr.RecoveryStep(RecReplay, time.Microsecond, 1)
	bg.DrainChunk(64, 10, 0)
	bg.HotEvict()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var tr2 struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr2); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	threads := map[float64]bool{}
	for _, ev := range tr2.TraceEvents {
		names[ev["name"].(string)] = true
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			threads[ev["tid"].(float64)] = true
		}
	}
	if len(threads) != 2 {
		t.Fatalf("thread_name declares %d threads, want one per ring (2)", len(threads))
	}
	for _, want := range []string{"get", "gc-copy", "recovery-replay", "drain-chunk"} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q (have %v)", want, names)
		}
	}
	spans := 0
	for _, ev := range tr2.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		spans++
		if d, isNum := ev["dur"].(float64); !isNum || d < 0 {
			t.Fatalf("span %v has dur %v, want a number >= 0", ev["name"], ev["dur"])
		}
		if tid, ok := ev["tid"].(float64); !ok || !threads[tid] {
			t.Fatalf("span %v on tid %v, which no thread_name declares", ev["name"], ev["tid"])
		}
		if ev["name"] == "get" {
			args := ev["args"].(map[string]any)
			if args["outcome"] != "hot_hit" {
				t.Fatalf("get span args = %v", args)
			}
		}
	}
	if spans < 4 {
		t.Fatalf("chrome trace holds %d spans, want >= 4", spans)
	}
}

func TestWriteText(t *testing.T) {
	r := New(Config{RingEvents: 64, SlowOpThreshold: 1})
	tr := r.Handle("session")
	b := tr.OpBegin(obs.OpGet)
	tr.Probe(0, 4, 0)
	time.Sleep(10 * time.Microsecond)
	tr.OpEnd(obs.OpGet, obs.OutMiss, b)
	tr.DrainChunk(32, 8, time.Microsecond)

	var buf bytes.Buffer
	if err := WriteText(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"flight dump: 1 rings",
		"get miss",
		"movement-hazard rescans=4",
		"drain chunk: 32 buckets",
		"slow ops",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}
}
