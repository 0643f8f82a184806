package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"hdnh/internal/nvm"
)

func TestCountersSumAcrossHandles(t *testing.T) {
	m := New(Config{SampleEvery: 1})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Handle()
			for i := 0; i < per; i++ {
				h.Op(OpGet, OutNVTHit, -1)
				h.Probe(2, 3, 1)
				h.Contended()
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if got := s.Ops[OpGet][OutNVTHit]; got != workers*per {
		t.Fatalf("nvt_hit count = %d, want %d", got, workers*per)
	}
	if s.LookupRescans != 2*workers*per || s.NVTProbes != 3*workers*per || s.Spins != workers*per {
		t.Fatalf("probe counters wrong: %+v", s)
	}
	if s.Contended != workers*per {
		t.Fatalf("contended = %d", s.Contended)
	}
}

func TestLatencySampling(t *testing.T) {
	m := New(Config{SampleEvery: 4})
	h := m.Handle()
	sampled := 0
	for i := 0; i < 100; i++ {
		ns := int64(-1)
		if h.Sample() {
			sampled++
			ns = 100
		}
		h.Op(OpGet, OutHotHit, ns)
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at 1/4", sampled)
	}
	s := m.Snapshot()
	if s.Ops[OpGet][OutHotHit] != 100 {
		t.Fatalf("counter must be exact, got %d", s.Ops[OpGet][OutHotHit])
	}
	if s.Latency[OpGet][OutHotHit].Sampled != 25 {
		t.Fatalf("latency sampled = %d, want 25", s.Latency[OpGet][OutHotHit].Sampled)
	}
}

func TestAtomicHistQuantiles(t *testing.T) {
	var a AtomicHist
	for i := int64(1); i <= 1000; i++ {
		a.Record(i * 1000) // 1µs .. 1ms
	}
	h := a.Snapshot()
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Percentile(50)
	// Bounded relative error: the histogram reports bucket upper bounds.
	if p50 < 450_000 || p50 > 600_000 {
		t.Fatalf("p50 = %d outside [450µs, 600µs]", p50)
	}
}

func TestSnapshotSub(t *testing.T) {
	m := New(Config{SampleEvery: 1})
	h := m.Handle()
	h.Op(OpInsert, OutOK, -1)
	h.AddNVM(nvm.Stats{ReadWords: 10})
	base := m.Snapshot()
	h.Op(OpInsert, OutOK, -1)
	h.Op(OpInsert, OutOK, -1)
	h.AddNVM(nvm.Stats{ReadWords: 7})
	d := m.Snapshot().Sub(base)
	if d.Ops[OpInsert][OutOK] != 2 {
		t.Fatalf("delta insert ok = %d, want 2", d.Ops[OpInsert][OutOK])
	}
	if d.NVM.ReadWords != 7 {
		t.Fatalf("delta read words = %d, want 7", d.NVM.ReadWords)
	}
}

func TestHitRatio(t *testing.T) {
	m := New(Config{})
	h := m.Handle()
	for i := 0; i < 3; i++ {
		h.Op(OpGet, OutHotHit, -1)
	}
	h.Op(OpGet, OutNVTHit, -1)
	if r := m.Snapshot().HitRatio(); r != 0.75 {
		t.Fatalf("hit ratio = %g, want 0.75", r)
	}
}

// Walks are every Get the hot table did not answer, every write verb and every
// rescan; hot hits read no NVT slot and must not dilute the ratio.
func TestProbeReadsPerWalk(t *testing.T) {
	m := New(Config{})
	h := m.Handle()
	if r := m.Snapshot().ProbeReadsPerWalk(); r != 0 {
		t.Fatalf("reads per walk with no walks = %g, want 0", r)
	}
	for i := 0; i < 10; i++ {
		h.Op(OpGet, OutHotHit, -1)
	}
	h.Op(OpGet, OutNVTHit, -1)
	h.Op(OpGet, OutMiss, -1)
	h.Op(OpInsert, OutOK, -1)
	h.Probe(1, 6, 0)
	if r := m.Snapshot().ProbeReadsPerWalk(); r != 1.5 {
		t.Fatalf("6 reads over 3 ops + 1 rescan = %g per walk, want 1.5", r)
	}
}

func TestWritePromFormat(t *testing.T) {
	m := New(Config{SampleEvery: 1})
	h := m.Handle()
	h.Op(OpGet, OutNVTHit, 100)
	h.HotFill(true)
	h.WriteGroup(64, 2)
	rm := NewRESPMetrics()
	rm.Run(8)
	rm.WriteRun(8)
	snap := m.Snapshot()
	snap.Gauges = Gauges{Items: 5, Capacity: 100, LoadFactor: 0.05}
	snap.RESP = rm.Snapshot()
	var b bytes.Buffer
	if err := snap.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`hdnh_ops_total{op="get",outcome="nvt_hit"} 1`,
		`hdnh_ops_total{op="get",outcome="miss"} 0`, // canonical series emitted at zero
		`hdnh_hot_fills_rejected_total 1`,
		`hdnh_items 5`,
		"# TYPE hdnh_ops_total counter",
		"# TYPE hdnh_op_latency_nanoseconds summary",
		`hdnh_write_groups_total 1`,
		`hdnh_write_group_keys_total 64`,
		`hdnh_write_group_flushes_total 2`,
		"# TYPE hdnh_write_group_size summary",
		`hdnh_write_group_size_count 1`,
		`hdnh_resp_write_runs_total 1`,
		`hdnh_resp_write_run_ops_total 8`,
		"# TYPE hdnh_resp_write_run_length summary",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	m := New(Config{SampleEvery: 1})
	h := m.Handle()
	h.Op(OpUpdate, OutContended, -1)
	h.Contended()
	var b bytes.Buffer
	if err := m.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	ops := decoded["ops"].(map[string]any)["update"].(map[string]any)
	if ops["contended"].(float64) != 1 {
		t.Fatalf("json ops.update.contended = %v", ops["contended"])
	}
	if decoded["contended"].(float64) != 1 {
		t.Fatalf("json contended = %v", decoded["contended"])
	}
}

// TestNilHandleIsSafe pins the disabled wiring: a nil registry deals nil
// handles, and every method on a nil handle is a no-op that never samples.
func TestNilHandleIsSafe(t *testing.T) {
	var m *Metrics
	h := m.Handle()
	if h != nil {
		t.Fatalf("nil registry handle = %v, want nil", h)
	}
	if h.Sample() {
		t.Fatal("nil handle sampled an op")
	}
	h.Op(OpGet, OutMiss, 1)
	h.Probe(1, 2, 3)
	h.Contended()
	h.GetRetry()
	h.HotFill(false)
	h.HotEvict()
	h.Expansion(time.Second)
	h.ExpansionSwap(time.Second)
	h.DrainChunk(1, 1, time.Second)
	h.DrainHelp()
	h.WriteGroup(1, 1)
	h.VLogAppend(1)
	h.GCRelocate(1)
	h.GCRaced()
	h.GCRecycle()
	h.GCVisit(1)
	h.VLogAckWait(1)
	h.AddNVM(nvm.Stats{})
}
