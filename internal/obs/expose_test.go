package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hdnh/internal/nvm"
)

// recordEveryCounter feeds every counter through its Handle method and
// returns the value each one should then read: all distinct and nonzero.
func recordEveryCounter(h *Handle) [numCounters]uint64 {
	times := func(n int, f func(i int)) {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	h.Probe(1, 2, 3)
	times(4, func(int) { h.Contended() })
	times(5, func(int) { h.GetRetry() })
	times(7, func(i int) { h.HotFill(i < 6) })
	times(8, func(int) { h.HotEvict() })
	times(9, func(int) { h.Expansion(11) })
	times(10, func(int) { h.ExpansionSwap(12) })
	times(11, func(int) { h.DrainChunk(13, 14, time.Microsecond) })
	times(12, func(int) { h.DrainHelp() })
	times(15, func(int) { h.WriteGroup(16, 17) })
	times(18, func(int) { h.VLogAppend(19) })
	times(20, func(int) { h.GCRelocate(21) })
	times(22, func(int) { h.GCRaced() })
	times(23, func(int) { h.GCRecycle() })
	h.GCVisit(24)
	h.VLogAckWait(25)
	h.AddNVM(nvm.Stats{ReadAccesses: 26, ReadWords: 27, MediaBlockReads: 28, WriteAccesses: 29,
		WriteWords: 30, Flushes: 31, Fences: 32, ModeledNanos: 33})
	return [numCounters]uint64{
		cLookupRescans: 1, cNVTProbes: 2, cSpins: 3, cContended: 4, cGetRetries: 5,
		cHotFills: 7, cHotFillsRejected: 6, cHotEvictions: 8,
		cExpansions: 9, cExpansionNanos: 99, cExpansionSwaps: 10, cExpansionSwapNanos: 120,
		cDrainChunks: 11, cDrainBuckets: 143, cDrainRecordsMoved: 154, cDrainHelps: 12,
		cWriteGroups: 15, cWriteGroupKeys: 240, cWriteGroupFlushes: 255,
		cVLogAppends: 18, cVLogAppendWords: 342, cGCRelocations: 20, cGCRelocatedWords: 420,
		cGCRaced: 22, cGCRecycles: 23, cGCVisited: 24, cVLogAckWaits: 25,
		cNVMReadAccesses: 26, cNVMReadWords: 27, cNVMMediaBlockReads: 28, cNVMWriteAccesses: 29,
		cNVMWriteWords: 30, cNVMFlushes: 31, cNVMFences: 32, cNVMModeledNanos: 33,
	}
}

// TestEveryCounterRoundTrips follows each counter from its Handle method into
// its Snapshot field, through Sub, and out under its Prometheus name and its
// JSON key.
func TestEveryCounterRoundTrips(t *testing.T) {
	m := New(Config{SampleEvery: 1})
	want := recordEveryCounter(m.Handle())
	seen := map[uint64]counter{}
	for c, v := range want {
		if prev, dup := seen[v]; v == 0 || dup {
			t.Fatalf("counter %s expects %d, shared with %s: values must be distinct and nonzero",
				counters[c].prom, v, counters[prev].prom)
		}
		seen[v] = counter(c)
	}

	base := m.Snapshot()
	for c, def := range counters {
		if got := *def.field(&base); got != want[c] {
			t.Errorf("Snapshot field of %s = %d, want %d", def.prom, got, want[c])
		}
	}
	recordEveryCounter(m.Handle())
	d := m.Snapshot().Sub(base)
	for c, def := range counters {
		if got := *def.field(&d); got != want[c] {
			t.Errorf("Sub of %s = %d, want %d", def.prom, got, want[c])
		}
	}

	var prom, js bytes.Buffer
	if err := d.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for c, def := range counters {
		if line := fmt.Sprintf("\n%s %d\n", def.prom, want[c]); !strings.Contains(prom.String(), line) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
		}
		obj, key := doc, def.json
		if k, ok := strings.CutPrefix(key, "nvm."); ok {
			obj, key = doc["nvm"].(map[string]any), k
		}
		if got, ok := obj[key].(float64); !ok || uint64(got) != want[c] {
			t.Errorf("/metrics.json %s = %v, want %d", def.json, obj[key], want[c])
		}
	}
}

// populated returns a snapshot with every counter, every latency family, the
// gauges (per-shard and value-log ones included) and a RESP block set.
func populated() Snapshot {
	m := New(Config{SampleEvery: 1})
	h := m.Handle()
	recordEveryCounter(h)
	for op := Op(0); op < NumOps; op++ {
		for out := Outcome(0); out < NumOutcomes; out++ {
			h.Op(op, out, int64(100*(int(op)+1)+int(out)))
		}
	}
	s := m.Snapshot()
	s.Gauges = Gauges{Items: 1, Capacity: 2, LoadFactor: 0.5, Generation: 3, HotEntries: 4, HotCapacity: 5,
		HotFillRatio: 0.8, DeviceWords: 6, DeviceWordsUsed: 7, DeviceFlushes: 8, Resizing: 1,
		DrainBucketsRemaining: 9, VLogSegments: 10, VLogFreeSegments: 11, VLogLiveWords: 12,
		VLogUsedWords: 13, EpochSlotsLive: 14, Shards: 1, PerShard: []ShardGauges{{
			Shard: 0, Items: 15, Capacity: 16, LoadFactor: 0.25, Generation: 17, Resizing: 1,
			DrainBucketsRemaining: 18, HotEntries: 19, VLogSegments: 20, VLogFreeSegments: 21,
			VLogLiveWords: 22, VLogUsedWords: 23,
		}}}
	r := NewRESPMetrics()
	r.ConnOpened()
	r.Enqueued(2)
	for c := RESPCmd(0); c < NumRESPCmds; c++ {
		r.Served(c, true, time.Microsecond)
	}
	r.Run(4)
	r.WriteRun(3)
	r.Flush()
	r.ProtoError()
	s.RESP = r.Snapshot()
	return s
}

// TestEveryPromFamilyIsDocumented requires each metric family /metrics can
// emit to be named in docs/OBSERVABILITY.md; the bridged device counters may
// be named by their suffix in the hdnh_nvm_ paragraph.
func TestEveryPromFamilyIsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := populated().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	families := regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(prom.String(), -1)
	if len(families) < len(counters) {
		t.Fatalf("only %d families in /metrics", len(families))
	}
	for _, f := range families {
		name := f[1]
		if bytes.Contains(doc, []byte("`"+name+"`")) {
			continue
		}
		if suffix, ok := strings.CutPrefix(name, "hdnh_nvm_"); ok && bytes.Contains(doc, []byte("`"+suffix+"`")) {
			continue
		}
		t.Errorf("docs/OBSERVABILITY.md does not name %s", name)
	}
}
