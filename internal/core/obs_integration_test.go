package core

import (
	"strings"
	"testing"
	"time"

	"hdnh/internal/kv"
	"hdnh/internal/obs"
)

// TestObsReconcilesWithNVMStats cross-checks the two accounting layers: on a
// cold-read workload (hot table off, so every Get is exactly one NVT walk)
// the metrics registry's probe count must explain the device counters the
// session bridged in — each accounted probe reads exactly slotWords words,
// and nothing else in the Get path touches the device.
func TestObsReconcilesWithNVMStats(t *testing.T) {
	m := obs.New(obs.Config{SampleEvery: 1})
	r := newRouterT(t, 1, func(o *Options) {
		o.HotSlotsPerBucket = 0
		o.Metrics = m
	})
	s := r.NewSession()

	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The inserts started drains, and drain workers bridge their own NVM
	// reads into the registry when they finish (drainWorker's rec.AddNVM):
	// let that land before the base snapshot, not inside the Get phase.
	for r.Resizing() {
		time.Sleep(time.Millisecond)
	}
	s.SyncObs()
	base := r.MetricsSnapshot()

	for i := 0; i < n; i++ {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	s.SyncObs()
	d := r.MetricsSnapshot().Sub(base)

	if got := d.Ops[obs.OpGet][obs.OutNVTHit]; got != n {
		t.Fatalf("nvt_hit gets = %d, want %d", got, n)
	}
	if d.Ops[obs.OpGet][obs.OutHotHit] != 0 || d.Ops[obs.OpGet][obs.OutMiss] != 0 {
		t.Fatalf("unexpected outcomes in cold-read phase: %+v", d.Ops[obs.OpGet])
	}
	// Every probe the walks recorded is one ReadAccess of slotWords words,
	// and the Get phase issues no other device reads: the two accounting
	// layers must agree exactly.
	if d.NVTProbes < n {
		t.Fatalf("probe count %d below one per get", d.NVTProbes)
	}
	if got, want := d.NVM.ReadWords, d.NVTProbes*slotWords; got != want {
		t.Fatalf("device read words = %d, metrics probes explain %d", got, want)
	}
	if got, want := d.NVM.ReadAccesses, d.NVTProbes; got != want {
		t.Fatalf("device read accesses = %d, metrics probes = %d", got, want)
	}
	// Reads only: the Get phase must not have written the device.
	if d.NVM.WriteAccesses != 0 || d.NVM.Flushes != 0 {
		t.Fatalf("cold-read phase wrote the device: %+v", d.NVM)
	}

	// The same keys as MultiGet batches walk the same slots. A batch shares
	// one probe accounting; its second and later keys are walks, not rescans,
	// or reads per walk would show half its value for batched traffic.
	base = r.MetricsSnapshot()
	const batch = 64
	keys, vals, found := make([]kv.Key, 0, batch), make([]kv.Value, batch), make([]bool, batch)
	for i := 0; i < n; i += len(keys) {
		keys = keys[:0]
		for j := i; j < n && j < i+batch; j++ {
			keys = append(keys, key(j))
		}
		if got := s.MultiGet(keys, vals[:len(keys)], found[:len(keys)]); got != len(keys) {
			t.Fatalf("MultiGet at %d found %d of %d", i, got, len(keys))
		}
	}
	s.SyncObs()
	b := r.MetricsSnapshot().Sub(base)
	if b.LookupRescans != 0 || b.NVTWalks() != n {
		t.Fatalf("batched gets: %d rescans, %d walks, want 0 and %d", b.LookupRescans, b.NVTWalks(), n)
	}
	if b.NVTProbes != d.NVTProbes || b.ProbeReadsPerWalk() != d.ProbeReadsPerWalk() {
		t.Fatalf("batched gets read %d slots (%.3f per walk), single gets %d (%.3f)",
			b.NVTProbes, b.ProbeReadsPerWalk(), d.NVTProbes, d.ProbeReadsPerWalk())
	}
}

// TestMetricsSnapshotGaugesAndExposition sanity-checks the table-shape
// gauges and that the end-to-end exposition carries real numbers.
func TestMetricsSnapshotGaugesAndExposition(t *testing.T) {
	m := obs.New(obs.Config{SampleEvery: 1})
	r := newRouterT(t, 1, func(o *Options) { o.Metrics = m })
	s := r.NewSession()
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	s.SyncObs()
	snap := r.MetricsSnapshot()
	if snap.Gauges.Items != n {
		t.Fatalf("items gauge = %d, want %d", snap.Gauges.Items, n)
	}
	if snap.Gauges.Capacity <= 0 || snap.Gauges.LoadFactor <= 0 {
		t.Fatalf("capacity gauges not filled: %+v", snap.Gauges)
	}
	if snap.Gauges.HotCapacity <= 0 {
		t.Fatalf("hot capacity gauge = %d", snap.Gauges.HotCapacity)
	}
	if total := snap.OpTotal(obs.OpGet); total != n {
		t.Fatalf("get total = %d, want %d", total, n)
	}

	var b strings.Builder
	if err := snap.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"hdnh_items 500", "hdnh_ops_total", "hdnh_nvm_read_words_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestNVMStatsBridgeThroughAdapter checks the scheme-level NVMStats call
// doubles as the SyncObs checkpoint for factory-built tables.
func TestNVMStatsBridgeThroughAdapter(t *testing.T) {
	m := obs.New(obs.Config{})
	sess := NewRouterStore(newRouterT(t, 1, func(o *Options) { o.Metrics = m })).NewSession()
	if err := sess.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	direct := sess.NVMStats() // bridges as a side effect
	snap := m.Snapshot()
	if snap.NVM.WriteWords == 0 {
		t.Fatal("adapter NVMStats did not bridge device counters")
	}
	if snap.NVM.WriteWords != direct.WriteWords {
		t.Fatalf("bridged write words %d != session's %d", snap.NVM.WriteWords, direct.WriteWords)
	}
}
