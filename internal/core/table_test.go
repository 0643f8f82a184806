package core

import (
	"errors"
	"fmt"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

func newDev(t *testing.T, words int64) *nvm.Device {
	t.Helper()
	d, err := nvm.New(nvm.DefaultConfig(words))
	if err != nil {
		t.Fatalf("nvm.New: %v", err)
	}
	return d
}

func newTable(t *testing.T, mutate func(*Options)) *Table {
	t.Helper()
	opts := DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	tbl, err := create(newDev(t, 1<<22), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

func key(i int) kv.Key     { return kv.MustKey([]byte(fmt.Sprintf("key-%08d", i))) }
func value(i int) kv.Value { return kv.MustValue([]byte(fmt.Sprintf("val-%06d", i))) }

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	cases := []func(*Options){
		func(o *Options) { o.SegmentBuckets = 0 },
		func(o *Options) { o.InitBottomSegments = 0 },
		func(o *Options) { o.HotSlotsPerBucket = -1 },
		func(o *Options) { o.HotSlotsPerBucket = 33 },
		func(o *Options) { o.Replacer = Replacer(9) },
	}
	for i, mutate := range cases {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestReplacerString(t *testing.T) {
	if ReplacerRAFL.String() != "RAFL" || ReplacerLRU.String() != "LRU" || Replacer(7).String() == "" {
		t.Fatal("Replacer.String broken")
	}
}

func TestInsertGet(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	v, ok := s.Get(key(1))
	if !ok || v != value(1) {
		t.Fatalf("Get = (%v, %v)", v.String(), ok)
	}
	if tbl.Count() != 1 {
		t.Fatalf("Count = %d", tbl.Count())
	}
}

func TestGetMissing(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if _, ok := s.Get(key(404)); ok {
		t.Fatal("Get on empty table found something")
	}
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("negative search hit")
	}
}

func TestInsertDuplicate(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(key(1), value(2)); !errors.Is(err, scheme.ErrExists) {
		t.Fatalf("duplicate insert: %v, want ErrExists", err)
	}
	v, _ := s.Get(key(1))
	if v != value(1) {
		t.Fatal("duplicate insert changed the value")
	}
}

func TestUpdate(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Update(key(1), value(9)); !errors.Is(err, scheme.ErrNotFound) {
		t.Fatalf("update of missing key: %v, want ErrNotFound", err)
	}
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(key(1), value(2)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	v, ok := s.Get(key(1))
	if !ok || v != value(2) {
		t.Fatalf("after update Get = (%v, %v)", v.String(), ok)
	}
	if tbl.Count() != 1 {
		t.Fatalf("update changed count to %d", tbl.Count())
	}
	// Update repeatedly: exercises stamp wrap-around.
	for i := 0; i < 130; i++ {
		if err := s.Update(key(1), value(i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	v, _ = s.Get(key(1))
	if v != value(129) {
		t.Fatalf("after 130 updates value = %v", v.String())
	}
}

func TestDelete(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Delete(key(1)); !errors.Is(err, scheme.ErrNotFound) {
		t.Fatalf("delete of missing key: %v", err)
	}
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key(1)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("deleted key still found")
	}
	if tbl.Count() != 0 {
		t.Fatalf("Count after delete = %d", tbl.Count())
	}
	// The slot must be reusable.
	if err := s.Insert(key(1), value(2)); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
	v, _ := s.Get(key(1))
	if v != value(2) {
		t.Fatal("reinserted key has the wrong value")
	}
}

func TestManyKeysWithResize(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	const n = 20000 // far beyond the initial 1536-slot capacity
	gen0 := tbl.Generation()
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatalf("insert %d (load %.2f): %v", i, tbl.LoadFactor(), err)
		}
	}
	if tbl.Generation() == gen0 {
		t.Fatal("no resize happened; test not exercising expansion")
	}
	if tbl.Count() != n {
		t.Fatalf("Count = %d, want %d", tbl.Count(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get(key(i))
		if !ok || v != value(i) {
			t.Fatalf("key %d lost after resize: (%v, %v)", i, v.String(), ok)
		}
	}
	for i := n; i < n+1000; i++ {
		if _, ok := s.Get(key(i)); ok {
			t.Fatalf("phantom key %d", i)
		}
	}
}

func TestLoadFactorReasonable(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	for i := 0; i < 5000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	lf := tbl.LoadFactor()
	if lf <= 0 || lf > 1 {
		t.Fatalf("LoadFactor = %v", lf)
	}
	if tbl.Capacity() < 5000 {
		t.Fatalf("Capacity = %d after 5000 inserts", tbl.Capacity())
	}
}

func TestDeleteThenFillReusesSpace(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	const n = 1200
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	gen := tbl.Generation()
	for i := 0; i < n; i++ {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < 2*n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Generation() != gen {
		t.Log("note: table expanded despite deletions (allowed, but suggests poor reuse)")
	}
	for i := n; i < 2*n; i++ {
		if v, ok := s.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d wrong after refill", i)
		}
	}
}

func TestNoHotTableMode(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.HotSlotsPerBucket = 0 })
	s := sessionOn(tbl)
	for i := 0; i < 3000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		if v, ok := s.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d wrong without hot table", i)
		}
	}
	if tbl.HotEntries() != 0 {
		t.Fatalf("HotEntries = %d with hot table disabled", tbl.HotEntries())
	}
}

func TestDisplacementMode(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.DisplaceOnInsert = true })
	s := sessionOn(tbl)
	for i := 0; i < 8000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8000; i++ {
		if v, ok := s.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d wrong with displacement", i)
		}
	}
}

func TestCreateTwiceFails(t *testing.T) {
	dev := newDev(t, 1<<20)
	if _, err := CreateRouter(dev, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateRouter(dev, DefaultOptions()); err == nil {
		t.Fatal("second CreateRouter on the same device succeeded")
	}
}

func TestOpenEmptyDeviceFails(t *testing.T) {
	if _, err := OpenRouter(newDev(t, 1<<20), DefaultOptions()); err == nil {
		t.Fatal("OpenRouter on an empty device succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	tbl := newTable(t, nil)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Close, and StopBackground after Close, must be safe.
	tbl.StopBackground()
	if err := tbl.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

func TestNVMStatsAccumulate(t *testing.T) {
	tbl := newTable(t, func(o *Options) { o.HotSlotsPerBucket = 0 })
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	st := s.NVMStats()
	if st.Flushes == 0 || st.Fences == 0 || st.WriteAccesses == 0 {
		t.Fatalf("insert produced no persistence traffic: %+v", st)
	}
	s.ResetNVMStats()
	s.Get(key(1))
	st = s.NVMStats()
	if st.ReadAccesses == 0 {
		t.Fatal("NVT search accounted no reads")
	}
	if st.Flushes != 0 {
		t.Fatalf("read-only op flushed %d lines — lock-free search must not write NVM", st.Flushes)
	}
}

func TestLockFreeSearchDoesNotWriteNVM(t *testing.T) {
	// The paper's core concurrency claim: searches acquire no read locks and
	// therefore generate zero NVM writes. (Hot table disabled so searches
	// actually reach the NVT.)
	tbl := newTable(t, func(o *Options) { o.HotSlotsPerBucket = 0 })
	s := sessionOn(tbl)
	for i := 0; i < 500; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetNVMStats()
	for i := 0; i < 500; i++ {
		s.Get(key(i))
	}
	for i := 1000; i < 1500; i++ {
		s.Get(key(i)) // negative searches
	}
	st := s.NVMStats()
	if st.WriteAccesses != 0 || st.Flushes != 0 || st.Fences != 0 {
		t.Fatalf("searches wrote to NVM: %+v", st)
	}
}

func TestNegativeSearchRarelyTouchesNVM(t *testing.T) {
	// OCF should filter nearly all negative probes: expected fingerprint
	// collision rate is ~64 slots * 1/255 per probe.
	tbl := newTable(t, func(o *Options) { o.HotSlotsPerBucket = 0 })
	s := sessionOn(tbl)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetNVMStats()
	const probes = 2000
	for i := 0; i < probes; i++ {
		if _, ok := s.Get(key(n + i)); ok {
			t.Fatal("negative probe hit")
		}
	}
	st := s.NVMStats()
	if st.ReadAccesses > probes/2 {
		t.Fatalf("negative searches read NVM %d times in %d probes; OCF is not filtering", st.ReadAccesses, probes)
	}
}

// TestSchemeRegistryVariants drives each registered HDNH variant through the
// scheme interface. Every variant is a 1-shard router that reports its
// registered name and whose option change reached its table, on the unsharded image: root slot 0 set,
// the shard directory slot empty.
func TestSchemeRegistryVariants(t *testing.T) {
	for _, v := range []struct {
		name    string
		applied func(Options) bool
	}{
		{"HDNH", func(o Options) bool {
			return o.Replacer == ReplacerRAFL && o.HotSlotsPerBucket > 0 && !o.DisplaceOnInsert
		}},
		{"HDNH-LRU", func(o Options) bool { return o.Replacer == ReplacerLRU }},
		{"HDNH-NOHOT", func(o Options) bool { return o.HotSlotsPerBucket == 0 }},
		{"HDNH-DISPLACE", func(o Options) bool { return o.DisplaceOnInsert }},
	} {
		name := v.name
		t.Run(name, func(t *testing.T) {
			dev := newDev(t, 1<<21)
			store, err := scheme.Open(name, dev, 2000)
			if err != nil {
				t.Fatalf("Open(%q): %v", name, err)
			}
			defer store.Close()
			ra, ok := store.(*routerAdapter)
			if !ok || ra.r.NumShards() != 1 || store.Name() != name {
				t.Fatalf("store %T named %q, want a 1-shard router named %s", store, store.Name(), name)
			}
			if o := ra.r.shards[0].Options(); !v.applied(o) {
				t.Fatalf("variant's option change missing: %+v", o)
			}
			if dev.Root(rootSlot) == 0 || dev.Root(shardDirRootSlot) != 0 {
				t.Fatalf("root slot %d = %d, slot %d = %d; want the unsharded image",
					rootSlot, dev.Root(rootSlot), shardDirRootSlot, dev.Root(shardDirRootSlot))
			}
			sess := store.NewSession()
			for i := 0; i < 1000; i++ {
				if err := sess.Insert(key(i), value(i)); err != nil {
					t.Fatalf("insert: %v", err)
				}
			}
			if store.Count() != 1000 {
				t.Fatalf("Count = %d", store.Count())
			}
			if v, ok := sess.Get(key(7)); !ok || v != value(7) {
				t.Fatal("lookup through scheme interface failed")
			}
			if err := sess.Update(key(7), value(70)); err != nil {
				t.Fatal(err)
			}
			if err := sess.Delete(key(8)); err != nil {
				t.Fatal(err)
			}
			if store.LoadFactor() <= 0 {
				t.Fatal("LoadFactor not positive")
			}
		})
	}
	if _, err := scheme.Open("NOPE", newDev(t, 1<<18), 10); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSizeBottomSegments(t *testing.T) {
	if sizeBottomSegments(0, 64) != 1 {
		t.Fatal("zero hint must size minimally")
	}
	m := 64
	for _, hint := range []int64{100, 10000, 1000000} {
		segs := sizeBottomSegments(hint, m)
		capacity := int64(3*segs) * int64(m) * SlotsPerBucket
		lf := float64(hint) / float64(capacity)
		if lf > 0.75 {
			t.Errorf("hint %d: sized load factor %.2f too high", hint, lf)
		}
	}
}

// sessionOn opens a session on one table, the way a 1-shard Router's
// NewSession does: the in-package tests' handle on a table they built
// directly.
func sessionOn(t *Table) *RouterSession {
	return newRouter(t.dev, t.opts, []*Table{t}).NewSession()
}
