package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/scheme"
)

// newRouterT builds a sharded table on a fresh device.
func newRouterT(t *testing.T, shards int, mutate func(*Options)) *Router {
	t.Helper()
	opts := DefaultOptions()
	opts.Shards = shards
	if mutate != nil {
		mutate(&opts)
	}
	r, err := CreateRouter(newDev(t, 1<<23), opts)
	if err != nil {
		t.Fatalf("CreateRouter: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestShardsOptionValidate(t *testing.T) {
	for _, bad := range []int{-1, 3, 5, 12, MaxShards * 2} {
		o := DefaultOptions()
		o.Shards = bad
		if err := o.Validate(); err == nil {
			t.Errorf("Shards=%d accepted", bad)
		}
	}
	for _, good := range []int{0, 1, 2, 4, MaxShards} {
		o := DefaultOptions()
		o.Shards = good
		if err := o.Validate(); err != nil {
			t.Errorf("Shards=%d rejected: %v", good, err)
		}
	}
}

// TestRouterCrossShardOps drives the single-key surface through a 4-shard
// router and cross-checks the routing invariant: every key is found in
// exactly the shard ShardForKey names, and in no other.
func TestRouterCrossShardOps(t *testing.T) {
	r := newRouterT(t, 4, nil)
	s := r.NewSession()
	defer s.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if got := r.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	// Each shard holds a non-trivial cut of a uniform keyspace.
	for i := 0; i < r.NumShards(); i++ {
		if c := r.shards[i].Count(); c == 0 {
			t.Fatalf("shard %d holds no keys; routing is degenerate", i)
		}
	}
	// Routing invariant: present in the named shard, absent elsewhere.
	shardSessions := make([]*RouterSession, r.NumShards())
	for i := range shardSessions {
		shardSessions[i] = sessionOn(r.shards[i])
		defer shardSessions[i].Close()
	}
	for i := 0; i < n; i += 97 {
		want := r.ShardForKey(key(i))
		for si, ss := range shardSessions {
			_, ok := ss.Get(key(i))
			if ok != (si == want) {
				t.Fatalf("key %d: present=%v in shard %d, ShardForKey=%d", i, ok, si, want)
			}
		}
	}
	// Update / Delete route the same way.
	for i := 0; i < n; i += 2 {
		if err := s.Update(key(i), value(i+1)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	for i := 1; i < n; i += 2 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := s.Get(key(i))
		if i%2 == 0 && (!ok || v != value(i+1)) {
			t.Fatalf("key %d after update = (%v, %v)", i, v.String(), ok)
		}
		if i%2 == 1 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
	}
	if errs := r.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// TestShardSessionScope: a shard-scoped session serves its own shard's keys,
// scans only that shard, holds one epoch slot, and panics on a key that
// routes anywhere else — single-key and batch verbs alike.
func TestShardSessionScope(t *testing.T) {
	r := newRouterT(t, 4, nil)
	s := r.NewSession()
	defer s.Close()
	const n = 400
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	const home = 2
	var own, foreign kv.Key
	for i := 0; own == (kv.Key{}) || foreign == (kv.Key{}); i++ {
		if r.ShardForKey(key(i)) == home {
			own = key(i)
		} else {
			foreign = key(i)
		}
	}
	before := r.EpochSlotsLive()
	ss := r.NewShardSession(home)
	if got := r.EpochSlotsLive() - before; got != 1 {
		t.Fatalf("shard session holds %d epoch slots, want 1", got)
	}
	cur, ok := ss.Get(own)
	if !ok {
		t.Fatal("shard session misses a key of its own shard")
	}
	if err := ss.UpdateIf(own, cur, value(-1)); err != nil {
		t.Fatalf("UpdateIf on the session's own shard: %v", err)
	}
	if got := ss.Scan(func(kv.Key, kv.Value) bool { return true }); got != r.shards[home].Count() {
		t.Fatalf("shard session scanned %d records, shard %d holds %d", got, home, r.shards[home].Count())
	}
	for name, op := range map[string]func(){
		"Get":      func() { ss.Get(foreign) },
		"Put":      func() { ss.Put(foreign, value(1)) },
		"MultiGet": func() { ss.MultiGet([]kv.Key{own, foreign}, make([]kv.Value, 2), make([]bool, 2)) },
		"MultiPut": func() { ss.MultiPut([]kv.Key{own, foreign}, make([]kv.Value, 2), make([]error, 2)) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside this shard-scoped session") {
					t.Errorf("%s on a foreign key: recovered %q, want the scope panic", name, msg)
				}
			}()
			op()
		}()
	}
	ss.Close()
	if got := r.EpochSlotsLive(); got != before {
		t.Fatalf("epoch slots after Close = %d, want %d", got, before)
	}
}

// TestRouterMultiOps checks the batch scatter/gather: results land at the
// caller's input positions regardless of how keys interleave across shards.
func TestRouterMultiOps(t *testing.T) {
	r := newRouterT(t, 4, nil)
	s := r.NewSession()
	defer s.Close()
	const n = 600
	keys := make([]kv.Key, n)
	vals := make([]kv.Value, n)
	errs := make([]error, n)
	for i := range keys {
		keys[i] = key(i)
		vals[i] = value(i)
	}
	if fails := s.MultiPut(keys, vals, errs); fails != 0 {
		t.Fatalf("MultiPut failures: %d (%v)", fails, errs)
	}
	// Interleave present and absent keys so found[] ordering is exercised.
	probe := make([]kv.Key, 0, n)
	for i := 0; i < n/2; i++ {
		probe = append(probe, key(i), key(n+i)) // present, absent
	}
	got := make([]kv.Value, len(probe))
	found := make([]bool, len(probe))
	if hits := s.MultiGet(probe, got, found); hits != n/2 {
		t.Fatalf("MultiGet hits = %d, want %d", hits, n/2)
	}
	for i, k := range probe {
		wantPresent := i%2 == 0
		if found[i] != wantPresent {
			t.Fatalf("probe %d (%s): found=%v", i, k.String(), found[i])
		}
		if wantPresent && got[i] != value(i/2) {
			t.Fatalf("probe %d value = %v, want %v", i, got[i].String(), value(i/2).String())
		}
	}
	// MultiDelete: per-key verdicts in input order, ErrNotFound for absents.
	if fails := s.MultiDelete(probe, make([]error, len(probe))); fails != n/2 {
		t.Fatalf("MultiDelete failures = %d, want %d (the absent half)", fails, n/2)
	}
	if got := r.Count(); got != n/2 {
		t.Fatalf("Count after MultiDelete = %d, want %d", got, n/2)
	}
}

// TestRouterMultiOpsUnderResize churns batch operations across all shards
// while every shard resizes underneath them (tiny initial geometry), the
// -race target for the cross-shard batch path.
func TestRouterMultiOpsUnderResize(t *testing.T) {
	r := newRouterT(t, 4, func(o *Options) { o.InitBottomSegments = 1 })
	const (
		workers = 4
		perW    = 2500
		batch   = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := r.NewSession()
			defer s.Close()
			keys := make([]kv.Key, 0, batch)
			vals := make([]kv.Value, 0, batch)
			errs := make([]error, batch)
			got := make([]kv.Value, batch)
			found := make([]bool, batch)
			base := w * perW
			for lo := 0; lo < perW; lo += batch {
				keys, vals = keys[:0], vals[:0]
				for i := lo; i < lo+batch && i < perW; i++ {
					keys = append(keys, key(base+i))
					vals = append(vals, value(base+i))
				}
				if fails := s.MultiPut(keys, vals, errs[:len(keys)]); fails != 0 {
					t.Errorf("worker %d: MultiPut failures %d", w, fails)
					return
				}
				if hits := s.MultiGet(keys, got[:len(keys)], found[:len(keys)]); hits != len(keys) {
					t.Errorf("worker %d: MultiGet hits %d of %d", w, hits, len(keys))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	r.waitDrainAll()
	if got := r.Count(); got != workers*perW {
		t.Fatalf("Count = %d, want %d", got, workers*perW)
	}
	s := r.NewSession()
	defer s.Close()
	for i := 0; i < workers*perW; i += 131 {
		if v, ok := s.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d after churn = (%v, %v)", i, v.String(), ok)
		}
	}
	if errs := r.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants after churn: %v", errs)
	}
}

// waitDrainAll parks until every shard's incremental drain settles.
func (r *Router) waitDrainAll() {
	for _, t := range r.shards {
		t.waitDrain()
	}
}

// TestRouterRecoveryMultiShard pulls the power cord on a 4-shard image —
// background machinery stopped without the clean-shutdown mark, at least one
// shard typically mid-drain from the tiny initial geometry — and re-opens.
// Every shard replays its own recovery; the directory re-links them.
func TestRouterRecoveryMultiShard(t *testing.T) {
	dev := newDev(t, 1<<23)
	opts := DefaultOptions()
	opts.Shards = 4
	opts.InitBottomSegments = 1
	r, err := CreateRouter(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := r.NewSession()
	const n = 8000
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	r.StopBackground() // power cord: no clean-shutdown mark, drains abandoned

	adopt := DefaultOptions()
	adopt.Shards = 0 // adopt the persisted count
	// The visitor sees every record once, labelled with the shard it routes to.
	visits := newVisitLog(t)
	reopened, err := OpenRouterVisit(dev, adopt, visits.visitShard)
	if err != nil {
		t.Fatalf("OpenRouter after crash: %v", err)
	}
	defer reopened.Close()
	reopened.WaitRecovered() // the sweeps are the traversals that visit
	if got := reopened.NumShards(); got != 4 {
		t.Fatalf("recovered NumShards = %d, want 4", got)
	}
	if len(visits.shards) != n {
		t.Fatalf("visitor saw %d records, want %d", len(visits.shards), n)
	}
	for k, shard := range visits.shards {
		if want := reopened.ShardForKey(k); shard != want {
			t.Fatalf("visitor got key %q from shard %d, it routes to %d", k.String(), shard, want)
		}
	}
	if got := reopened.Count(); got != n {
		t.Fatalf("recovered Count = %d, want %d", got, n)
	}
	rs := reopened.NewSession()
	defer rs.Close()
	for i := 0; i < n; i++ {
		if v, ok := rs.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("recovered key %d = (%v, %v)", i, v.String(), ok)
		}
	}
	if errs := reopened.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants after recovery: %v", errs)
	}
}

// TestRouterShardCountMismatch: the persisted shard count is authoritative
// and every mismatch fails loudly instead of silently re-routing keys.
func TestRouterShardCountMismatch(t *testing.T) {
	dev := newDev(t, 1<<23)
	opts := DefaultOptions()
	opts.Shards = 4
	r, err := CreateRouter(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	wrong := DefaultOptions()
	wrong.Shards = 2
	if _, err := OpenRouter(dev, wrong); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("OpenRouter with wrong Shards = %v, want mismatch error", err)
	}
	// Re-creating over an existing image must refuse too.
	if _, err := CreateRouter(dev, opts); err == nil {
		t.Fatal("CreateRouter over an existing sharded image succeeded")
	}

	// The reverse direction: an unsharded image opened with Shards>1.
	dev2 := newDev(t, 1<<22)
	tbl, err := create(dev2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	if _, err := OpenRouter(dev2, wrong); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("OpenRouter(Shards=2) on unsharded image = %v, want mismatch error", err)
	}
}

// TestRouterSingleShardCompat: Shards<=1 must be byte-compatible with the
// unsharded layout in both directions — a plain table opens through the
// router and a 1-shard router's image opens as a plain table.
func TestRouterSingleShardCompat(t *testing.T) {
	// Plain table -> OpenRouter.
	dev := newDev(t, 1<<22)
	tbl, err := create(dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := sessionOn(tbl)
	for i := 0; i < 500; i++ {
		if err := ts.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRouter(dev, DefaultOptions())
	if err != nil {
		t.Fatalf("OpenRouter on plain image: %v", err)
	}
	if r.NumShards() != 1 {
		t.Fatalf("NumShards = %d on a plain image", r.NumShards())
	}
	rs := r.NewSession()
	for i := 0; i < 500; i++ {
		if v, ok := rs.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d through router = (%v, %v)", i, v.String(), ok)
		}
	}
	rs.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// CreateRouter(Shards=1) -> plain table.
	dev2 := newDev(t, 1<<22)
	opts := DefaultOptions()
	opts.Shards = 1
	r2, err := CreateRouter(dev2, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs2 := r2.NewSession()
	for i := 0; i < 500; i++ {
		if err := rs2.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	rs2.Close()
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	tbl2, err := openRoot(dev2, DefaultOptions(), nil)
	if err != nil {
		t.Fatalf("openRoot on 1-shard router image: %v", err)
	}
	defer tbl2.Close()
	ts2 := sessionOn(tbl2)
	defer ts2.Close()
	for i := 0; i < 500; i++ {
		if v, ok := ts2.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d through plain table = (%v, %v)", i, v.String(), ok)
		}
	}
}

// TestRouterLookupAndExchange covers the less-travelled single-key surface
// (Lookup, UpdateExchange, UpdateIf, DeleteExchange, Put) through the
// router, including the cross-shard error plumbing.
func TestRouterLookupAndExchange(t *testing.T) {
	r := newRouterT(t, 2, nil)
	s := r.NewSession()
	defer s.Close()
	k := key(42)
	if err := s.Put(k, value(1)); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Lookup(k); err != nil || v != value(1) {
		t.Fatalf("Lookup = (%v, %v)", v.String(), err)
	}
	if old, err := s.UpdateExchange(k, value(2)); err != nil || old != value(1) {
		t.Fatalf("UpdateExchange = (%v, %v)", old.String(), err)
	}
	if err := s.UpdateIf(k, value(1), value(3)); !errors.Is(err, scheme.ErrConflict) {
		t.Fatalf("UpdateIf with stale expect = %v, want ErrConflict", err)
	}
	if err := s.UpdateIf(k, value(2), value(3)); err != nil {
		t.Fatalf("UpdateIf = %v", err)
	}
	if old, err := s.DeleteExchange(k); err != nil || old != value(3) {
		t.Fatalf("DeleteExchange = (%v, %v)", old.String(), err)
	}
	if _, err := s.Lookup(k); !errors.Is(err, scheme.ErrNotFound) {
		t.Fatalf("Lookup after delete = %v, want ErrNotFound", err)
	}
	// Scan visits everything across shards exactly once.
	for i := 0; i < 300; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[kv.Key]bool{}
	visited := s.Scan(func(k kv.Key, v kv.Value) bool {
		if seen[k] {
			t.Errorf("key %s visited twice", k.String())
		}
		seen[k] = true
		return true
	})
	if visited != 300 || len(seen) != 300 {
		t.Fatalf("Scan visited %d (%d unique), want 300", visited, len(seen))
	}
}
