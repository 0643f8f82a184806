package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"hdnh/internal/flight"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// The hash router is how every HDNH store is built and opened: it splits the
// keyspace across Options.Shards independent tables, the structural-
// partitioning move Dash uses for PM-hash scalability. Each shard owns its
// epoch registry, resize state and hot table, so resizes, drains and
// slot-lock traffic run in parallel across shards.
//
// Routing uses the TOP bits of h1 (shard = h1 >> (64 - log2(shards))).
// Every in-shard placement decision uses other bits — segment choice takes
// h1 mod the segment count, bucket choices take bits 32.. and 48.., and the
// movement-counter shard takes bits 20.. — so a key's h1/h2/fp and its
// in-table position are identical whether the table stands alone or behind
// a router. Shards=1 therefore needs no routing at all: a 1-shard router is
// one table linked through root slot 0.
//
// Persistence: a sharded image stores a shard directory in root slot 6
// (slot 0, the single-table root, stays empty):
//
//	word 0      magic "HDNHSHRD"
//	word 1      shard count (power of two, ≤ MaxShards)
//	word 2+i    metaOff of shard i's table (the block root slot 0 would
//	            have pointed at in a single-table image)
//
// The directory is fully written, then the root is set — the root write is
// the commit point, exactly like the single-table root. Opening a sharded
// image with the wrong Options.Shards (or a single-table image with
// Shards>1) fails with a clear mismatch error; Options.Shards=0 adopts
// whatever the device holds.
const (
	shardDirRootSlot  = 6
	shardDirMagic     = uint64(0x48444e4853485244) // "HDNHSHRD"
	shardDirCountWord = 1
	shardDirShardBase = 2
)

// MaxShards caps Options.Shards. 256 shards of the minimum geometry are
// still small; the cap mostly guards against nonsense values.
const MaxShards = 256

// normalizeShards maps the option (0 = default) to a concrete count.
func normalizeShards(o Options) int {
	if o.Shards <= 1 {
		return 1
	}
	return o.Shards
}

// perShardOptions derives one shard's table options: the initial capacity is
// split across shards (rounded up, so total capacity never shrinks), each
// shard gets its own deterministic RNG stream, and the inner tables are
// plain unsharded tables. Metrics and Flight pointers are shared — counters
// aggregate naturally and per-shard shape is exposed through gauges.
func perShardOptions(o Options, n, shard int) Options {
	o.Shards = 0
	o.InitBottomSegments = (o.InitBottomSegments + n - 1) / n
	if o.InitBottomSegments < 1 {
		o.InitBottomSegments = 1
	}
	o.Seed ^= uint64(shard+1) * 0x9E3779B97F4A7C15
	o.heatShard = shard
	return o
}

// Router fans operations out across shard tables by the high bits of h1.
// Like Table, a Router is safe for concurrent use through per-goroutine
// RouterSessions.
type Router struct {
	dev    *nvm.Device
	opts   Options
	shards []*Table
	shift  uint // shard index = h1 >> shift; 64 (result 0) when unsharded
}

func newRouter(dev *nvm.Device, opts Options, shards []*Table) *Router {
	return &Router{
		dev:    dev,
		opts:   opts.withDefaults(),
		shards: shards,
		shift:  uint(64 - bits.TrailingZeros(uint(len(shards)))),
	}
}

// CreateRouter formats a fresh table split across opts.Shards shards. With
// Shards ≤ 1 it is one table, linked through root slot 0.
func CreateRouter(dev *nvm.Device, opts Options) (*Router, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if dev.Root(rootSlot) != 0 || dev.Root(shardDirRootSlot) != 0 {
		return nil, errors.New("core: device already holds a table; use OpenRouter")
	}
	n := normalizeShards(opts)
	if n == 1 {
		t, err := create(dev, opts)
		if err != nil {
			return nil, err
		}
		return newRouter(dev, opts, []*Table{t}), nil
	}
	h := dev.NewHandle()
	dirOff, err := dev.Alloc(h, shardDirShardBase+int64(n), nvm.BlockWords)
	if err != nil {
		return nil, fmt.Errorf("core: allocating shard directory: %w", err)
	}
	shards := make([]*Table, n)
	for i := range shards {
		t, err := createDetached(dev, perShardOptions(opts, n, i))
		if err != nil {
			return nil, fmt.Errorf("core: creating shard %d/%d: %w", i, n, err)
		}
		shards[i] = t
		h.StorePersist(dirOff+shardDirShardBase+int64(i), uint64(t.metaOff))
	}
	h.StorePersist(dirOff+shardDirCountWord, uint64(n))
	h.StorePersist(dirOff, shardDirMagic)
	dev.SetRoot(h, shardDirRootSlot, uint64(dirOff))
	return newRouter(dev, opts, shards), nil
}

// OpenRouter recovers the table(s) stored on the device. The persisted
// shard count is authoritative: Options.Shards=0 adopts it; any other value
// must match it (a clear mismatch error beats silently re-routing keys into
// the wrong shard). Each shard replays its own recovery, in shard order, up
// to the point where it can serve; a sweep per shard then rebuilds the DRAM
// index behind it (WaitRecovered waits for the sweeps).
func OpenRouter(dev *nvm.Device, opts Options) (*Router, error) {
	return OpenRouterVisit(dev, opts, nil)
}

// OpenRouterVisit is OpenRouter with a visitor: when visit is non-nil, each
// shard's recovery sweep hands it every committed record together with the
// shard index, under RecoveryVisitor's contract (each key once, after replay
// and dedup, from several goroutines at once — the shards' sweeps run side
// by side, after OpenRouterVisit has returned).
func OpenRouterVisit(dev *nvm.Device, opts Options, visit func(shard int, k kv.Key, v kv.Value)) (*Router, error) {
	shardVisit := func(shard int) RecoveryVisitor {
		if visit == nil {
			return nil
		}
		return func(k kv.Key, v kv.Value) { visit(shard, k, v) }
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	dirRoot := dev.Root(shardDirRootSlot)
	if dirRoot == 0 {
		if n := normalizeShards(opts); n != 1 {
			if dev.Root(rootSlot) != 0 {
				return nil, fmt.Errorf("core: shard count mismatch: device holds an unsharded table, Options.Shards=%d", opts.Shards)
			}
			return nil, errors.New("core: device holds no table; use CreateRouter")
		}
		t, err := openRoot(dev, opts, shardVisit(0))
		if err != nil {
			return nil, err
		}
		return newRouter(dev, opts, []*Table{t}), nil
	}
	dirOff := int64(dirRoot)
	if dev.Load(dirOff) != shardDirMagic {
		return nil, errors.New("core: shard directory magic mismatch")
	}
	n := int(dev.Load(dirOff + shardDirCountWord))
	if n < 2 || n > MaxShards || n&(n-1) != 0 {
		return nil, fmt.Errorf("core: corrupt shard directory count %d", n)
	}
	if opts.Shards != 0 && normalizeShards(opts) != n {
		return nil, fmt.Errorf("core: shard count mismatch: device holds %d shards, Options.Shards=%d", n, opts.Shards)
	}
	shards := make([]*Table, n)
	for i := range shards {
		metaOff := int64(dev.Load(dirOff + shardDirShardBase + int64(i)))
		t, err := openAt(dev, perShardOptions(opts, n, i), metaOff, shardVisit(i))
		if err != nil {
			return nil, fmt.Errorf("core: opening shard %d/%d: %w", i, n, err)
		}
		shards[i] = t
	}
	opts.Shards = n
	return newRouter(dev, opts, shards), nil
}

// OpenOrCreateRouter opens an existing (sharded or unsharded) table or
// creates a fresh one.
func OpenOrCreateRouter(dev *nvm.Device, opts Options) (*Router, error) {
	if dev.Root(rootSlot) == 0 && dev.Root(shardDirRootSlot) == 0 {
		return CreateRouter(dev, opts)
	}
	return OpenRouter(dev, opts)
}

// WaitRecovered returns once every shard's recovery sweep has built its last
// segment, helping the sweeps meanwhile: Open followed by WaitRecovered is
// the eager recovery of the paper's §3.7. It returns at once on a created
// store.
func (r *Router) WaitRecovered() {
	for _, t := range r.shards {
		t.waitSwept()
	}
}

// Swept reports, without waiting, whether every shard's recovery sweep has
// built its last segment.
func (r *Router) Swept() bool {
	for _, t := range r.shards {
		if t.segmentsPending() != 0 {
			return false
		}
	}
	return true
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// shardFor routes a primary hash to its shard index.
func (r *Router) shardFor(h1 uint64) int { return int(h1 >> r.shift) }

// ShardForKey returns the shard index k routes to — layers that keep
// per-shard side structures (bigkv's value logs) route with it.
func (r *Router) ShardForKey(k kv.Key) int {
	h1, _, _ := hashKV(k[:])
	return r.shardFor(h1)
}

// Device returns the underlying NVM device.
func (r *Router) Device() *nvm.Device { return r.dev }

// Options returns the router's options (Shards reflects the actual count).
func (r *Router) Options() Options { return r.opts }

// Count sums live records across shards.
func (r *Router) Count() int64 {
	var n int64
	for _, t := range r.shards {
		n += t.Count()
	}
	return n
}

// Capacity sums NVT slots across shards.
func (r *Router) Capacity() int64 {
	var n int64
	for _, t := range r.shards {
		n += t.Capacity()
	}
	return n
}

// LoadFactor returns live records over total capacity.
func (r *Router) LoadFactor() float64 {
	c := r.Capacity()
	if c == 0 {
		return 0
	}
	return float64(r.Count()) / float64(c)
}

// HotEntries sums hot-table occupancy across shards.
func (r *Router) HotEntries() int64 {
	var n int64
	for _, t := range r.shards {
		n += t.HotEntries()
	}
	return n
}

// Resizing reports whether any shard has an incremental rehash in flight.
func (r *Router) Resizing() bool {
	for _, t := range r.shards {
		if t.Resizing() {
			return true
		}
	}
	return false
}

// Stats returns each shard's shape snapshot, in shard order.
func (r *Router) Stats() []TableStats { return perShard(r, (*Table).Stats) }

// LastRecovery returns what each shard's recovery rebuilt, in shard order
// (zero-valued for a freshly created store).
func (r *Router) LastRecovery() []RecoveryStats { return perShard(r, (*Table).LastRecovery) }

// OccupancyHistogram returns each shard's bucket-fill histograms, in shard
// order. Computed from the OCF (DRAM only), so it is cheap enough for
// monitoring.
func (r *Router) OccupancyHistogram() []Occupancy { return perShard(r, (*Table).occupancy) }

// perShard collects one reading per shard, in shard order.
func perShard[T any](r *Router, read func(*Table) T) []T {
	out := make([]T, len(r.shards))
	for i, t := range r.shards {
		out[i] = read(t)
	}
	return out
}

// Metrics returns the shared metrics registry (all shards record into the
// same one), nil when disabled.
func (r *Router) Metrics() *obs.Metrics { return r.opts.Metrics }

// Flight returns the shared flight recorder (all shards trace into the same
// one), nil when tracing is off. Layers above the router (bigkv's GC worker,
// the value log) hang their own handles off it; a nil recorder hands out nil
// handles.
func (r *Router) Flight() *flight.Recorder { return r.opts.Flight }

// MetricsSnapshot returns the shared counters with gauges aggregated across
// shards and a per-shard breakdown in Gauges.PerShard. Zero-valued when
// metrics are disabled.
func (r *Router) MetricsSnapshot() obs.Snapshot {
	m := r.Metrics()
	if m == nil {
		return obs.Snapshot{}
	}
	s := m.Snapshot()
	s.Gauges = r.gauges()
	return s
}

// gauges aggregates shard shapes: additive fields sum, Generation takes the
// max, Resizing is any, and device-wide readings are taken once. It never
// waits for a recovery sweep: while one runs, Items counts the segments
// built so far and RecoverySegmentsPending the rest.
func (r *Router) gauges() obs.Gauges {
	var g obs.Gauges
	g.Shards = int64(len(r.shards))
	g.PerShard = make([]obs.ShardGauges, len(r.shards))
	for i, t := range r.shards {
		ts := t.shape()
		g.RecoverySegmentsPending += t.segmentsPending()
		ocf, hot := t.dramIndexBytes()
		g.DRAMIndexOCFBytes += ocf
		g.DRAMIndexHotBytes += hot
		sg := obs.ShardGauges{
			Shard:                 int64(i),
			Items:                 ts.Items,
			Capacity:              ts.Capacity,
			LoadFactor:            ts.LoadFactor,
			Generation:            ts.Generation,
			DrainBucketsRemaining: ts.DrainBucketsRemaining,
			HotEntries:            ts.HotEntries,
		}
		if ts.Resizing {
			sg.Resizing = 1
		}
		g.PerShard[i] = sg
		g.Items += ts.Items
		g.Capacity += ts.Capacity
		g.HotEntries += ts.HotEntries
		g.HotCapacity += ts.HotCapacity
		g.DrainBucketsRemaining += ts.DrainBucketsRemaining
		g.Resizing |= sg.Resizing
		if ts.Generation > g.Generation {
			g.Generation = ts.Generation
		}
	}
	if g.Capacity > 0 {
		g.LoadFactor = float64(g.Items) / float64(g.Capacity)
	}
	if g.HotCapacity > 0 {
		g.HotFillRatio = float64(g.HotEntries) / float64(g.HotCapacity)
	}
	g.DeviceWords = r.dev.Words()
	g.DeviceWordsUsed = r.dev.Words() - r.dev.FreeWords()
	g.DeviceFlushes = r.dev.TotalFlushes()
	return g
}

// CheckInvariants runs every shard's invariant checker, returning all
// violations with the offending shard named.
func (r *Router) CheckInvariants() []error {
	var errs []error
	for i, t := range r.shards {
		for _, err := range t.CheckInvariants() {
			errs = append(errs, fmt.Errorf("core: shard %d/%d: %w", i, len(r.shards), err))
		}
	}
	return errs
}

// Close closes every shard (clean-shutdown mark + background teardown),
// returning the first error.
func (r *Router) Close() error {
	var firstErr error
	for _, t := range r.shards {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// EpochSlotsLive sums every shard's live epoch-slot count (sessions created
// and not yet Closed; a RouterSession holds one slot per shard).
func (r *Router) EpochSlotsLive() int {
	n := 0
	for _, t := range r.shards {
		n += t.EpochSlotsLive()
	}
	return n
}

// StopBackground halts every shard's background machinery without marking a
// clean shutdown (the crash-recovery benchmarks' power-cord stand-in).
func (r *Router) StopBackground() {
	for _, t := range r.shards {
		t.StopBackground()
	}
}

// RouterSession is the per-goroutine handle on a Router, and core's only
// session: one inner session per shard, so each operation runs in its key's
// shard under that shard's epoch protection. The key is hashed once; the
// hashes pick the shard and travel on into it. Not safe for concurrent use;
// create one per goroutine.
type RouterSession struct {
	r  *Router
	ss []*session // nil for the shards a shard-scoped session does not cover
	sc routerScratch
}

// routerScratch holds the batch partition and the scatter/gather state, per
// shard, reused across batches so the steady state allocates nothing (slices
// keep their high-water-mark capacity).
type routerScratch struct {
	keys  [][]batchKey
	idx   [][]int32
	vals  [][]kv.Value
	recs  [][][]byte
	found [][]bool

	// Write fan-out state: per-shard verdicts, displaced values, and each
	// shard goroutine's failure count (indexed by shard, so the parallel
	// writers never share an element).
	errs   [][]error
	olds   [][]kv.Value
	hadOld [][]bool
	fails  []int
}

// NewSession returns a fresh session on every shard.
func (r *Router) NewSession() *RouterSession {
	ss := make([]*session, len(r.shards))
	for i, t := range r.shards {
		ss[i] = t.newSession()
	}
	return &RouterSession{r: r, ss: ss}
}

// NewShardSession returns a session scoped to shard i: it holds an epoch
// slot on that shard only, for layers that keep one worker per shard (bigkv's
// collectors). An operation on a key that routes to any other shard panics.
func (r *Router) NewShardSession(i int) *RouterSession {
	ss := make([]*session, len(r.shards))
	ss[i] = r.shards[i].newSession()
	return &RouterSession{r: r, ss: ss}
}

// Close closes every shard session, returning each epoch slot to its
// shard's free list. Idempotent.
func (s *RouterSession) Close() error {
	for _, ts := range s.ss {
		if ts != nil {
			ts.close()
		}
	}
	return nil
}

// at returns the inner session of shard sh, which a shard-scoped session
// holds for its own shard only.
func (s *RouterSession) at(sh int) *session {
	if ts := s.ss[sh]; ts != nil {
		return ts
	}
	panic(fmt.Sprintf("core: key routes to shard %d, outside this shard-scoped session", sh))
}

// write routes a single-key write to its key's shard.
func (s *RouterSession) write(verb writeVerb, k kv.Key, v kv.Value, rec []byte, expect *kv.Value) (kv.Value, bool, error) {
	h1, h2, fp := hashKV(k[:])
	return s.at(s.r.shardFor(h1)).writeHashed(verb, k, v, rec, expect, h1, h2, fp)
}

// SetRecordLog binds the RecordLog that takes the out-of-line records of
// this session's writes to keys of shard sh (PutRecord, UpdateIfRecord,
// MultiPutRecords). Call before such a write; the log is then used by this
// session's goroutine only — a batch's shards each drive their own.
func (s *RouterSession) SetRecordLog(sh int, l RecordLog) { s.at(sh).rlog = l }

// get routes a read to its key's shard.
func (s *RouterSession) get(k kv.Key, retry bool) (kv.Value, lookupResult) {
	h1, h2, fp := hashKV(k[:])
	return s.at(s.r.shardFor(h1)).get(k, h1, h2, fp, retry)
}

// Get is the paper's time-efficient read (Figure 8): hot table first, then
// OCF fingerprints, and NVM only on a fingerprint hit. When the walk's
// rescan budget exhausts — the key kept moving behind the scan — Get retries
// with capped backoff instead of fabricating a miss: a present key is never
// reported absent.
func (s *RouterSession) Get(k kv.Key) (kv.Value, bool) {
	v, res := s.get(k, true)
	return v, res == lookupFound
}

// Lookup is Get that surfaces contention instead of waiting it out: when the
// rescan budget exhausts it returns scheme.ErrContended, distinguishing "gave
// up under sustained record movement" from "definitely absent at some point
// during the scan" (scheme.ErrNotFound). Returns nil on a hit.
func (s *RouterSession) Lookup(k kv.Key) (kv.Value, error) {
	switch v, res := s.get(k, false); res {
	case lookupFound:
		return v, nil
	case lookupMissing:
		return kv.Value{}, scheme.ErrNotFound
	}
	return kv.Value{}, scheme.ErrContended
}

// Insert adds a new record (foreground thread of paper Figure 9), returning
// scheme.ErrExists if the key is present. Insert returns only after both the
// NVT record and its hot-table mirror are in place.
func (s *RouterSession) Insert(k kv.Key, v kv.Value) error {
	_, _, err := s.write(verbInsert, k, v, nil, nil)
	return err
}

// Update replaces the value out-of-place (paper Figure 10): the old slot is
// locked, the new record committed into a free slot — preferring the old
// record's own bucket — and only then is the old slot invalidated. A crash
// between the two commits leaves a stamped duplicate that recovery resolves
// toward the newer record. Returns scheme.ErrNotFound for an absent key.
func (s *RouterSession) Update(k kv.Key, v kv.Value) error {
	_, _, err := s.write(verbUpdate, k, v, nil, nil)
	return err
}

// UpdateExchange is Update returning the value it displaced. The read and
// the replacement are atomic under the old slot's lock, so exactly one
// concurrent writer observes any given value as its predecessor — the
// hook bigkv's liveness accounting hangs exactly-once decrements on.
func (s *RouterSession) UpdateExchange(k kv.Key, v kv.Value) (kv.Value, error) {
	old, _, err := s.write(verbUpdate, k, v, nil, nil)
	return old, err
}

// UpdateIf replaces the value only if the current value equals expect,
// returning scheme.ErrConflict (with nothing changed) otherwise. The compare
// and the replacement are atomic under the slot lock. This is the GC's
// conditional index rewrite: a racing user update changes the value first
// and the GC's rewrite then loses cleanly.
func (s *RouterSession) UpdateIf(k kv.Key, expect, v kv.Value) error {
	_, _, err := s.write(verbUpdate, k, v, nil, &expect)
	return err
}

// Delete invalidates the record with a single atomic persist of its final
// word, then removes any cache entry. Returns scheme.ErrNotFound for an
// absent key.
func (s *RouterSession) Delete(k kv.Key) error {
	_, _, err := s.write(verbDelete, k, kv.Value{}, nil, nil)
	return err
}

// DeleteExchange is Delete returning the value it removed. Like
// UpdateExchange, the read and the invalidation are atomic under the slot
// lock, so exactly one writer observes any given value as the one it
// destroyed.
func (s *RouterSession) DeleteExchange(k kv.Key) (kv.Value, error) {
	old, _, err := s.write(verbDelete, k, kv.Value{}, nil, nil)
	return old, err
}

// Put upserts: update when the key is present, insert when it is absent,
// decided by one probe.
func (s *RouterSession) Put(k kv.Key, v kv.Value) error {
	_, _, err := s.write(verbPut, k, v, nil, nil)
	return err
}

// PutExchange is Put reporting the displaced value: hadOld is true when the
// upsert replaced an existing record (old is then its value, with
// UpdateExchange's exactly-once guarantee), false when it inserted fresh.
func (s *RouterSession) PutExchange(k kv.Key, v kv.Value) (old kv.Value, hadOld bool, err error) {
	return s.write(verbPut, k, v, nil, nil)
}

// PutRecord is PutExchange for a value kept out of line: the shard's
// RecordLog (SetRecordLog) stores rec, and the slot holds the value its
// Reserve returns. Record and slot commit through one barrier train, and the
// record is stored only if the write commits: a failed PutRecord — the
// log's error included, with every slot released untouched — leaves nothing
// behind in the log.
func (s *RouterSession) PutRecord(k kv.Key, rec []byte) (old kv.Value, hadOld bool, err error) {
	return s.write(verbPut, k, kv.Value{}, rec, nil)
}

// UpdateIfRecord is UpdateIf for a value kept out of line, like PutRecord:
// the comparison happens under the slot lock before the record is reserved,
// so a write that loses (scheme.ErrConflict) stores nothing in the log.
func (s *RouterSession) UpdateIfRecord(k kv.Key, expect kv.Value, rec []byte) error {
	_, _, err := s.write(verbUpdate, k, kv.Value{}, rec, &expect)
	return err
}

// partition hashes every key once and splits the batch by shard: sc.keys[sh]
// holds shard sh's entries with their hashes, in input order, and sc.idx[sh]
// their input positions. vals, when non-nil, is split alongside into
// sc.vals. A key outside a shard-scoped session panics here, before any
// shard has run. recs, when non-nil, is split the same way into sc.recs.
func (s *RouterSession) partition(keys []kv.Key, vals []kv.Value, recs [][]byte) *routerScratch {
	sc := &s.sc
	sc.reset(len(s.ss))
	for i, k := range keys {
		h1, h2, fp := hashKV(k[:])
		sh := s.r.shardFor(h1)
		_ = s.at(sh)
		sc.keys[sh] = append(sc.keys[sh], batchKey{k: k, h1: h1, h2: h2, fp: fp})
		sc.idx[sh] = append(sc.idx[sh], int32(i))
		if vals != nil {
			sc.vals[sh] = append(sc.vals[sh], vals[i])
		}
		if recs != nil {
			sc.recs[sh] = append(sc.recs[sh], recs[i])
		}
	}
	return sc
}

// MultiGet looks up every key, writing vals[i]/found[i] for each and
// returning the number found; per-key semantics are Get's. Each shard's part
// runs that shard's batch read (hot pass, chunked epoch sections, grouped hot
// fills) and its results are scattered back in input order. vals and found
// must have the same length as keys.
func (s *RouterSession) MultiGet(keys []kv.Key, vals []kv.Value, found []bool) int {
	n := len(keys)
	if len(vals) != n || len(found) != n {
		panic("core: MultiGet output slice lengths must match len(keys)")
	}
	sc := s.partition(keys, nil, nil)
	if len(s.ss) == 1 {
		return s.ss[0].multiGet(sc.keys[0], vals, found)
	}
	hits := 0
	for sh, bks := range sc.keys {
		if len(bks) == 0 {
			continue
		}
		vs, fs := sized(sc.vals[sh], len(bks)), sized(sc.found[sh], len(bks))
		sc.vals[sh], sc.found[sh] = vs, fs
		hits += s.ss[sh].multiGet(bks, vs, fs)
		for j, oi := range sc.idx[sh] {
			vals[oi], found[oi] = vs[j], fs[j]
		}
	}
	return hits
}

// multiWrite is the one scatter/gather body behind the four grouped write
// methods below: partition the batch by shard, run each populated shard's
// grouped session.multiWrite (bucket-sorted group commits, coalesced hot
// mirrors) in parallel — one goroutine per shard, each driving that shard's
// own inner session, so the fan-out never shares a session across
// goroutines — and scatter verdicts and displaced values back into the
// caller's slices in input order. The gather is race-free because every
// input index belongs to exactly one shard. olds and hadOld are filled when
// non-nil. An unsharded router runs the one shard's batch on the caller's
// slices.
func (s *RouterSession) multiWrite(verb writeVerb, keys []kv.Key, vals []kv.Value, recs [][]byte, olds []kv.Value, hadOld []bool, errs []error) int {
	if len(s.ss) == 1 {
		return s.ss[0].multiWrite(verb, s.partition(keys, nil, nil).keys[0], vals, recs, olds, hadOld, errs)
	}
	if verb == verbDelete {
		vals = nil
	}
	sc := s.partition(keys, vals, recs)
	var wg sync.WaitGroup
	for sh, bks := range sc.keys {
		if len(bks) == 0 {
			continue
		}
		ts := s.ss[sh]
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			n := len(bks)
			es, ov, ho := sized(sc.errs[sh], n), sized(sc.olds[sh], n), sized(sc.hadOld[sh], n)
			sc.errs[sh], sc.olds[sh], sc.hadOld[sh] = es, ov, ho
			var rs [][]byte
			if recs != nil {
				rs = sc.recs[sh]
			}
			sc.fails[sh] = ts.multiWrite(verb, bks, sc.vals[sh], rs, ov, ho, es)
			for j, oi := range sc.idx[sh] {
				errs[oi] = es[j]
				if olds != nil {
					olds[oi] = ov[j]
				}
				if hadOld != nil {
					hadOld[oi] = ho[j]
				}
			}
		}(sh)
	}
	wg.Wait()
	fails := 0
	for _, f := range sc.fails {
		fails += f
	}
	return fails
}

// MultiPut upserts every key (update when present, insert when absent),
// recording a per-key verdict in errs and returning the number of failures.
// Each shard commits its part in bucket-sorted groups of one batch chunk,
// behind at most three barriers per group. vals and errs must have the same
// length as keys.
func (s *RouterSession) MultiPut(keys []kv.Key, vals []kv.Value, errs []error) int {
	n := len(keys)
	if len(vals) != n || len(errs) != n {
		panic("core: MultiPut slice lengths must match len(keys)")
	}
	return s.multiWrite(verbPut, keys, vals, nil, nil, nil, errs)
}

// MultiPutExchange is MultiPut that also reports each key's displaced value:
// olds[i]/hadOld[i] carry the previous value when errs[i] is nil, with
// UpdateExchange's exactly-once guarantee. bigkv retires superseded log
// records with it. All slices must have the same length as keys.
func (s *RouterSession) MultiPutExchange(keys []kv.Key, vals, olds []kv.Value, hadOld []bool, errs []error) int {
	n := len(keys)
	if len(vals) != n || len(olds) != n || len(hadOld) != n || len(errs) != n {
		panic("core: MultiPutExchange slice lengths must match len(keys)")
	}
	return s.multiWrite(verbPut, keys, vals, nil, olds, hadOld, errs)
}

// MultiPutRecords is MultiPutExchange where some values are kept out of
// line: recs[i] non-nil makes key i a PutRecord (vals[i] is then ignored),
// and recs[i] nil a plain upsert of vals[i]. Each shard reserves its group's
// records together, in its session's RecordLog, and commits them with the
// group's barriers. All slices must have the same length as keys.
func (s *RouterSession) MultiPutRecords(keys []kv.Key, vals []kv.Value, recs [][]byte, olds []kv.Value, hadOld []bool, errs []error) int {
	n := len(keys)
	if len(vals) != n || len(recs) != n || len(olds) != n || len(hadOld) != n || len(errs) != n {
		panic("core: MultiPutRecords slice lengths must match len(keys)")
	}
	return s.multiWrite(verbPut, keys, vals, recs, olds, hadOld, errs)
}

// MultiDelete deletes every key, recording a per-key verdict in errs
// (scheme.ErrNotFound for absent keys) and returning the number of failures.
// errs must have the same length as keys.
func (s *RouterSession) MultiDelete(keys []kv.Key, errs []error) int {
	if len(errs) != len(keys) {
		panic("core: MultiDelete slice lengths must match len(keys)")
	}
	return s.multiWrite(verbDelete, keys, nil, nil, nil, nil, errs)
}

// MultiDeleteExchange is MultiDelete that also reports each deleted key's
// displaced value (olds[i] is meaningful when errs[i] is nil), with
// DeleteExchange's exactly-once guarantee. olds and errs must have the same
// length as keys.
func (s *RouterSession) MultiDeleteExchange(keys []kv.Key, olds []kv.Value, errs []error) int {
	n := len(keys)
	if len(olds) != n || len(errs) != n {
		panic("core: MultiDeleteExchange slice lengths must match len(keys)")
	}
	return s.multiWrite(verbDelete, keys, nil, nil, olds, nil, errs)
}

// Scan visits every committed record once and calls fn; returning false
// stops the scan early. Scan returns the number of records visited. Shards
// are visited in order (a shard-scoped session visits its own only), each
// inside one epoch critical section: every record yielded was committed when
// it was read, but the scan as a whole is not a snapshot. Useful for
// backups, audits and debugging.
func (s *RouterSession) Scan(fn func(k kv.Key, v kv.Value) bool) int64 {
	var visited int64
	for _, ts := range s.ss {
		if ts == nil {
			continue
		}
		stop := false
		visited += ts.scan(func(k kv.Key, v kv.Value) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			break
		}
	}
	return visited
}

// NVMStats sums the NVM traffic generated through every shard session.
func (s *RouterSession) NVMStats() nvm.Stats {
	var st nvm.Stats
	for _, ts := range s.ss {
		if ts != nil {
			st.Add(ts.h.Stats())
		}
	}
	return st
}

// ResetNVMStats zeroes every shard session's NVM counters.
func (s *RouterSession) ResetNVMStats() {
	for _, ts := range s.ss {
		if ts != nil {
			ts.resetNVMStats()
		}
	}
}

// SyncObs publishes every shard session's NVM traffic accumulated since the
// last SyncObs into the metrics registry. A session's device counters are
// its own and unsynchronised, so the bridge is an explicit pull by the
// owning goroutine — call it at harness checkpoints or before reading
// Router.MetricsSnapshot. No-op when metrics are disabled.
func (s *RouterSession) SyncObs() {
	for _, ts := range s.ss {
		if ts != nil {
			ts.syncObs()
		}
	}
}

func (sc *routerScratch) reset(n int) {
	if len(sc.keys) != n {
		sc.keys = make([][]batchKey, n)
		sc.idx = make([][]int32, n)
		sc.vals = make([][]kv.Value, n)
		sc.recs = make([][][]byte, n)
		sc.found = make([][]bool, n)
		sc.errs = make([][]error, n)
		sc.olds = make([][]kv.Value, n)
		sc.hadOld = make([][]bool, n)
		sc.fails = make([]int, n)
	}
	for i := range sc.keys {
		sc.keys[i] = sc.keys[i][:0]
		sc.idx[i] = sc.idx[i][:0]
		sc.vals[i] = sc.vals[i][:0]
		sc.recs[i] = sc.recs[i][:0]
		sc.fails[i] = 0
	}
}

// sized returns s resliced to n elements, reallocating only when it has to
// grow.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
