// Package bigkv lifts HDNH's fixed 15-byte values to arbitrary-size values
// by key-value separation (the WiscKey idea the paper cites as [19]): the
// HDNH table remains the index, and large values live in a segmented
// crash-safe value log (internal/vlog).
//
// Encoding inside the 15-byte HDNH slot value:
//
//	tag 0x01: inline — byte 1 is the length, bytes 2..14 the value (≤ 13 B)
//	tag 0x02: pointer — bytes 1..8 the log address (little endian),
//	          bytes 9..12 the record's total word count
//
// Carrying the word count in the pointer lets every index operation — and
// Open, which recounts from the recovered index alone — adjust the log's
// per-segment liveness counters without reading a log record.
//
// Crash ordering: a logged value and its index slot commit through one
// barrier train (core.RecordLog): the record's body is durable with the
// slot's key and value words, its header behind one more barrier, and it
// is acknowledged before the index's commit word is stored — so a crash can
// only leak an unreferenced log record, never leave a dangling index entry.
// Space abandoned by overwrites and deletes is reclaimed online by a
// background GC (see gc.go) that copies live records out of mostly-dead
// segments through the same write, then recycles the segment, so any crash
// point again leaks at most one benign copy.
//
// Sharding: when the index runs Options.Table.Shards > 1 tables behind the
// core hash router, the store runs one value log — and one GC worker — per
// shard. A key's records always live in its index shard's log (the router's
// ShardForKey routes both), so log addresses never need a shard tag, every
// GC pass touches exactly one shard's index and log, and reclamation
// parallelises with the rest of the write path. The per-shard log bases are
// persisted in a directory under root slot 7; the unsharded layout (root
// slot 5, single log) is byte-identical to what it always was.
//
// Liveness accounting protocol (the invariant: at quiescence each
// segment's live counter equals the words of its records the index still
// references):
//
//   - every record increments its destination segment when it is
//     acknowledged, before its index entry commits — so a segment with an
//     in-flight, not-yet-indexed record can never look fully dead — and a
//     record is only ever stored by a write that then commits;
//   - whoever makes an index entry stop referencing a record decrements
//     that record's segment: an overwriter via PutRecord's or
//     PutExchange's returned old value, a deleter via DeleteExchange's, the
//     GC via a successful conditional rewrite (the source record).
//
// UpdateExchange/DeleteExchange hand each displaced value to exactly one
// winner (the slot lock serialises them), so every decrement happens
// exactly once.
package bigkv

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"hdnh/internal/core"
	"hdnh/internal/flight"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/vlog"
)

const (
	tagInline  = 0x01
	tagPointer = 0x02
	maxInline  = kv.ValueSize - 2

	// logRootSlot holds the single log's base in the unsharded layout;
	// logDirRootSlot holds the per-shard log directory when the index is
	// sharded (word 0 magic, word 1 shard count, word 2+i shard i's base).
	logRootSlot     = 5
	logDirRootSlot  = 7
	logDirMagic     = uint64(0x48444e48564c4f47) // "HDNHVLOG"
	logDirCountWord = 1
	logDirShardBase = 2

	// decodeRetries bounds Get's stale-pointer loop. Each retry means the
	// GC recycled the segment under us after we read the index; re-reading
	// the index observes the rewritten pointer (perhaps the same address).
	decodeRetries = 64
)

// errStale reports a log record whose embedded key does not match the key
// the index led us to — the address was recycled and reused. Like a
// checksum failure it resolves by re-reading the index.
var errStale = fmt.Errorf("%w: address recycled", vlog.ErrCorrupt)

// Options configures a Store.
type Options struct {
	// Table configures the underlying HDNH index; Table.Shards > 1 shards
	// the index AND the value log (one log + GC worker per shard).
	Table core.Options
	// SegmentWords is the value-log segment size in 8-byte words.
	// 0 picks 1<<14 (128 KB).
	SegmentWords int64
	// Segments is the TOTAL segment count across all shards (split evenly,
	// rounded up, minimum 2 per shard); total log capacity is roughly
	// Segments*SegmentWords and never grows. 0 picks 64.
	Segments int64
	// DisableAutoGC turns off the background workers and the writers'
	// reclaim on ErrLogFull (the first ErrLogFull is returned); space is then
	// reclaimed only by explicit GCOnce calls. For deterministic tests.
	DisableAutoGC bool
}

// DefaultOptions sizes the log at 64 segments of 16K words (8 MB of
// values, matching the old single-log default).
func DefaultOptions() Options {
	return Options{Table: core.DefaultOptions()}
}

// withDefaults fills zero fields. shards is the index shard count the log
// geometry divides across.
func (o Options) withDefaults(shards int) Options {
	if o.SegmentWords == 0 {
		o.SegmentWords = 1 << 14
	}
	if o.Segments == 0 {
		o.Segments = 64
	}
	if shards > 1 {
		o.Segments = (o.Segments + int64(shards) - 1) / int64(shards)
	}
	if o.Segments < 2 {
		o.Segments = 2 // one to fill, one to relocate into
	}
	return o
}

// Store is an HDNH-indexed key-value store with arbitrary-size values.
type Store struct {
	idx  *core.Router
	logs []*vlog.Log // one per index shard
	dev  *nvm.Device
	h    *nvm.Handle    // the store's own log traffic: Create/Open, and Close's Sync
	opts Options        // withDefaults applied; Segments is PER SHARD
	rec  *obs.Handle    // nil when metrics are off
	fl   *flight.Handle // GC tracer; nil when tracing is off

	gcs    []*gcShard // one GC state (and worker) per shard
	gcLife gcLifecycle

	// faults holds, per shard, the corruption the index's recovery sweep
	// found there: a pointer outside the records the shard's log held when
	// the store opened. faulted says whether any shard has one, so a healthy
	// store's operations pay one load for the check.
	faults  []atomic.Pointer[error]
	faulted atomic.Bool
}

// Create formats a fresh store on the device.
func Create(dev *nvm.Device, opts Options) (*Store, error) {
	idx, err := core.CreateRouter(dev, opts.Table)
	if err != nil {
		return nil, err
	}
	n := idx.NumShards()
	opts = opts.withDefaults(n)
	h := dev.NewHandle()
	logs := make([]*vlog.Log, n)
	if n == 1 {
		log, err := vlog.Create(dev, h, opts.SegmentWords, opts.Segments)
		if err != nil {
			idx.Close()
			return nil, err
		}
		dev.SetRoot(h, logRootSlot, uint64(log.Base()))
		logs[0] = log
	} else {
		dirOff, err := dev.Alloc(h, logDirShardBase+int64(n), nvm.BlockWords)
		if err != nil {
			idx.Close()
			return nil, fmt.Errorf("bigkv: allocating log directory: %w", err)
		}
		for i := range logs {
			log, err := vlog.Create(dev, h, opts.SegmentWords, opts.Segments)
			if err != nil {
				idx.Close()
				return nil, fmt.Errorf("bigkv: creating shard %d log: %w", i, err)
			}
			logs[i] = log
			h.StorePersist(dirOff+logDirShardBase+int64(i), uint64(log.Base()))
		}
		h.StorePersist(dirOff+logDirCountWord, uint64(n))
		h.StorePersist(dirOff, logDirMagic)
		dev.SetRoot(h, logDirRootSlot, uint64(dirOff))
	}
	st := &Store{idx: idx, logs: logs, dev: dev, h: h, opts: opts}
	st.start()
	return st, nil
}

// Open recovers the store: each shard's log recovers its segment states and
// the active segment's tail, then the HDNH index replays its own recovery (per
// shard) with a visitor that rebuilds the liveness counters from the pointers
// it holds — no log record is read (why the counts are exact: INTERNALS §7).
// The index serves while its recovery sweep still runs, and so does the
// store; WaitRecovered waits for the sweep. A pointer the sweep finds outside
// its shard log's appended records marks the shard corrupt: WaitRecovered,
// AuditLiveness, the collector and every operation on the shard then fail
// with an error wrapping vlog.ErrCorrupt that names shard and address, and
// the key is never served.
func Open(dev *nvm.Device, opts Options) (*Store, error) {
	h := dev.NewHandle()
	logs, err := openLogs(dev, h)
	if err != nil {
		return nil, err
	}
	st := &Store{logs: logs, dev: dev, h: h, opts: opts.withDefaults(len(logs)), faults: make([]atomic.Pointer[error], len(logs))}
	extents := make([]vlog.Extent, len(logs))
	for i, log := range logs {
		extents[i] = log.Appended()
	}
	idx, err := core.OpenRouterVisit(dev, opts.Table, func(shard int, _ kv.Key, sv kv.Value) {
		if sv[0] != tagPointer || shard >= len(logs) {
			return
		}
		addr, words := unpackPointer(sv)
		if !extents[shard].Covers(addr, words) {
			st.fault(shard, fmt.Errorf("bigkv: shard %d index points at log address %d (%d words), outside the appended records: %w", shard, addr, words, vlog.ErrCorrupt))
			return
		}
		logs[shard].AddLive(addr, words)
	})
	if err != nil {
		return nil, err
	}
	if n := idx.NumShards(); n != len(logs) {
		idx.Close()
		return nil, fmt.Errorf("bigkv: device holds %d value logs, index holds %d shards", len(logs), n)
	}
	st.idx = idx
	st.start()
	return st, nil
}

// fault records the corruption the recovery sweep found in a shard's index;
// the first one per shard stays.
func (st *Store) fault(shard int, err error) {
	if st.faults[shard].CompareAndSwap(nil, &err) {
		st.faulted.Store(true)
	}
}

// shardErr returns the corruption recorded for a shard, nil while none. The
// sweep records it before it publishes the segment that holds the pointer
// built, so an operation that reached that segment sees it.
func (st *Store) shardErr(shard int) error {
	if !st.faulted.Load() {
		return nil
	}
	if p := st.faults[shard].Load(); p != nil {
		return *p
	}
	return nil
}

// WaitRecovered returns once the index's recovery sweeps are over, helping
// them meanwhile, with the first shard's corruption they found, if any.
// Open followed by WaitRecovered is the eager recovery of the paper's §3.7.
func (st *Store) WaitRecovered() error {
	st.idx.WaitRecovered()
	for i := range st.faults {
		if err := st.shardErr(i); err != nil {
			return err
		}
	}
	return nil
}

// openLogs opens the value log(s) the device holds — the single log under
// logRootSlot, or every log of the shard directory under logDirRootSlot.
func openLogs(dev *nvm.Device, h *nvm.Handle) ([]*vlog.Log, error) {
	if base := int64(dev.Root(logRootSlot)); base != 0 {
		log, err := vlog.Open(dev, h, base)
		if err != nil {
			return nil, err
		}
		return []*vlog.Log{log}, nil
	}
	dirOff := int64(dev.Root(logDirRootSlot))
	if dirOff == 0 {
		return nil, errors.New("bigkv: device has no value log")
	}
	if dev.Load(dirOff) != logDirMagic {
		return nil, errors.New("bigkv: value-log directory magic mismatch")
	}
	n := int64(dev.Load(dirOff + logDirCountWord))
	if n < 2 || n > core.MaxShards {
		return nil, fmt.Errorf("bigkv: value-log directory holds %d shards", n)
	}
	logs := make([]*vlog.Log, n)
	for i := range logs {
		log, err := vlog.Open(dev, h, int64(dev.Load(dirOff+logDirShardBase+int64(i))))
		if err != nil {
			return nil, fmt.Errorf("bigkv: opening shard %d log: %w", i, err)
		}
		logs[i] = log
	}
	return logs, nil
}

// start wires the recorder and tracers and launches the GC workers.
func (st *Store) start() {
	st.rec = st.idx.Metrics().Handle()
	st.fl = st.idx.Flight().Handle("gc")
	for _, log := range st.logs {
		log.SetTracer(st.idx.Flight().Handle("vlog"))
	}
	st.startGC()
}

// Index exposes the underlying sharded index (stats, invariants,
// per-shard inspection).
func (st *Store) Index() *core.Router { return st.idx }

// Log exposes the value log — shard 0's when sharded; unsharded stores
// (the default) have exactly one. Multi-shard callers use Logs.
func (st *Store) Log() *vlog.Log { return st.logs[0] }

// Logs exposes every shard's value log, in shard order.
func (st *Store) Logs() []*vlog.Log { return st.logs }

// Count returns the number of live keys, once the recovery sweep has counted
// them all. It reports no corruption; WaitRecovered does.
func (st *Store) Count() int64 { return st.idx.Count() }

// EpochSlotsLive reports epoch slots owned by sessions not yet Closed,
// summed across shards. The store's own GC workers hold one session each,
// so a quiesced store reads NumShards here, not zero; serving layers assert
// against the baseline they measured at startup.
func (st *Store) EpochSlotsLive() int { return st.idx.EpochSlotsLive() }

// MetricsSnapshot returns the index's snapshot (with per-shard table
// gauges) and the value-log gauges filled in — aggregated across shards,
// plus per-shard fill in Gauges.PerShard.
func (st *Store) MetricsSnapshot() obs.Snapshot {
	s := st.idx.MetricsSnapshot()
	for i, log := range st.logs {
		segs := log.Segments()
		free := int64(log.FreeSegments())
		live := log.LiveWords()
		used := log.UsedWords()
		s.Gauges.VLogSegments += segs
		s.Gauges.VLogFreeSegments += free
		s.Gauges.VLogLiveWords += live
		s.Gauges.VLogUsedWords += used
		if i < len(s.Gauges.PerShard) {
			s.Gauges.PerShard[i].VLogSegments = segs
			s.Gauges.PerShard[i].VLogFreeSegments = free
			s.Gauges.PerShard[i].VLogLiveWords = live
			s.Gauges.PerShard[i].VLogUsedWords = used
		}
	}
	s.Gauges.EpochSlotsLive = int64(st.EpochSlotsLive())
	return s
}

// AuditLiveness recounts every segment's live words from the index and
// compares against the maintained counters, shard by shard, and checks the
// liveness bitmap the collector walks against the same pointers: the set
// bits must be exactly the addresses the index points at — a stray bit makes
// a pass read a dead record, a missing one strands a live record in a
// segment that can then never be recycled. With the two sets equal, the
// words behind a segment's set bits are the pointers' words, which the
// counter comparison covers. Valid only while the store is quiesced (no
// concurrent sessions, no GC pass in flight). The counters are whole only
// once the recovery sweep is over, so the audit waits for it first and
// reports any corruption it found.
func (st *Store) AuditLiveness() error {
	if err := st.WaitRecovered(); err != nil {
		return err
	}
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}
	for si, log := range st.logs {
		want := make([]int64, log.Segments())
		var indexed []int64
		s := st.idx.NewShardSession(si)
		s.Scan(func(_ kv.Key, sv kv.Value) bool {
			if sv[0] == tagPointer {
				addr, words := unpackPointer(sv)
				want[addr/log.SegmentWords()] += words
				indexed = append(indexed, addr)
			}
			return true
		})
		s.Close()
		slices.Sort(indexed)
		// Both walks ascend: indexed[next:] are the pointers no set bit has
		// matched yet, and one passed over had its bit clear.
		next := 0
		passOver := func(limit int64) {
			for ; next < len(indexed) && indexed[next] < limit; next++ {
				fail("bigkv: shard %d index points at log address %d, whose liveness bit is clear", si, indexed[next])
			}
		}
		for seg := range want {
			if got := log.SegLive(int64(seg)); got != want[seg] {
				fail("bigkv: shard %d segment %d live counter %d, index says %d", si, seg, got, want[seg])
			}
			log.VisitLive(int64(seg), func(addr int64) bool {
				passOver(addr)
				if next < len(indexed) && indexed[next] == addr {
					next++
				} else {
					fail("bigkv: shard %d liveness bit set at log address %d, which no index entry points at", si, addr)
				}
				return true
			})
		}
		passOver(log.Capacity())
	}
	return firstErr
}

// Close stops the GC workers and shuts the store down cleanly.
func (st *Store) Close() error {
	st.stopGC()
	for _, g := range st.gcs {
		g.mu.Lock()
		g.syncGCObs()
		g.sess.Close()
		g.mu.Unlock()
	}
	for _, log := range st.logs {
		log.Sync(st.h)
	}
	return st.idx.Close()
}

// Session is the per-goroutine handle.
type Session struct {
	st      *Store
	ts      *core.RouterSession
	h       *nvm.Handle // log reads; a logged write's traffic is the index session's
	logs    []recordLog // one per shard, bound to ts
	rec     *obs.Handle
	nvmBase nvm.Stats
	ms      multiScratch
}

// recordLog binds a shard's value log to an index session as its
// core.RecordLog: a logged write's record is reserved, stored and published
// by the index's own barrier train, so the record and the slot pointing at
// it share their barriers. Each Session holds one per shard, and each
// shard's collector one with gc set; core calls it from the session's
// goroutine only, so run is private scratch from a Reserve to its Publish.
type recordLog struct {
	log  *vlog.Log
	gc   bool // relocation copies: may take the log's reserved last free segment
	run  []vlog.BatchRecord
	runs int64 // runs reserved, for the write-group metrics
}

func (r *recordLog) Reserve(h *nvm.Handle, recs []core.Record) (int, error) {
	run := scratchSlice(r.run, len(recs))
	r.run = run
	for i := range recs {
		run[i] = vlog.BatchRecord{Key: recs[i].Key, Value: recs[i].Payload}
	}
	n, err := r.log.Reserve(h, run, r.gc)
	for i := range run[:n] {
		recs[i].Slot = packPointer(run[i].Addr, run[i].Words)
	}
	if n > 0 {
		r.runs++
	}
	return n, err
}

func (r *recordLog) Publish(h *nvm.Handle, recs []core.Record) {
	r.log.Publish(h, r.run[:len(recs)])
}

// bindLogs gives the index session ts a recordLog for every shard.
func bindLogs(ts *core.RouterSession, logs []*vlog.Log) []recordLog {
	rl := make([]recordLog, len(logs))
	for sh := range rl {
		rl[sh] = recordLog{log: logs[sh]}
		ts.SetRecordLog(sh, &rl[sh])
	}
	return rl
}

// multiScratch is the session-held reusable state for the Multi* calls: a
// steady-state batch caller allocates only the slices it is handed back.
// Sessions are single-goroutine, so the scratch needs no locking.
type multiScratch struct {
	kks   []kv.Key
	svs   []kv.Value
	ok    []bool
	fk    []kv.Key
	fv    []kv.Value
	fr    [][]byte
	fi    []int
	folds []kv.Value
	fhad  []bool
	ferrs []error
}

// scratchSlice returns s resized to n, reallocating only past the previous
// high-water mark. Contents are stale; callers overwrite or zero them.
func scratchSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewSession returns a session.
func (st *Store) NewSession() *Session {
	ts := st.idx.NewSession()
	return &Session{st: st, ts: ts, logs: bindLogs(ts, st.logs), h: st.dev.NewHandle(), rec: st.idx.Metrics().Handle()}
}

// Close flushes the session's metrics and returns its index sessions' epoch
// slots for reuse. Idempotent; use after Close panics.
func (s *Session) Close() error {
	s.SyncObs()
	return s.ts.Close()
}

// NVMStats returns the session's NVM traffic (index + log).
func (s *Session) NVMStats() nvm.Stats {
	stats := s.ts.NVMStats()
	stats.Add(s.h.Stats())
	return stats
}

// SyncObs bridges this session's NVM traffic (index and log) into the
// store's metrics registry.
func (s *Session) SyncObs() {
	s.ts.SyncObs()
	cur := s.h.Stats()
	s.rec.AddNVM(cur.Sub(s.nvmBase))
	s.nvmBase = cur
}

func packPointer(addr, words int64) kv.Value {
	var out kv.Value
	out[0] = tagPointer
	for i := 0; i < 8; i++ {
		out[1+i] = byte(uint64(addr) >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		out[9+i] = byte(uint64(words) >> (8 * i))
	}
	return out
}

func unpackPointer(sv kv.Value) (addr, words int64) {
	var a, w uint64
	for i := 0; i < 8; i++ {
		a |= uint64(sv[1+i]) << (8 * i)
	}
	for i := 0; i < 4; i++ {
		w |= uint64(sv[9+i]) << (8 * i)
	}
	return int64(a), int64(w)
}

// shardOf routes a key to its shard index (and hence its log).
func (s *Session) shardOf(k kv.Key) int { return s.st.idx.ShardForKey(k) }

// keyErr is the corruption recorded for k's shard (see Open). Every operation
// checks it before it starts, and again once its index call has returned —
// that call may have built the segment holding the bad pointer, k's own among
// them — before it retires or decodes anything.
func (s *Session) keyErr(k kv.Key) error {
	if !s.st.faulted.Load() {
		return nil
	}
	return s.st.shardErr(s.shardOf(k))
}

// retire decrements the liveness of the record a displaced index entry for
// k pointed at; inline entries carry no log record. Addresses are
// log-relative, so the owning shard's log must be named by the key.
func (s *Session) retire(k kv.Key, sv kv.Value) {
	if sv[0] == tagPointer {
		addr, words := unpackPointer(sv)
		s.st.logs[s.shardOf(k)].AddLive(addr, -words)
	}
}

// inline packs a value of at most maxInline bytes into a slot value.
func inline(v []byte) kv.Value {
	var out kv.Value
	out[0] = tagInline
	out[1] = byte(len(v))
	copy(out[2:], v)
	return out
}

// decode resolves a slot value back to bytes, verifying for pointer
// entries that the record still belongs to k.
func (s *Session) decode(k kv.Key, sv kv.Value) ([]byte, error) {
	switch sv[0] {
	case tagInline:
		n := int(sv[1])
		if n > maxInline {
			return nil, fmt.Errorf("bigkv: corrupt inline length %d", n)
		}
		out := make([]byte, n)
		copy(out, sv[2:2+n])
		return out, nil
	case tagPointer:
		addr, _ := unpackPointer(sv)
		rk, v, err := s.st.logs[s.shardOf(k)].Read(s.h, addr)
		if err != nil {
			return nil, err
		}
		if rk != k {
			return nil, errStale
		}
		return v, nil
	default:
		return nil, fmt.Errorf("bigkv: unknown value tag %#x", sv[0])
	}
}

// Put inserts or replaces the value for key (≤ 16 bytes). A value too
// large for the slot goes to the key's shard log, through the index write
// itself (PutRecord): one barrier train commits record and slot.
func (s *Session) Put(key, value []byte) error {
	k, err := kv.MakeKey(key)
	if err != nil {
		return err
	}
	if len(value) == 0 {
		return errors.New("bigkv: empty value")
	}
	if err := s.keyErr(k); err != nil {
		return err
	}
	if len(value) <= maxInline {
		old, hadOld, err := s.ts.PutExchange(k, inline(value))
		if ferr := s.keyErr(k); ferr != nil {
			return ferr
		}
		if err == nil && hadOld {
			s.retire(k, old)
		}
		return err
	}
	return s.putLogged(k, value)
}

// putLogged writes a value too large for the slot through PutRecord. It is
// bigkv's one loop that retries on vlog.ErrLogFull, each time its shard's
// collector has freed a segment (reclaim).
func (s *Session) putLogged(k kv.Key, value []byte) error {
	sh := s.shardOf(k)
	for {
		seen := s.st.logs[sh].Recycles()
		old, hadOld, err := s.ts.PutRecord(k, value)
		if ferr := s.st.shardErr(sh); ferr != nil {
			return ferr
		}
		if err == nil {
			if hadOld {
				s.retire(k, old)
			}
			s.rec.VLogAppend(vlog.RecordWords(len(value)))
			s.st.maybeKickGC(sh)
			return nil
		}
		if !errors.Is(err, vlog.ErrLogFull) {
			return err
		}
		if err := s.st.gcs[sh].reclaim(seen, err); err != nil {
			return err
		}
	}
}

// Get returns the value for key.
func (s *Session) Get(key []byte) ([]byte, bool, error) {
	k, err := kv.MakeKey(key)
	if err != nil {
		return nil, false, err
	}
	sv, ok := s.ts.Get(k)
	if err := s.keyErr(k); err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	return s.decodeRetrying(k, sv)
}

// decodeRetrying resolves an index entry read moments ago, absorbing the
// race with the online GC: the GC may have moved the record and recycled
// its segment between the index read and the log read. On a stale read it
// re-reads the index and retries with what it holds — even an unchanged
// entry, since the record may have moved back to the same address of the
// reused segment; only decodeRetries failures in a row are corruption.
func (s *Session) decodeRetrying(k kv.Key, sv kv.Value) ([]byte, bool, error) {
	for attempt := 0; ; attempt++ {
		v, err := s.decode(k, sv)
		if err == nil {
			return v, true, nil
		}
		if !errors.Is(err, vlog.ErrCorrupt) || attempt == decodeRetries {
			return nil, false, err
		}
		var ok bool
		if sv, ok = s.ts.Get(k); !ok {
			return nil, false, nil // deleted meanwhile
		}
	}
}

// MultiGet batch-reads: one index MultiGet resolves every key's slot value
// (amortising the epoch and hot-table traffic per shard in the HDNH core),
// then each hit runs the same decode/retry protocol as Get. vals[i] is nil
// when found[i] is false; errs[i] is non-nil only for decode failures.
func (s *Session) MultiGet(keys [][]byte) (vals [][]byte, found []bool, errs []error) {
	n := len(keys)
	vals, found, errs = make([][]byte, n), make([]bool, n), make([]error, n)
	ms := &s.ms
	kks := scratchSlice(ms.kks, n)
	svs := scratchSlice(ms.svs, n)
	hit := scratchSlice(ms.ok, n)
	ms.kks, ms.svs, ms.ok = kks, svs, hit
	for i, key := range keys {
		// A key that does not convert is looked up as the zero key and its
		// result ignored below.
		kks[i], errs[i] = kv.MakeKey(key)
	}
	s.ts.MultiGet(kks, svs, hit)
	for i := range kks {
		if errs[i] == nil {
			errs[i] = s.keyErr(kks[i])
		}
		if errs[i] != nil || !hit[i] {
			continue
		}
		vals[i], found[i], errs[i] = s.decodeRetrying(kks[i], svs[i])
	}
	return vals, found, errs
}

// MultiPut upserts every key with Put's semantics, grouped end to end: one
// router MultiPutRecords commits every index entry, each shard's group
// reserving its oversize values in the shard's log together and committing
// them with the group's own barriers. The displaced values drive the same
// exactly-once liveness retirement as Put. A key whose log was full finishes
// afterwards, alone, through Put's logged write — unless a later position of
// the batch has written the same key: the batch's last write wins, and the
// position it overwrote reports nil. Returns one verdict per key.
func (s *Session) MultiPut(keys, values [][]byte) []error {
	n := len(keys)
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	ms := &s.ms
	fk := scratchSlice(ms.fk, n)[:0]
	fv := scratchSlice(ms.fv, n)[:0]
	fr := scratchSlice(ms.fr, n)[:0]
	fi := scratchSlice(ms.fi, n)[:0]
	// Validate and inline-encode; oversize values ride as records.
	for i := range keys {
		k, err := kv.MakeKey(keys[i])
		if err != nil {
			errs[i] = err
			continue
		}
		v := values[i]
		if len(v) == 0 {
			errs[i] = errors.New("bigkv: empty value")
			continue
		}
		if errs[i] = s.keyErr(k); errs[i] != nil {
			continue
		}
		var sv kv.Value
		var rec []byte
		if len(v) <= maxInline {
			sv = inline(v)
		} else if w, seg := vlog.RecordWords(len(v)), s.st.logs[0].SegmentWords(); w > seg {
			// The log would refuse the whole group's reservation; fail just
			// this key, like Put.
			errs[i] = fmt.Errorf("vlog: value needs %d words, segment holds %d", w, seg)
			continue
		} else {
			rec = v
		}
		fk, fv, fr, fi = append(fk, k), append(fv, sv), append(fr, rec), append(fi, i)
	}
	ms.fk, ms.fv, ms.fr, ms.fi = fk, fv, fr, fi
	var runs int64
	for i := range s.logs {
		runs -= s.logs[i].runs
	}
	m := len(fk)
	folds := scratchSlice(ms.folds, m)
	fhad := scratchSlice(ms.fhad, m)
	ferrs := scratchSlice(ms.ferrs, m)
	ms.folds, ms.fhad, ms.ferrs = folds, fhad, ferrs
	s.ts.MultiPutRecords(fk, fv, fr, folds, fhad, ferrs)
	full := false
	for j, i := range fi {
		errs[i] = ferrs[j]
		if ferr := s.keyErr(fk[j]); ferr != nil {
			errs[i], ferrs[j] = ferr, ferr
			continue
		}
		switch {
		case ferrs[j] == nil:
			if fhad[j] {
				s.retire(fk[j], folds[j])
			}
			if fr[j] != nil {
				s.rec.VLogAppend(vlog.RecordWords(len(fr[j])))
				s.st.maybeKickGC(s.shardOf(fk[j]))
			}
		case errors.Is(ferrs[j], vlog.ErrLogFull):
			full = true
		}
	}
	if full {
		// Last position first. Every committed one is retired above, so the
		// collector these writes may wait on waits for no retire of ours.
		written := make(map[kv.Key]bool, m) // by a later position
		for j := m - 1; j >= 0; j-- {
			k, i := fk[j], fi[j]
			if errors.Is(ferrs[j], vlog.ErrLogFull) {
				errs[i] = nil // overwritten within the batch
				if !written[k] {
					errs[i] = s.putLogged(k, fr[j])
				}
			}
			written[k] = written[k] || errs[i] == nil
		}
	}
	for i := range s.logs {
		runs += s.logs[i].runs
	}
	s.rec.WriteGroup(int64(n), runs)
	return errs
}

// MultiDelete removes every key with Delete's semantics through one grouped
// index commit (the router's parallel MultiDeleteExchange), retiring each
// displaced pointer exactly once. Returns one verdict per key
// (scheme.ErrNotFound for absent keys).
func (s *Session) MultiDelete(keys [][]byte) []error {
	n := len(keys)
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	ms := &s.ms
	kks := scratchSlice(ms.kks, n)[:0]
	fi := scratchSlice(ms.fi, n)[:0]
	for i := range keys {
		k, err := kv.MakeKey(keys[i])
		if err == nil {
			err = s.keyErr(k)
		}
		if err != nil {
			errs[i] = err
			continue
		}
		kks = append(kks, k)
		fi = append(fi, i)
	}
	ms.kks, ms.fi = kks, fi
	if len(kks) == 0 {
		return errs
	}
	olds := scratchSlice(ms.folds, len(kks))
	derrs := scratchSlice(ms.ferrs, len(kks))
	ms.folds, ms.ferrs = olds, derrs
	s.ts.MultiDeleteExchange(kks, olds, derrs)
	for j, i := range fi {
		errs[i] = derrs[j]
		if ferr := s.keyErr(kks[j]); ferr != nil {
			errs[i] = ferr
			continue
		}
		if derrs[j] == nil {
			s.retire(kks[j], olds[j])
		}
	}
	s.rec.WriteGroup(int64(len(kks)), 0) // deletes append no log runs
	return errs
}

// Delete removes key; the log record's space is reclaimed by the GC.
func (s *Session) Delete(key []byte) error {
	k, err := kv.MakeKey(key)
	if err != nil {
		return err
	}
	if err := s.keyErr(k); err != nil {
		return err
	}
	old, err := s.ts.DeleteExchange(k)
	if ferr := s.keyErr(k); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	s.retire(k, old)
	return nil
}
