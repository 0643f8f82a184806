package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hdnh/internal/nvm"
)

// Table is one HDNH hash table bound to an NVM device: one shard of a
// Router, safe for concurrent use through per-goroutine RouterSessions.
type Table struct {
	dev     *nvm.Device
	opts    Options
	metaOff int64

	// resizeMu serialises the structural mutators — expansion prologues,
	// failed-drain retries, the invariant checker, the blocking-resize
	// baseline. Operations do NOT take it: the hot path is protected by the
	// per-session epoch slots below (see epoch.go), so no global lock word
	// is written by Get/Insert/Update/Delete at all.
	resizeMu sync.Mutex

	// lv is the current two-level structure, swapped atomically by the
	// resize. Readers load the pair once per pass, which yields a consistent
	// (top, bottom) view; an old pair observed across a swap stays valid —
	// its levels remain allocated, and the old bottom is reachable as the
	// drain level until it empties.
	lv atomic.Pointer[tablePair]

	// Epoch-based resize protection state; see epoch.go. epochFree holds
	// slots returned by closed sessions for reuse (guarded by epochMu).
	epochGlobal atomic.Uint64
	epochGate   atomic.Uint32
	epochMu     sync.Mutex
	epochSlots  atomic.Pointer[[]*epochSlot]
	epochFree   []*epochSlot

	// draining, when non-nil, is the in-progress incremental rehash. Ops
	// walk its source level as a third lookup level until the drain empties
	// it; writers that run out of space help it along (see Table.expand).
	draining atomic.Pointer[drainTask]

	hot *hotTable // nil when Options.HotSlotsPerBucket == 0

	// o reports the events not tied to one session — expansions, drain
	// chunks (its flight handle is multi-writer safe), recovery steps — to
	// table-level handles on Options.Metrics and Options.Flight. The flight
	// handle is set before recover() runs so recovery is traced, the
	// metrics handle after.
	o observer

	count      atomic.Int64
	sessionSeq atomic.Uint64
	recovery   RecoveryStats
	closed     atomic.Bool

	// recoveryReads gathers the media block reads of the recovery workers
	// and of every segment build for RecoveryStats.MediaBlockReads; untouched once the
	// sweep is over.
	recoveryReads atomic.Uint64

	// sw is the recovery sweep still building the DRAM index behind an
	// Open; nil for a created table. Set before any session exists.
	sw *sweep

	// testHookLookupPass, when non-nil, runs at the start of every NVT-walk
	// pass (after the movement snapshot). Tests use it to simulate sustained
	// record movement deterministically — real interleaving cannot be forced
	// on a single-CPU host. Always nil in production.
	testHookLookupPass func()

	// moves are sharded movement counters (the libcuckoo/MemC3 technique):
	// any operation that relocates a committed record (out-of-place update,
	// displacement) bumps the moved key's shard between publishing the new
	// slot and retiring the old one. A reader that misses re-checks its
	// key's shard: unchanged ⇒ the key genuinely was absent at some point
	// during the scan; changed ⇒ a record it may have raced moved, rescan.
	moves [moveShards]atomic.Uint64
}

// moveShards trades memory for contention; updates to one key bump one
// counter.
const moveShards = 1024

func (t *Table) moveShard(h1 uint64) *atomic.Uint64 {
	return &t.moves[(h1>>20)%moveShards]
}

// tablePair is the atomically published two-level structure.
type tablePair struct {
	top, bottom *level
}

// pair loads the current level pair. The load is one atomic pointer read;
// the pair itself is immutable once published.
func (t *Table) pair() *tablePair { return t.lv.Load() }

// walkLevels fills dst with the levels a lookup must visit — top, bottom,
// and the drain level while an incremental rehash is in flight — returning
// how many are live. The pair MUST be loaded before the drain task: the
// resize publishes the task before swapping the pair, so a walker that
// observes the new pair always observes the task too (a walker holding the
// old pair scans the drain level as its bottom, which is equivalent).
func (t *Table) walkLevels(dst *[3]*level) int {
	pr := t.pair()
	dst[0], dst[1] = pr.top, pr.bottom
	if task := t.draining.Load(); task != nil {
		dst[2] = task.src
		return 3
	}
	return 2
}

// Resizing reports whether an incremental rehash is currently in flight.
func (t *Table) Resizing() bool { return t.draining.Load() != nil }

// DrainBucketsRemaining reports how many drain-level buckets the in-flight
// rehash has not yet durably completed (0 when no rehash is running).
func (t *Table) DrainBucketsRemaining() int64 {
	if task := t.draining.Load(); task != nil {
		return task.remaining.Load()
	}
	return 0
}

// waitDrain blocks until any in-flight incremental rehash completes or
// fails. Used by shutdown and the invariant checker; a failed drain leaves
// its task installed (records stay readable), so waiters return then too.
func (t *Table) waitDrain() {
	if task := t.draining.Load(); task != nil {
		<-task.done
	}
}

// ErrNeedResize is internal: an operation found no free slot and wants the
// caller to expand and retry.
var errNeedResize = errors.New("core: table needs resize")

// create formats a fresh table and links it through root slot 0: the
// unsharded image. CreateRouter has checked the root slots.
func create(dev *nvm.Device, opts Options) (*Table, error) {
	t, err := createDetached(dev, opts)
	if err != nil {
		return nil, err
	}
	dev.SetRoot(dev.NewHandle(), rootSlot, uint64(t.metaOff))
	return t, nil
}

// createDetached formats a fresh table on the device without linking it into
// root slot 0 — the caller owns publication. create links the single-table
// root; the router links each shard's metaOff into its shard directory
// instead, leaving root slot 0 untouched.
func createDetached(dev *nvm.Device, opts Options) (*Table, error) {
	t := &Table{dev: dev, opts: opts.withDefaults()}
	t.o.fl = t.opts.Flight.Handle("table")
	h := dev.NewHandle()

	metaOff, err := dev.Alloc(h, metaWords, nvm.BlockWords)
	if err != nil {
		return nil, fmt.Errorf("core: allocating metadata: %w", err)
	}
	t.metaOff = metaOff

	m := int64(opts.SegmentBuckets)
	bottomSegs := int64(opts.InitBottomSegments)
	topSegs := 2 * bottomSegs

	topBase, err := dev.Alloc(h, topSegs*m*BucketWords, nvm.BlockWords)
	if err != nil {
		return nil, fmt.Errorf("core: allocating top level: %w", err)
	}
	bottomBase, err := dev.Alloc(h, bottomSegs*m*BucketWords, nvm.BlockWords)
	if err != nil {
		return nil, fmt.Errorf("core: allocating bottom level: %w", err)
	}

	h.StorePersist(metaOff+metaMWord, uint64(m))
	t.writeLevelDescriptor(h, 0, topBase, topSegs)
	t.writeLevelDescriptor(h, 1, bottomBase, bottomSegs)
	h.StorePersist(metaOff+metaCleanWord, 0)
	t.setState(h, tableState{levelNumber: levelNumStable, top: 0, bottom: 1, drain: levelSlotUnused, generation: 1})
	h.StorePersist(metaOff+metaMagicWord, tableMagic)

	t.lv.Store(&tablePair{top: newLevel(topBase, topSegs, m), bottom: newLevel(bottomBase, bottomSegs, m)})
	t.initVolatile()
	return t, nil
}

// openRoot recovers the unsharded table root slot 0 links: it replays any
// interrupted resize and removes torn duplicates left by a crashed
// out-of-place update, then returns while a sweep rebuilds the OCF and hot
// table from the non-volatile table. visit, when non-nil, sees every
// committed record once.
func openRoot(dev *nvm.Device, opts Options, visit RecoveryVisitor) (*Table, error) {
	if dev.Root(rootSlot) == 0 {
		return nil, errors.New("core: device holds no table; use CreateRouter")
	}
	return openAt(dev, opts, int64(dev.Root(rootSlot)), visit)
}

// openAt recovers the table whose metadata block lives at metaOff. openRoot
// resolves metaOff through root slot 0; the router resolves each shard's
// through the shard directory. visit, when non-nil, sees every committed
// record once (see RecoveryVisitor).
func openAt(dev *nvm.Device, opts Options, metaOff int64, visit RecoveryVisitor) (*Table, error) {
	t := &Table{dev: dev, opts: opts.withDefaults()}
	t.o.fl = t.opts.Flight.Handle("table")
	t.metaOff = metaOff
	if dev.Load(t.metaOff+metaMagicWord) != tableMagic {
		return nil, errors.New("core: table metadata magic mismatch")
	}
	if err := t.recover(visit); err != nil {
		return nil, err
	}
	t.initVolatile()
	t.startSweep()
	return t, nil
}

func (t *Table) initVolatile() {
	t.o.rec = t.opts.Metrics.Handle()
	// Epoch 0 is reserved to mean "idle" in the session slots; start at 1.
	t.epochGlobal.Store(1)
	if t.opts.HotSlotsPerBucket > 0 {
		if t.hot == nil { // recovery may have built it already
			pr := t.pair()
			t.hot = newHotTable(pr.top.segments, pr.bottom.segments, pr.top.m, t.opts.HotSlotsPerBucket, t.opts.Replacer)
		}
		t.hot.o = t.o
	}
}

// state reads the atomic persistent state word.
func (t *Table) state() tableState {
	return unpackState(t.dev.Load(t.metaOff + metaStateWord))
}

// setState durably writes the state word — the single atomic commit point
// for every structural transition.
func (t *Table) setState(h *nvm.Handle, s tableState) {
	h.StorePersist(t.metaOff+metaStateWord, s.pack())
}

// Count returns the number of live records, once the recovery sweep has
// counted them all.
func (t *Table) Count() int64 {
	t.waitSwept()
	return t.count.Load()
}

// Capacity returns the total NVT slot count. The pair load is atomic, so
// the sum is always internally consistent even against a racing swap.
func (t *Table) Capacity() int64 {
	pr := t.pair()
	return pr.top.slots() + pr.bottom.slots()
}

// LoadFactor returns live records over capacity.
func (t *Table) LoadFactor() float64 {
	c := t.Capacity()
	if c == 0 {
		return 0
	}
	return float64(t.Count()) / float64(c)
}

// Generation returns the resize generation, observable for tests.
func (t *Table) Generation() uint64 { return t.state().generation }

// Device returns the underlying NVM device.
func (t *Table) Device() *nvm.Device { return t.dev }

// Options returns the table's options.
func (t *Table) Options() Options { return t.opts }

// HotEntries reports how many records the hot table currently caches.
func (t *Table) HotEntries() int64 {
	if t.hot == nil {
		return 0
	}
	return t.hot.countValid()
}

// LastRecovery returns statistics from the recovery that built this table
// (zero-valued for freshly created tables), once its sweep is over.
func (t *Table) LastRecovery() RecoveryStats {
	t.waitSwept()
	return t.recovery
}

// Close marks a clean shutdown, first letting any in-flight incremental
// rehash finish so the clean flag never covers a half-drained image, and
// stopping the recovery sweep, which wrote nothing durable. The caller must
// have quiesced all sessions first.
func (t *Table) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.StopBackground()
	h := t.dev.NewHandle()
	h.StorePersist(t.metaOff+metaCleanWord, 1)
	return nil
}

// StopBackground halts a table's background machinery — it waits out the
// drain workers of an in-flight rehash and stops the recovery sweep's
// workers between segments — without marking a clean shutdown: the recovery
// benchmarks' stand-in for pulling the power cord on a model-mode device.
// Segments the sweep left are still built on first touch. Idempotent; Close
// calls it too.
func (t *Table) StopBackground() {
	t.waitDrain()
	t.stopSweep()
}
