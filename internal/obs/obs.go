// Package obs is the observability substrate for a running HDNH table: a
// zero-allocation, sharded-atomic metrics registry recording per-operation
// counters and latency histograms (split by hot-table hit / NVT hit / miss),
// retry and spin accounting for the optimistic-concurrency paths, hot-table
// fill/eviction traffic, and device-level NVM counters bridged from
// nvm.Stats.
//
// The recording surface is *Handle. An enabled table hands each Session a
// handle bound to one counter shard, so concurrent sessions never contend on
// a counter cache line; a disabled table holds a nil *Handle, whose methods
// do nothing. Latency is sampled (Config.SampleEvery) because reading the
// clock twice per operation would dominate sub-microsecond hot-table hits;
// counters are exact.
//
// Snapshot produces a point-in-time copy suitable for deltas (Sub) and for
// exposition in Prometheus text or JSON form (see expose.go).
package obs

import (
	"sync/atomic"
	"time"

	"hdnh/internal/histogram"
	"hdnh/internal/nvm"
)

// Op enumerates the four session operations.
type Op uint8

const (
	OpGet Op = iota
	OpInsert
	OpUpdate
	OpDelete
	NumOps
)

// String returns the Prometheus label value for the op.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Outcome enumerates how an operation completed. Gets use HotHit/NVTHit/Miss;
// writes use OK/Exists/NotFound/Full; every op can end Contended when its
// movement-hazard rescan budget exhausts (see docs/OBSERVABILITY.md). Error
// is the write outcome for an expansion that failed for a reason other than
// genuine capacity exhaustion — keeping internal faults distinguishable from
// a full table.
type Outcome uint8

const (
	OutHotHit Outcome = iota
	OutNVTHit
	OutMiss
	OutOK
	OutExists
	OutNotFound
	OutFull
	OutContended
	OutError
	// OutConflict is a conditional update (UpdateIf) that found the key
	// bound to an unexpected value and aborted — the GC's losing side of a
	// race with a foreground writer.
	OutConflict
	NumOutcomes
)

// String returns the Prometheus label value for the outcome.
func (o Outcome) String() string {
	switch o {
	case OutHotHit:
		return "hot_hit"
	case OutNVTHit:
		return "nvt_hit"
	case OutMiss:
		return "miss"
	case OutOK:
		return "ok"
	case OutExists:
		return "exists"
	case OutNotFound:
		return "not_found"
	case OutFull:
		return "full"
	case OutContended:
		return "contended"
	case OutError:
		return "error"
	case OutConflict:
		return "conflict"
	default:
		return "unknown"
	}
}

// shardCount bounds counter contention: handles are dealt shards round-robin,
// and a snapshot sums across all of them.
const shardCount = 64

// shard is one cache-padded slice of every counter.
type shard struct {
	ops [NumOps][NumOutcomes]atomic.Uint64
	c   [numCounters]atomic.Uint64

	_ [64]byte // keep neighbouring shards off one cache line
}

// Config tunes a Metrics registry. The zero value picks defaults.
type Config struct {
	// SampleEvery latency-samples one in N operations per handle; 1 samples
	// everything, 0 picks DefaultSampleEvery. Counters are always exact.
	SampleEvery uint64
}

// DefaultSampleEvery keeps the two clock reads a sampled op costs off the
// common path: at 1/64 the accounting-mode overhead stays within noise while
// percentiles converge within seconds under realistic op rates.
const DefaultSampleEvery = 64

// Metrics is the registry. Create one with New, hand it to core.Options, and
// read it with Snapshot. All methods are safe for concurrent use.
type Metrics struct {
	sampleEvery uint64
	seq         atomic.Uint64 // round-robin shard dealer

	shards [shardCount]shard
	lat    [NumOps][NumOutcomes]AtomicHist
	// drainLat is the per-chunk stall histogram: how long each drain chunk
	// held the shared resize lock.
	drainLat AtomicHist
	// groupSize is the keys-per-group histogram for grouped write commits
	// (unit-agnostic, like the RESP run-length histogram).
	groupSize AtomicHist
}

// New builds a Metrics registry.
func New(cfg Config) *Metrics {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	return &Metrics{sampleEvery: cfg.SampleEvery}
}

// Handle returns a handle bound to one shard, or nil for a nil registry.
// Each Session (and each drain worker) should own its own handle; a Handle's
// sampling counter is not safe for concurrent use.
func (m *Metrics) Handle() *Handle {
	if m == nil {
		return nil
	}
	return &Handle{m: m, sh: &m.shards[m.seq.Add(1)%shardCount]}
}

// Handle is the recording surface the core hot paths call: counters go to
// the handle's shard, latency to the registry's shared atomic histograms.
// Every method is safe on a nil *Handle and does nothing there — a disabled
// table holds nil (see docs/OBSERVABILITY.md, "Disabled observers").
type Handle struct {
	m  *Metrics
	sh *shard
	n  uint64 // ops seen, drives sampling
}

// Sample counts one operation toward the sampling cadence and reports whether
// it is latency-sampled; the caller reads the clock only when it is.
func (h *Handle) Sample() bool {
	if h == nil {
		return false
	}
	h.n++
	return h.n%h.m.sampleEvery == 0
}

// Op records one completed operation and, when Sample picked it, its latency
// in nanoseconds; ns is negative for an op that was not sampled.
func (h *Handle) Op(op Op, out Outcome, ns int64) {
	if h == nil {
		return
	}
	h.sh.ops[op][out].Add(1)
	if ns >= 0 {
		h.m.lat[op][out].Record(ns)
	}
}

// Probe records one NVT walk: rescan passes beyond the first, accounted slot
// reads, and waitUnlocked spin iterations.
func (h *Handle) Probe(rescans, probes, spins int64) {
	if h == nil {
		return
	}
	if rescans > 0 {
		h.sh.c[cLookupRescans].Add(uint64(rescans))
	}
	if probes > 0 {
		h.sh.c[cNVTProbes].Add(uint64(probes))
	}
	if spins > 0 {
		h.sh.c[cSpins].Add(uint64(spins))
	}
}

// Contended records one retry-budget exhaustion event.
func (h *Handle) Contended() {
	if h != nil {
		h.sh.c[cContended].Add(1)
	}
}

// GetRetry records one capped-backoff retry round inside Get.
func (h *Handle) GetRetry() {
	if h != nil {
		h.sh.c[cGetRetries].Add(1)
	}
}

// HotEvict records one hot-table replacement (RAFL or LRU victim).
func (h *Handle) HotEvict() {
	if h != nil {
		h.sh.c[cHotEvictions].Add(1)
	}
}

// HotFill records a search-path cache fill, rejected when the OCF validation
// turned it away.
func (h *Handle) HotFill(rejected bool) {
	if h == nil {
		return
	}
	h.sh.c[cHotFills].Add(1)
	if rejected {
		h.sh.c[cHotFillsRejected].Add(1)
	}
}

// Expansion records one completed table expansion and its end-to-end
// duration (swap through drain completion).
func (h *Handle) Expansion(d time.Duration) {
	if h != nil {
		h.sh.c[cExpansions].Add(1)
		h.sh.c[cExpansionNanos].Add(uint64(d.Nanoseconds()))
	}
}

// ExpansionSwap records the exclusive-lock window of an incremental
// expansion — the stall every foreground operation actually observes.
func (h *Handle) ExpansionSwap(d time.Duration) {
	if h != nil {
		h.sh.c[cExpansionSwaps].Add(1)
		h.sh.c[cExpansionSwapNanos].Add(uint64(d.Nanoseconds()))
	}
}

// DrainChunk records one rehashed drain chunk: buckets covered, records
// moved, and the chunk's shared-lock residency (the per-chunk stall
// histogram).
func (h *Handle) DrainChunk(buckets, moved int64, d time.Duration) {
	if h == nil {
		return
	}
	h.sh.c[cDrainChunks].Add(1)
	h.sh.c[cDrainBuckets].Add(uint64(buckets))
	h.sh.c[cDrainRecordsMoved].Add(uint64(moved))
	h.m.drainLat.Record(d.Nanoseconds())
}

// DrainHelp records a foreground writer pitching in on the drain.
func (h *Handle) DrainHelp() {
	if h != nil {
		h.sh.c[cDrainHelps].Add(1)
	}
}

// WriteGroup records one grouped write commit: how many keys committed
// together and how many flush runs they took (1 when the whole group fit one
// contiguous segment run).
func (h *Handle) WriteGroup(keys, runs int64) {
	if h == nil {
		return
	}
	h.sh.c[cWriteGroups].Add(1)
	h.sh.c[cWriteGroupKeys].Add(uint64(keys))
	h.sh.c[cWriteGroupFlushes].Add(uint64(runs))
	h.m.groupSize.Record(keys)
}

// VLogAppend records one user value-log append of the given total record
// words (GC relocation copies go to GCRelocate instead, so write
// amplification is their ratio).
func (h *Handle) VLogAppend(words int64) {
	if h != nil {
		h.sh.c[cVLogAppends].Add(1)
		h.sh.c[cVLogAppendWords].Add(uint64(words))
	}
}

// GCRelocate records one live record the value-log GC copied out of a victim
// segment, with its total record words.
func (h *Handle) GCRelocate(words int64) {
	if h != nil {
		h.sh.c[cGCRelocations].Add(1)
		h.sh.c[cGCRelocatedWords].Add(uint64(words))
	}
}

// GCRaced records a GC relocation whose conditional index rewrite lost to a
// racing user write — the copy became instant garbage.
func (h *Handle) GCRaced() {
	if h != nil {
		h.sh.c[cGCRaced].Add(1)
	}
}

// GCRecycle records one value-log segment recycled to the free list.
func (h *Handle) GCRecycle() {
	if h != nil {
		h.sh.c[cGCRecycles].Add(1)
	}
}

// GCVisit records how many records one GC pass read out of its victim: the
// ones whose liveness bit was set, not every record the segment held.
func (h *Handle) GCVisit(records int64) {
	if h != nil {
		h.sh.c[cGCVisited].Add(uint64(records))
	}
}

// VLogAckWait records n value-log appends that, their own record durable,
// waited for an earlier reservation to be acknowledged.
func (h *Handle) VLogAckWait(n int64) {
	if h != nil {
		h.sh.c[cVLogAckWaits].Add(uint64(n))
	}
}

// AddNVM merges a device-traffic delta bridged from nvm.Stats.
func (h *Handle) AddNVM(delta nvm.Stats) {
	if h == nil {
		return
	}
	c := &h.sh.c
	c[cNVMReadAccesses].Add(delta.ReadAccesses)
	c[cNVMReadWords].Add(delta.ReadWords)
	c[cNVMMediaBlockReads].Add(delta.MediaBlockReads)
	c[cNVMWriteAccesses].Add(delta.WriteAccesses)
	c[cNVMWriteWords].Add(delta.WriteWords)
	c[cNVMFlushes].Add(delta.Flushes)
	c[cNVMFences].Add(delta.Fences)
	c[cNVMModeledNanos].Add(delta.ModeledNanos)
}

// AtomicHist is a concurrently recordable histogram with the geometry of
// internal/histogram: per-bucket atomic counts plus a value sum, converted
// back to a *histogram.Histogram for percentile queries at snapshot time.
type AtomicHist struct {
	counts [histogram.Buckets]atomic.Uint64
	sum    atomic.Uint64
}

// Record adds one nanosecond observation.
func (a *AtomicHist) Record(v int64) {
	a.counts[histogram.BucketOf(v)].Add(1)
	if v > 0 {
		a.sum.Add(uint64(v))
	}
}

// Snapshot converts the current counts into a queryable Histogram.
func (a *AtomicHist) Snapshot() *histogram.Histogram {
	var counts [histogram.Buckets]uint64
	for i := range counts {
		counts[i] = a.counts[i].Load()
	}
	return histogram.FromCounts(counts[:], a.sum.Load())
}
