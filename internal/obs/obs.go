// Package obs is the observability substrate for a running HDNH table: a
// zero-allocation, sharded-atomic metrics registry recording per-operation
// counters and latency histograms (split by hot-table hit / NVT hit / miss),
// retry and spin accounting for the optimistic-concurrency paths, hot-table
// fill/eviction traffic, and device-level NVM counters bridged from
// nvm.Stats.
//
// The recording surface is the Recorder interface. A disabled table uses
// Nop (every method is an empty body the compiler can see through); an
// enabled table hands each Session a *Handle bound to one counter shard, so
// concurrent sessions never contend on a counter cache line. Latency is
// sampled (Config.SampleEvery) because reading the clock twice per operation
// would dominate sub-microsecond hot-table hits; counters are exact.
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

// Recorder is the instrumentation surface the core hot paths call. It is an
// interface so a disabled table compiles the accounting out to Nop's empty
// bodies; the enabled implementation is *Handle.
type Recorder interface {
	// Start returns the op start time when this operation is latency-sampled,
	// or the zero time otherwise. Callers pass the result to Op unchanged.
	Start() time.Time
	// Op records one completed operation, and its latency when start is
	// non-zero.
	Op(op Op, out Outcome, start time.Time)
	// Probe records one NVT walk: rescan passes beyond the first, accounted
	// slot reads, and waitUnlocked spin iterations.
	Probe(rescans, probes, spins int64)
	// Contended records one retry-budget exhaustion event.
	Contended()
	// GetRetry records one capped-backoff retry round inside Get.
	GetRetry()
	// HotFill records a search-path cache fill, rejected when the OCF
	// validation turned it away.
	HotFill(rejected bool)
	// HotEvict records one hot-table replacement (RAFL or LRU victim).
	HotEvict()
	// Expansion records one completed table expansion and its end-to-end
	// duration (swap through drain completion).
	Expansion(d time.Duration)
	// ExpansionSwap records the exclusive-lock window of an incremental
	// expansion — the stall every foreground operation actually observes.
	ExpansionSwap(d time.Duration)
	// DrainChunk records one rehashed drain chunk: buckets covered, records
	// moved, and the chunk's shared-lock residency (the per-chunk stall
	// histogram).
	DrainChunk(buckets, moved int64, d time.Duration)
	// DrainHelp records a foreground writer pitching in on the drain.
	DrainHelp()
	// VLogAppend records one user value-log append of the given total
	// record words (GC relocation copies go to GCRelocate instead, so
	// write amplification is their ratio).
	VLogAppend(words int64)
	// WriteGroup records one grouped write commit: how many keys committed
	// together and how many flush runs they took (1 when the whole group
	// fit one contiguous segment run).
	WriteGroup(keys, runs int64)
	// GCRelocate records one live record the value-log GC copied out of a
	// victim segment, with its total record words.
	GCRelocate(words int64)
	// GCRaced records a GC relocation whose conditional index rewrite lost
	// to a racing user write — the copy became instant garbage.
	GCRaced()
	// GCRecycle records one value-log segment recycled to the free list.
	GCRecycle()
	// GCVisit records how many records one GC pass read out of its victim:
	// the ones whose liveness bit was set, not every record the segment held.
	GCVisit(records int64)
	// VLogAckWait records n value-log appends that, their own record
	// durable, waited for an earlier reservation to be acknowledged.
	VLogAckWait(n int64)
	// AddNVM merges a device-traffic delta bridged from nvm.Stats.
	AddNVM(delta nvm.Stats)
}

// Nop is the disabled Recorder.
type Nop struct{}

var _ Recorder = Nop{}

func (Nop) Start() time.Time                       { return time.Time{} }
func (Nop) Op(Op, Outcome, time.Time)              {}
func (Nop) Probe(int64, int64, int64)              {}
func (Nop) Contended()                             {}
func (Nop) GetRetry()                              {}
func (Nop) HotFill(bool)                           {}
func (Nop) HotEvict()                              {}
func (Nop) Expansion(time.Duration)                {}
func (Nop) ExpansionSwap(time.Duration)            {}
func (Nop) DrainChunk(int64, int64, time.Duration) {}
func (Nop) DrainHelp()                             {}
func (Nop) VLogAppend(int64)                       {}
func (Nop) WriteGroup(int64, int64)                {}
func (Nop) GCRelocate(int64)                       {}
func (Nop) GCRaced()                               {}
func (Nop) GCRecycle()                             {}
func (Nop) GCVisit(int64)                          {}
func (Nop) VLogAckWait(int64)                      {}
func (Nop) AddNVM(nvm.Stats)                       {}

// shardCount bounds counter contention: handles are dealt shards round-robin,
// and a snapshot sums across all of them.
const shardCount = 64

// nvmFields indexes the bridged nvm.Stats counters inside a shard.
const (
	nvmReadAccesses = iota
	nvmReadWords
	nvmMediaBlockReads
	nvmWriteAccesses
	nvmWriteWords
	nvmFlushes
	nvmFences
	nvmModeledNanos
	nvmFields
)

// shard is one cache-padded slice of every counter.
type shard struct {
	ops [NumOps][NumOutcomes]atomic.Uint64

	lookupRescans  atomic.Uint64
	nvtProbes      atomic.Uint64
	spins          atomic.Uint64
	contended      atomic.Uint64
	getRetries     atomic.Uint64
	hotFills       atomic.Uint64
	hotFillsReject atomic.Uint64
	hotEvictions   atomic.Uint64
	expansions     atomic.Uint64
	expansionNanos atomic.Uint64

	expansionSwaps     atomic.Uint64
	expansionSwapNanos atomic.Uint64
	drainChunks        atomic.Uint64
	drainBuckets       atomic.Uint64
	drainMoved         atomic.Uint64
	drainHelps         atomic.Uint64

	writeGroups     atomic.Uint64
	writeGroupKeys  atomic.Uint64
	writeGroupFlush atomic.Uint64

	vlogAppends      atomic.Uint64
	vlogAppendWords  atomic.Uint64
	gcRelocations    atomic.Uint64
	gcRelocatedWords atomic.Uint64
	gcRaced          atomic.Uint64
	gcRecycles       atomic.Uint64
	gcVisited        atomic.Uint64
	vlogAckWaits     atomic.Uint64

	nvm [nvmFields]atomic.Uint64

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

// Handle returns a Recorder bound to one shard. Each Session (and each
// drain worker) should own its own handle; a Handle's sampling counter
// is not safe for concurrent use.
func (m *Metrics) Handle() *Handle {
	return &Handle{m: m, sh: &m.shards[m.seq.Add(1)%shardCount]}
}

// Handle is the enabled Recorder: counters go to the handle's shard, latency
// to the registry's shared atomic histograms.
type Handle struct {
	m  *Metrics
	sh *shard
	n  uint64 // ops seen, drives sampling
}

var _ Recorder = (*Handle)(nil)

func (h *Handle) Start() time.Time {
	h.n++
	if h.n%h.m.sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (h *Handle) Op(op Op, out Outcome, start time.Time) {
	h.sh.ops[op][out].Add(1)
	if !start.IsZero() {
		h.m.lat[op][out].Record(time.Since(start).Nanoseconds())
	}
}

func (h *Handle) Probe(rescans, probes, spins int64) {
	if rescans > 0 {
		h.sh.lookupRescans.Add(uint64(rescans))
	}
	if probes > 0 {
		h.sh.nvtProbes.Add(uint64(probes))
	}
	if spins > 0 {
		h.sh.spins.Add(uint64(spins))
	}
}

func (h *Handle) Contended() { h.sh.contended.Add(1) }
func (h *Handle) GetRetry()  { h.sh.getRetries.Add(1) }
func (h *Handle) HotEvict()  { h.sh.hotEvictions.Add(1) }

func (h *Handle) HotFill(rejected bool) {
	h.sh.hotFills.Add(1)
	if rejected {
		h.sh.hotFillsReject.Add(1)
	}
}

func (h *Handle) Expansion(d time.Duration) {
	h.sh.expansions.Add(1)
	h.sh.expansionNanos.Add(uint64(d.Nanoseconds()))
}

func (h *Handle) ExpansionSwap(d time.Duration) {
	h.sh.expansionSwaps.Add(1)
	h.sh.expansionSwapNanos.Add(uint64(d.Nanoseconds()))
}

func (h *Handle) DrainChunk(buckets, moved int64, d time.Duration) {
	h.sh.drainChunks.Add(1)
	h.sh.drainBuckets.Add(uint64(buckets))
	h.sh.drainMoved.Add(uint64(moved))
	h.m.drainLat.Record(d.Nanoseconds())
}

func (h *Handle) DrainHelp() { h.sh.drainHelps.Add(1) }

func (h *Handle) WriteGroup(keys, runs int64) {
	h.sh.writeGroups.Add(1)
	h.sh.writeGroupKeys.Add(uint64(keys))
	h.sh.writeGroupFlush.Add(uint64(runs))
	h.m.groupSize.Record(keys)
}

func (h *Handle) VLogAppend(words int64) {
	h.sh.vlogAppends.Add(1)
	h.sh.vlogAppendWords.Add(uint64(words))
}

func (h *Handle) GCRelocate(words int64) {
	h.sh.gcRelocations.Add(1)
	h.sh.gcRelocatedWords.Add(uint64(words))
}

func (h *Handle) GCRaced()   { h.sh.gcRaced.Add(1) }
func (h *Handle) GCRecycle() { h.sh.gcRecycles.Add(1) }

func (h *Handle) GCVisit(records int64) { h.sh.gcVisited.Add(uint64(records)) }
func (h *Handle) VLogAckWait(n int64)   { h.sh.vlogAckWaits.Add(uint64(n)) }

func (h *Handle) AddNVM(delta nvm.Stats) {
	n := &h.sh.nvm
	n[nvmReadAccesses].Add(delta.ReadAccesses)
	n[nvmReadWords].Add(delta.ReadWords)
	n[nvmMediaBlockReads].Add(delta.MediaBlockReads)
	n[nvmWriteAccesses].Add(delta.WriteAccesses)
	n[nvmWriteWords].Add(delta.WriteWords)
	n[nvmFlushes].Add(delta.Flushes)
	n[nvmFences].Add(delta.Fences)
	n[nvmModeledNanos].Add(delta.ModeledNanos)
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
