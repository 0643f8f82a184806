// Package core implements HDNH, the paper's hybrid DRAM-NVM hashing scheme.
//
// Data placement follows the paper exactly:
//
//   - The non-volatile table (NVT) lives in NVM: a two-level structure of
//     segments of 256-byte, 8-slot buckets holding the key-value records.
//   - The Optimistic Compression Filter (OCF) lives in DRAM: one control
//     word per NVT slot carrying a 1-byte fingerprint plus the valid bit,
//     per-slot lock bit (the paper's opmap) and version counter used for
//     fine-grained optimistic concurrency.
//   - The hot table lives in DRAM: a smaller mirror of the NVT caching
//     frequently searched records, managed by the RAFL replacement strategy
//     (or LRU, for the paper's HDNH(LRU) comparison).
//
// Writes go to the NVT with crash-atomic slot commits and are mirrored into
// the hot table before they return (the paper's synchronous write mechanism,
// applied by the writing goroutine itself). Reads try the hot table, then the
// OCF, and touch NVM only on a fingerprint hit.
package core

import (
	"fmt"

	"hdnh/internal/flight"
	"hdnh/internal/heat"
	"hdnh/internal/obs"
)

// Replacer selects the hot-table replacement strategy.
type Replacer int

const (
	// ReplacerRAFL is the paper's strategy: evict a cold slot if present,
	// otherwise a random slot, then clear the bucket's hot bits.
	ReplacerRAFL Replacer = iota
	// ReplacerLRU approximates Rewo's LRU cache for the paper's HDNH(LRU)
	// comparison: per-bucket recency timestamps updated under a bucket lock
	// on every hit, reproducing LRU's bookkeeping overhead.
	ReplacerLRU
)

// String returns the replacer name.
func (r Replacer) String() string {
	switch r {
	case ReplacerRAFL:
		return "RAFL"
	case ReplacerLRU:
		return "LRU"
	default:
		return fmt.Sprintf("Replacer(%d)", int(r))
	}
}

// Options configures a store: a Router and each shard table behind it. The
// zero value is not valid; start from DefaultOptions.
type Options struct {
	// SegmentBuckets is the paper's m: buckets per segment. The default 64
	// gives 16KB segments, the optimum the paper finds in Figure 11a.
	SegmentBuckets int
	// InitBottomSegments is the paper's M: the bottom level starts with M
	// segments and the top level with 2M.
	InitBottomSegments int

	// HotSlotsPerBucket sizes hot-table buckets; the paper settles on 4
	// (Figure 11b). 0 disables the hot table entirely.
	HotSlotsPerBucket int
	// Replacer selects RAFL (default) or LRU replacement.
	Replacer Replacer

	// SyncWrites is ignored. It used to move the hot-table mirror onto
	// background writer goroutines; every write now applies its own mirror
	// (syncwrite.go). The field stays only because the repository benchmark
	// under bench/ assigns it, and goes when that does.
	SyncWrites bool

	// DisplaceOnInsert allows one cuckoo displacement before resorting to a
	// resize when all candidate buckets are full (a PFHT-style extension;
	// off by default, matching the paper's criticism of eviction cost).
	DisplaceOnInsert bool

	// BlockingResize restores the pre-incremental behaviour: the expanding
	// goroutine holds the resize lock exclusively for the whole drain,
	// stalling every foreground operation. Kept as the measurable baseline
	// for the resize latency experiment, and as an escape hatch.
	BlockingResize bool

	// Shards splits the keyspace across that many independent tables behind
	// a hash router (CreateRouter/OpenRouter): each shard owns its epoch
	// registry, resize state and hot table, so resizes, drains
	// and slot-lock traffic parallelise across shards. Must be a power of
	// two (the router routes on the high bits of h1, leaving the bits every
	// in-shard placement uses untouched), at most MaxShards. 0 and 1 both
	// mean unsharded: one table linked through root slot 0, the image
	// unsharded stores have always had.
	Shards int

	// Metrics, when non-nil, enables observability: sessions and drain
	// workers record into it (see internal/obs). nil compiles the accounting
	// down to no-ops.
	Metrics *obs.Metrics

	// Flight, when non-nil, enables the flight recorder: sessions, the
	// resize machinery, recovery, and the hot table trace typed events into
	// per-handle ring buffers (see internal/flight). nil compiles the
	// tracing down to no-ops.
	Flight *flight.Recorder

	// Heat, when non-nil, enables sampled hot-key attribution: sessions feed
	// a per-shard Space-Saving sketch from the operation paths (see
	// internal/heat). nil compiles the sampling down to no-ops, exactly like
	// Metrics and Flight.
	Heat *heat.Monitor
	// heatShard is which Monitor shard this table's sessions feed; the
	// router sets it per shard, everyone else leaves it 0.
	heatShard int

	// Seed makes replacement decisions and any sampling deterministic.
	Seed uint64

	// Fixed internals: zero means the constant below. Only this package's
	// tests set them, to reach rare paths (an exhausted rescan budget, a
	// one-bucket drain chunk, a group of six, one expansion) deterministically.
	lookupRetryBudget int // movement-hazard rescans per NVT walk
	drainWorkers      int // goroutines rehashing one drain
	drainChunkBuckets int // buckets per drain claim and per progress word
	batchChunk        int // keys per batch epoch section and per write group
	maxExpansions     int // expansions one operation may trigger before ErrFull
	recoveryWorkers   int // goroutines rebuilding the OCF and hot table on Open
}

// The fixed internals' values; docs/TUNING.md has the measurements behind
// them.
const (
	// A conclusive pass needs no rescan unless a record the walk raced moved,
	// so only pathological same-shard churn spends the budget, and exhausting
	// it yields ErrContended, never a false miss.
	defaultLookupRetryBudget = 1024
	// Four workers finish a doubling quickly without saturating the emulated
	// device's write bandwidth.
	defaultDrainWorkers = 4
	// 64 buckets (16KB of NVT) per claim amortise the progress persists, and
	// a pointer-swapping expansion never waits long behind a chunk.
	defaultDrainChunkBuckets = 64
	// One batch chunk is both an epoch section (a large batch never stalls a
	// resize grace period for long) and a write group (past the knee where
	// the group's three barriers are amortised).
	defaultBatchChunk = 64
	// A write still without a slot after 24 doublings faces a full device or
	// a defect, not a small table.
	defaultMaxExpansions = 24
	// The paper's multi-threaded recovery, at the drain's worker count.
	defaultRecoveryWorkers = 4
)

// DefaultOptions returns the paper's tuned configuration.
func DefaultOptions() Options {
	return Options{
		SegmentBuckets:     64, // 16KB segments
		InitBottomSegments: 1,
		HotSlotsPerBucket:  4,
		Replacer:           ReplacerRAFL,
		DisplaceOnInsert:   false,
		Seed:               1,
	}
}

// withDefaults fills the fixed internals; tables and routers apply it after
// Validate, so the rest of the package never sees a zero.
func (o Options) withDefaults() Options {
	if o.lookupRetryBudget == 0 {
		o.lookupRetryBudget = defaultLookupRetryBudget
	}
	if o.drainWorkers == 0 {
		o.drainWorkers = defaultDrainWorkers
	}
	if o.drainChunkBuckets == 0 {
		o.drainChunkBuckets = defaultDrainChunkBuckets
	}
	if o.batchChunk == 0 {
		o.batchChunk = defaultBatchChunk
	}
	if o.maxExpansions == 0 {
		o.maxExpansions = defaultMaxExpansions
	}
	if o.recoveryWorkers == 0 {
		o.recoveryWorkers = defaultRecoveryWorkers
	}
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.SegmentBuckets <= 0 {
		return fmt.Errorf("core: SegmentBuckets %d must be positive", o.SegmentBuckets)
	}
	if o.InitBottomSegments <= 0 {
		return fmt.Errorf("core: InitBottomSegments %d must be positive", o.InitBottomSegments)
	}
	if o.HotSlotsPerBucket < 0 || o.HotSlotsPerBucket > 32 {
		return fmt.Errorf("core: HotSlotsPerBucket %d outside [0,32]", o.HotSlotsPerBucket)
	}
	if o.Replacer != ReplacerRAFL && o.Replacer != ReplacerLRU {
		return fmt.Errorf("core: unknown replacer %d", int(o.Replacer))
	}
	if o.Shards < 0 || o.Shards > MaxShards {
		return fmt.Errorf("core: Shards %d outside [0,%d]", o.Shards, MaxShards)
	}
	if o.Shards&(o.Shards-1) != 0 {
		return fmt.Errorf("core: Shards %d must be a power of two", o.Shards)
	}
	return nil
}
