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

// Options configures a Table. The zero value is not valid; start from
// DefaultOptions.
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

	// MaxExpansions caps how many times a single operation may trigger a
	// table expansion before giving up with ErrFull.
	MaxExpansions int

	// DrainWorkers is how many background goroutines rehash the old bottom
	// level during an expansion, each over its own disjoint bucket range with
	// its own NVM handle and persisted progress word. Capped at the meta
	// block's MaxDrainRanges. 0 picks the default (DefaultDrainWorkers).
	DrainWorkers int
	// DrainChunkBuckets bounds how many buckets a drain worker rehashes per
	// shared-lock acquisition; smaller chunks tighten the tail latency of
	// foreground operations racing the drain at the price of more progress
	// persists. 0 picks the default (DefaultDrainChunkBuckets).
	DrainChunkBuckets int
	// BlockingResize restores the pre-incremental behaviour: the expanding
	// goroutine holds the resize lock exclusively for the whole drain,
	// stalling every foreground operation. Kept as the measurable baseline
	// for the resize latency experiment, and as an escape hatch.
	BlockingResize bool

	// RecoveryWorkers is the number of goroutines used to rebuild the OCF
	// and hot table after a restart (the paper's multi-threaded recovery).
	RecoveryWorkers int

	// LookupRetryBudget caps how many movement-hazard rescan passes one NVT
	// walk may take before reporting ErrContended. 0 means the default
	// (DefaultLookupRetryBudget); tests use tiny budgets to provoke the
	// contended paths deterministically.
	LookupRetryBudget int

	// Shards splits the keyspace across that many independent tables behind
	// a hash router (CreateRouter/OpenRouter): each shard owns its epoch
	// registry, resize state and hot table, so resizes, drains
	// and slot-lock traffic parallelise across shards. Must be a power of
	// two (the router routes on the high bits of h1, leaving the bits every
	// in-shard placement uses untouched), at most MaxShards. 0 and 1 both
	// mean unsharded — the single-table on-device layout is byte-identical
	// to a table created without the option, so existing images keep
	// opening. Table.Create/Open ignore the field; only the router consumes
	// it.
	Shards int

	// BatchEpochChunk bounds how many keys of one MultiGet/MultiPut/
	// MultiDelete are processed per epoch critical section. Between chunks
	// the batch exits and re-enters, so an arbitrarily large batch never
	// extends a concurrent resize's grace period by more than one chunk's
	// work. 0 picks the default (DefaultBatchEpochChunk).
	BatchEpochChunk int

	// WriteGroupChunk bounds how many keys of one MultiPut/MultiDelete
	// commit as a single group: the chunk's NVT writes run back-to-back in
	// bucket-sorted order and share each phase's barrier. Larger chunks
	// amortise the barriers further but hold more slot locks at once. 0
	// picks the default (DefaultWriteGroupChunk).
	WriteGroupChunk int

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
}

// DefaultDrainWorkers balances rehash completion time against the NVM
// bandwidth the drain steals from foreground writes; four workers finish a
// doubling quickly without saturating the emulated device.
const DefaultDrainWorkers = 4

// DefaultDrainChunkBuckets is 64 buckets (16KB of NVT) per shared-lock
// acquisition: large enough that progress persists are amortised, small
// enough that a pointer-swapping expansion never waits long behind a chunk.
const DefaultDrainChunkBuckets = 64

// DefaultBatchEpochChunk is how many batch keys run per epoch critical
// section when BatchEpochChunk is zero: large enough to amortise the
// enter/exit pair to noise, small enough that a batch never stalls a resize
// grace period for long.
const DefaultBatchEpochChunk = 64

// DefaultWriteGroupChunk is the group size a zero WriteGroupChunk means:
// matches DefaultBatchEpochChunk so one group is also one epoch chunk, and
// is past the knee where the per-phase barriers are fully amortised.
const DefaultWriteGroupChunk = 64

// DefaultLookupRetryBudget is the rescan cap a zero LookupRetryBudget means.
// A conclusive pass needs no rescans at all unless a record the walk raced
// actually moved, so real workloads spend the budget only under pathological
// same-shard churn — where exhausting it now yields ErrContended instead of
// the silent false miss it used to.
const DefaultLookupRetryBudget = 1024

// DefaultOptions returns the paper's tuned configuration.
func DefaultOptions() Options {
	return Options{
		SegmentBuckets:     64, // 16KB segments
		InitBottomSegments: 1,
		HotSlotsPerBucket:  4,
		Replacer:           ReplacerRAFL,
		DisplaceOnInsert:   false,
		MaxExpansions:      24,
		DrainWorkers:       DefaultDrainWorkers,
		DrainChunkBuckets:  DefaultDrainChunkBuckets,
		RecoveryWorkers:    4,
		LookupRetryBudget:  DefaultLookupRetryBudget,
		BatchEpochChunk:    DefaultBatchEpochChunk,
		WriteGroupChunk:    DefaultWriteGroupChunk,
		Seed:               1,
	}
}

// withDefaults normalises optional zero values; Create and Open apply it
// after Validate so the rest of the package never sees a zero budget.
func (o Options) withDefaults() Options {
	if o.LookupRetryBudget == 0 {
		o.LookupRetryBudget = DefaultLookupRetryBudget
	}
	if o.DrainWorkers == 0 {
		o.DrainWorkers = DefaultDrainWorkers
	}
	if o.DrainWorkers > MaxDrainRanges {
		o.DrainWorkers = MaxDrainRanges
	}
	if o.DrainChunkBuckets == 0 {
		o.DrainChunkBuckets = DefaultDrainChunkBuckets
	}
	if o.BatchEpochChunk == 0 {
		o.BatchEpochChunk = DefaultBatchEpochChunk
	}
	if o.WriteGroupChunk == 0 {
		o.WriteGroupChunk = DefaultWriteGroupChunk
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
	if o.MaxExpansions <= 0 {
		return fmt.Errorf("core: MaxExpansions %d must be positive", o.MaxExpansions)
	}
	if o.RecoveryWorkers <= 0 {
		return fmt.Errorf("core: RecoveryWorkers %d must be positive", o.RecoveryWorkers)
	}
	if o.DrainWorkers < 0 {
		return fmt.Errorf("core: DrainWorkers %d must not be negative", o.DrainWorkers)
	}
	if o.DrainChunkBuckets < 0 {
		return fmt.Errorf("core: DrainChunkBuckets %d must not be negative", o.DrainChunkBuckets)
	}
	if o.LookupRetryBudget < 0 {
		return fmt.Errorf("core: LookupRetryBudget %d must not be negative", o.LookupRetryBudget)
	}
	if o.BatchEpochChunk < 0 {
		return fmt.Errorf("core: BatchEpochChunk %d must not be negative", o.BatchEpochChunk)
	}
	if o.WriteGroupChunk < 0 {
		return fmt.Errorf("core: WriteGroupChunk %d must not be negative", o.WriteGroupChunk)
	}
	if o.Shards < 0 || o.Shards > MaxShards {
		return fmt.Errorf("core: Shards %d outside [0,%d]", o.Shards, MaxShards)
	}
	if o.Shards&(o.Shards-1) != 0 {
		return fmt.Errorf("core: Shards %d must be a power of two", o.Shards)
	}
	return nil
}
