package obs

import "hdnh/internal/nvm"

// LatencyStat summarises one (op, outcome) latency histogram. Counts reflect
// only the sampled operations (see Config.SampleEvery); the quantiles are
// upper bounds with the bounded relative error internal/histogram provides.
type LatencyStat struct {
	Sampled uint64  `json:"sampled"`
	MeanNs  float64 `json:"mean_ns"`
	P50Ns   int64   `json:"p50_ns"`
	P99Ns   int64   `json:"p99_ns"`
	P999Ns  int64   `json:"p999_ns"`
	MaxNs   int64   `json:"max_ns"`
}

// latencyOf summarises a histogram, or returns the zero LatencyStat when it
// recorded nothing.
func latencyOf(a *AtomicHist) LatencyStat {
	h := a.Snapshot()
	if h.Count() == 0 {
		return LatencyStat{}
	}
	return LatencyStat{
		Sampled: h.Count(),
		MeanNs:  h.Mean(),
		P50Ns:   h.Percentile(50),
		P99Ns:   h.Percentile(99),
		P999Ns:  h.Percentile(99.9),
		MaxNs:   h.Max(),
	}
}

// Gauges are point-in-time table-shape readings a Snapshot carries alongside
// the monotonic counters; core.Router.MetricsSnapshot fills them.
type Gauges struct {
	Items           int64   `json:"items"`
	Capacity        int64   `json:"capacity"`
	LoadFactor      float64 `json:"load_factor"`
	Generation      uint64  `json:"generation"`
	HotEntries      int64   `json:"hot_entries"`
	HotCapacity     int64   `json:"hot_capacity"`
	HotFillRatio    float64 `json:"hot_fill_ratio"`
	DeviceWords     int64   `json:"device_words"`
	DeviceWordsUsed int64   `json:"device_words_used"`
	DeviceFlushes   int64   `json:"device_flushes"`
	// Resizing is 1 while an incremental rehash is in flight;
	// DrainBucketsRemaining is its not-yet-durably-complete bucket count.
	Resizing              int64 `json:"resizing"`
	DrainBucketsRemaining int64 `json:"drain_buckets_remaining"`
	// RecoverySegmentsPending counts the segments a reopened store's
	// recovery sweep has yet to build; 0 once it is over. Items counts only
	// the built ones until then.
	RecoverySegmentsPending int64 `json:"recovery_segments_pending"`
	// DRAMIndexOCFBytes and DRAMIndexHotBytes are the DRAM the index holds:
	// the OCF and SWAR words, and the hot table. Each counts its chunk
	// pointer arrays and the chunks that exist, so after a reopen they grow
	// from the pointer arrays as the sweep and the operations create chunks.
	DRAMIndexOCFBytes int64 `json:"dram_index_ocf_bytes"`
	DRAMIndexHotBytes int64 `json:"dram_index_hot_bytes"`
	// Value-log shape (zero unless the store runs one — see bigkv):
	// segment counts plus the live/used word totals whose ratio is the
	// log's garbage fraction.
	VLogSegments     int64 `json:"vlog_segments"`
	VLogFreeSegments int64 `json:"vlog_free_segments"`
	VLogLiveWords    int64 `json:"vlog_live_words"`
	VLogUsedWords    int64 `json:"vlog_used_words"`
	// EpochSlotsLive counts epoch slots owned by sessions not yet closed —
	// each live slot can pin a resize grace period, so sustained growth
	// means leaked sessions (bigkv.Store.EpochSlotsLive fills it).
	EpochSlotsLive int64 `json:"epoch_slots_live"`
	// Shards is the hash-router shard count (0 for an unsharded table) and
	// PerShard the per-shard shape breakdown the aggregate fields above sum
	// over. Counters are shared across shards; only shape is per-shard.
	Shards   int64         `json:"shards,omitempty"`
	PerShard []ShardGauges `json:"per_shard,omitempty"`
}

// ShardGauges is one router shard's shape reading: which shard is resizing,
// how its load is balanced, and (for bigkv) its value log's fill — the
// per-shard visibility that makes a stuck shard diagnosable.
type ShardGauges struct {
	Shard                 int64   `json:"shard"`
	Items                 int64   `json:"items"`
	Capacity              int64   `json:"capacity"`
	LoadFactor            float64 `json:"load_factor"`
	Generation            uint64  `json:"generation"`
	Resizing              int64   `json:"resizing"`
	DrainBucketsRemaining int64   `json:"drain_buckets_remaining"`
	HotEntries            int64   `json:"hot_entries"`
	VLogSegments          int64   `json:"vlog_segments,omitempty"`
	VLogFreeSegments      int64   `json:"vlog_free_segments,omitempty"`
	VLogLiveWords         int64   `json:"vlog_live_words,omitempty"`
	VLogUsedWords         int64   `json:"vlog_used_words,omitempty"`
}

// Snapshot is a point-in-time copy of every counter in a Metrics registry.
type Snapshot struct {
	// Ops counts completed operations per (op, outcome).
	Ops [NumOps][NumOutcomes]uint64
	// Latency summarises sampled latency per (op, outcome).
	Latency [NumOps][NumOutcomes]LatencyStat

	// LookupRescans counts movement-hazard rescan passes beyond each walk's
	// first; NVTProbes counts accounted slot reads those walks issued.
	LookupRescans uint64
	NVTProbes     uint64
	// Spins counts waitUnlocked backoff iterations; Contended counts
	// retry-budget exhaustions; GetRetries counts Get's backoff rounds.
	Spins      uint64
	Contended  uint64
	GetRetries uint64

	// Hot-table traffic: search-path fills (and how many the OCF validation
	// rejected) and replacement evictions.
	HotFills         uint64
	HotFillsRejected uint64
	HotEvictions     uint64
	// BGApplies is always 0 and neither exposition carries it: the
	// background writer pool it counted is gone. The field stays only
	// because bench/workload.go reads it for core.bg_applies_per_write.
	BGApplies uint64

	// Expansions counts completed resizes and ExpansionNanos their total
	// end-to-end duration (swap through drain completion).
	Expansions     uint64
	ExpansionNanos uint64

	// ExpansionSwaps counts incremental-resize pointer swaps and
	// ExpansionSwapNanos their total exclusive-lock residency — the stall
	// foreground operations actually observe per doubling.
	ExpansionSwaps     uint64
	ExpansionSwapNanos uint64
	// DrainChunks / DrainBuckets / DrainRecordsMoved describe incremental
	// rehash progress; DrainHelps counts foreground writers that pitched in.
	DrainChunks       uint64
	DrainBuckets      uint64
	DrainRecordsMoved uint64
	DrainHelps        uint64
	// DrainChunkLatency summarises how long each drain chunk held the shared
	// resize lock (every chunk is recorded, not sampled).
	DrainChunkLatency LatencyStat

	// Grouped write commits: how many groups, how many keys they carried,
	// how many flush runs they took (runs/groups near 1 means batches
	// rarely straddle segment boundaries), and the keys-per-group shape.
	WriteGroups       uint64
	WriteGroupKeys    uint64
	WriteGroupFlushes uint64
	WriteGroupSize    LatencyStat

	// Value-log traffic: user appends vs GC relocation copies (their word
	// ratio is the GC write amplification), rewrites the GC lost to racing
	// user writes, and segments recycled. GCVisited counts the records the
	// collector read out of its victims (the live ones; over GCRecycles it is
	// what a recycle costs), VLogAckWaits the appends that waited for an
	// earlier one's acknowledgment (over VLogAppends+GCRelocations, how often
	// concurrent appenders queue on each other).
	VLogAppends      uint64
	VLogAppendWords  uint64
	VLogAckWaits     uint64
	GCRelocations    uint64
	GCRelocatedWords uint64
	GCRaced          uint64
	GCRecycles       uint64
	GCVisited        uint64

	// NVM aggregates the device traffic sessions published via SyncObs.
	NVM nvm.Stats

	// Gauges are table-shape readings taken with the snapshot.
	Gauges Gauges

	// RESP, when non-nil, carries the binary wire listener's counters so
	// the served-protocol series ride the same exposition as the table's
	// (hdnhserve fills it when -resp is set).
	RESP *RESPSnapshot
}

// counter indexes one scalar counter in a shard. Each is declared once, by
// its row in counters; Metrics.Snapshot, Snapshot.Sub and both expositions
// loop over that table.
type counter uint8

const (
	cLookupRescans counter = iota
	cNVTProbes
	cSpins
	cContended
	cGetRetries
	cHotFills
	cHotFillsRejected
	cHotEvictions
	cExpansions
	cExpansionNanos
	cExpansionSwaps
	cExpansionSwapNanos
	cDrainChunks
	cDrainBuckets
	cDrainRecordsMoved
	cDrainHelps
	cWriteGroups
	cWriteGroupKeys
	cWriteGroupFlushes
	cVLogAppends
	cVLogAppendWords
	cGCRelocations
	cGCRelocatedWords
	cGCRaced
	cGCRecycles
	cGCVisited
	cVLogAckWaits
	cNVMReadAccesses
	cNVMReadWords
	cNVMMediaBlockReads
	cNVMWriteAccesses
	cNVMWriteWords
	cNVMFlushes
	cNVMFences
	cNVMModeledNanos
	numCounters
)

// counterDef declares one counter: its Prometheus name and HELP text, its
// /metrics.json key ("nvm."-prefixed keys nest under "nvm"), the Snapshot
// field that holds it and, when one follows it in /metrics, a summary.
type counterDef struct {
	prom, help, json string
	field            func(*Snapshot) *uint64
	summary          *summaryDef
}

// summaryDef declares an unlabelled summary a Snapshot carries as a
// LatencyStat; p999 adds the 0.999 quantile (duration summaries have it,
// length summaries do not).
type summaryDef struct {
	prom, help, json string
	p999             bool
	stat             func(*Snapshot) LatencyStat
}

// counters lists every counter in /metrics order.
var counters = [numCounters]counterDef{
	cLookupRescans: {"hdnh_lookup_rescans_total", "Movement-hazard rescan passes beyond each NVT walk's first.", "lookup_rescans",
		func(s *Snapshot) *uint64 { return &s.LookupRescans }, nil},
	cNVTProbes: {"hdnh_nvt_probe_reads_total", "Accounted NVT slot reads issued by lookups.", "nvt_probe_reads",
		func(s *Snapshot) *uint64 { return &s.NVTProbes }, nil},
	cSpins: {"hdnh_lock_spins_total", "waitUnlocked backoff iterations on locked OCF words.", "lock_spins",
		func(s *Snapshot) *uint64 { return &s.Spins }, nil},
	cContended: {"hdnh_contended_total", "Lookup retry-budget exhaustions (would have been silent false misses).", "contended",
		func(s *Snapshot) *uint64 { return &s.Contended }, nil},
	cGetRetries: {"hdnh_get_retries_total", "Capped-backoff retry rounds inside Get after budget exhaustion.", "get_retries",
		func(s *Snapshot) *uint64 { return &s.GetRetries }, nil},
	cHotFills: {"hdnh_hot_fills_total", "Search-path hot-table fill attempts.", "hot_fills",
		func(s *Snapshot) *uint64 { return &s.HotFills }, nil},
	cHotFillsRejected: {"hdnh_hot_fills_rejected_total", "Fills rejected by OCF validation (record moved or changed).", "hot_fills_rejected",
		func(s *Snapshot) *uint64 { return &s.HotFillsRejected }, nil},
	cHotEvictions: {"hdnh_hot_evictions_total", "Hot-table replacement evictions.", "hot_evictions",
		func(s *Snapshot) *uint64 { return &s.HotEvictions }, nil},
	cExpansions: {"hdnh_expansions_total", "Completed table expansions.", "expansions",
		func(s *Snapshot) *uint64 { return &s.Expansions }, nil},
	cExpansionNanos: {"hdnh_expansion_nanoseconds_total", "Total time spent expanding (swap through drain completion).", "expansion_ns",
		func(s *Snapshot) *uint64 { return &s.ExpansionNanos }, nil},
	cExpansionSwaps: {"hdnh_expansion_swaps_total", "Incremental-resize pointer swaps.", "expansion_swaps",
		func(s *Snapshot) *uint64 { return &s.ExpansionSwaps }, nil},
	cExpansionSwapNanos: {"hdnh_expansion_swap_nanoseconds_total", "Total exclusive-lock residency of resize pointer swaps.", "expansion_swap_ns",
		func(s *Snapshot) *uint64 { return &s.ExpansionSwapNanos }, nil},
	cDrainChunks: {"hdnh_drain_chunks_total", "Rehash chunks completed by the incremental drain.", "drain_chunks",
		func(s *Snapshot) *uint64 { return &s.DrainChunks }, nil},
	cDrainBuckets: {"hdnh_drain_buckets_total", "Buckets rehashed by the incremental drain.", "drain_buckets",
		func(s *Snapshot) *uint64 { return &s.DrainBuckets }, nil},
	cDrainRecordsMoved: {"hdnh_drain_records_moved_total", "Records moved into the new structure by the incremental drain.", "drain_records_moved",
		func(s *Snapshot) *uint64 { return &s.DrainRecordsMoved }, nil},
	cDrainHelps: {"hdnh_drain_helps_total", "Drain chunks contributed by foreground writers.", "drain_helps",
		func(s *Snapshot) *uint64 { return &s.DrainHelps },
		&summaryDef{"hdnh_drain_chunk_nanoseconds", "Time to rehash one drain chunk, its group commits included.", "drain_chunk_latency_ns",
			true, func(s *Snapshot) LatencyStat { return s.DrainChunkLatency }}},
	cWriteGroups: {"hdnh_write_groups_total", "Grouped write commits (batched puts/deletes committed as one group).", "write_groups",
		func(s *Snapshot) *uint64 { return &s.WriteGroups }, nil},
	cWriteGroupKeys: {"hdnh_write_group_keys_total", "Keys committed through grouped writes.", "write_group_keys",
		func(s *Snapshot) *uint64 { return &s.WriteGroupKeys }, nil},
	cWriteGroupFlushes: {"hdnh_write_group_flushes_total", "Value-log flush runs grouped writes took (near groups_total means batches rarely straddle segments).", "write_group_flushes",
		func(s *Snapshot) *uint64 { return &s.WriteGroupFlushes },
		&summaryDef{"hdnh_write_group_size", "Keys per grouped write commit (a count, not a duration).", "write_group_size",
			false, func(s *Snapshot) LatencyStat { return s.WriteGroupSize }}},
	cVLogAppends: {"hdnh_vlog_appends_total", "User value-log record appends.", "vlog_appends",
		func(s *Snapshot) *uint64 { return &s.VLogAppends }, nil},
	cVLogAppendWords: {"hdnh_vlog_append_words_total", "Words appended to the value log by users.", "vlog_append_words",
		func(s *Snapshot) *uint64 { return &s.VLogAppendWords }, nil},
	cGCRelocations: {"hdnh_gc_relocations_total", "Live records copied out of GC victim segments.", "gc_relocations",
		func(s *Snapshot) *uint64 { return &s.GCRelocations }, nil},
	cGCRelocatedWords: {"hdnh_gc_relocated_words_total", "Words the GC copied between segments.", "gc_relocated_words",
		func(s *Snapshot) *uint64 { return &s.GCRelocatedWords }, nil},
	cGCRaced: {"hdnh_gc_raced_total", "GC index rewrites lost to racing user writes.", "gc_raced",
		func(s *Snapshot) *uint64 { return &s.GCRaced }, nil},
	cGCRecycles: {"hdnh_gc_recycles_total", "Value-log segments recycled to the free list.", "gc_recycles",
		func(s *Snapshot) *uint64 { return &s.GCRecycles }, nil},
	cGCVisited: {"hdnh_gc_visited_records_total", "Records the GC read out of victim segments (their live ones).", "gc_visited_records",
		func(s *Snapshot) *uint64 { return &s.GCVisited }, nil},
	cVLogAckWaits: {"hdnh_vlog_ack_waits_total", "Value-log appends that waited for an earlier append's acknowledgment.", "vlog_ack_waits",
		func(s *Snapshot) *uint64 { return &s.VLogAckWaits }, nil},
	cNVMReadAccesses: {"hdnh_nvm_read_accesses_total", "Bridged device logical reads.", "nvm.read_accesses",
		func(s *Snapshot) *uint64 { return &s.NVM.ReadAccesses }, nil},
	cNVMReadWords: {"hdnh_nvm_read_words_total", "Bridged device words read.", "nvm.read_words",
		func(s *Snapshot) *uint64 { return &s.NVM.ReadWords }, nil},
	cNVMMediaBlockReads: {"hdnh_nvm_media_block_reads_total", "Bridged device 256B media blocks read.", "nvm.media_block_reads",
		func(s *Snapshot) *uint64 { return &s.NVM.MediaBlockReads }, nil},
	cNVMWriteAccesses: {"hdnh_nvm_write_accesses_total", "Bridged device logical writes.", "nvm.write_accesses",
		func(s *Snapshot) *uint64 { return &s.NVM.WriteAccesses }, nil},
	cNVMWriteWords: {"hdnh_nvm_write_words_total", "Bridged device words written.", "nvm.write_words",
		func(s *Snapshot) *uint64 { return &s.NVM.WriteWords }, nil},
	cNVMFlushes: {"hdnh_nvm_flushes_total", "Bridged device cache-line flushes.", "nvm.flushes",
		func(s *Snapshot) *uint64 { return &s.NVM.Flushes }, nil},
	cNVMFences: {"hdnh_nvm_fences_total", "Bridged device ordering fences.", "nvm.fences",
		func(s *Snapshot) *uint64 { return &s.NVM.Fences }, nil},
	cNVMModeledNanos: {"hdnh_nvm_modeled_nanoseconds_total", "Bridged device latency-model cost in nanoseconds.", "nvm.modeled_ns",
		func(s *Snapshot) *uint64 { return &s.NVM.ModeledNanos }, nil},
}

// Snapshot sums every shard into a consistent-enough point-in-time copy
// (individual counters are atomic; the set is not globally serialised, the
// usual monitoring trade).
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	for i := range m.shards {
		sh := &m.shards[i]
		for op := range sh.ops {
			for out := range sh.ops[op] {
				s.Ops[op][out] += sh.ops[op][out].Load()
			}
		}
		for c := range counters {
			*counters[c].field(&s) += sh.c[c].Load()
		}
	}
	for op := range m.lat {
		for out := range m.lat[op] {
			s.Latency[op][out] = latencyOf(&m.lat[op][out])
		}
	}
	s.DrainChunkLatency = latencyOf(&m.drainLat)
	s.WriteGroupSize = latencyOf(&m.groupSize)
	return s
}

// Sub returns the counter deltas s minus base, for interval monitoring.
// Latency stats and gauges are not differences; the receiver's (current)
// values are kept.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	d := s
	for op := range d.Ops {
		for out := range d.Ops[op] {
			d.Ops[op][out] -= base.Ops[op][out]
		}
	}
	for _, c := range counters {
		*c.field(&d) -= *c.field(&base)
	}
	return d
}

// GCWriteAmplification returns total log words written per user-appended
// word: 1 means the GC copied nothing, 2 means every user word was copied
// once. 0 when no user appends happened.
func (s Snapshot) GCWriteAmplification() float64 {
	if s.VLogAppendWords == 0 {
		return 0
	}
	return float64(s.VLogAppendWords+s.GCRelocatedWords) / float64(s.VLogAppendWords)
}

// GCVisitedPerRecycle returns the records the collector read per segment it
// recycled. 0 when nothing was recycled.
func (s Snapshot) GCVisitedPerRecycle() float64 {
	if s.GCRecycles == 0 {
		return 0
	}
	return float64(s.GCVisited) / float64(s.GCRecycles)
}

// OpTotal sums one op's count across all outcomes.
func (s Snapshot) OpTotal(op Op) uint64 {
	var n uint64
	for out := Outcome(0); out < NumOutcomes; out++ {
		n += s.Ops[op][out]
	}
	return n
}

// Backpressure returns how many ops ended Contended or Full, the outcomes a
// client sees as backpressure errors, and how many ops completed in all.
func (s Snapshot) Backpressure() (rejected, total uint64) {
	for op := range s.Ops {
		total += s.OpTotal(Op(op))
		rejected += s.Ops[op][OutContended] + s.Ops[op][OutFull]
	}
	return rejected, total
}

// NVTWalks derives, from the op counters, how many passes the counted
// operations made over a key's candidate buckets: one for every Get the hot
// table did not answer and for every write verb (each starts with one probe),
// plus the movement-hazard rescans. A probe that gave up contended and was
// retried inside the operation walked again without being counted here, so
// under heavy contention this runs a little low.
func (s Snapshot) NVTWalks() uint64 {
	return s.OpTotal(OpGet) - s.Ops[OpGet][OutHotHit] +
		s.OpTotal(OpInsert) + s.OpTotal(OpUpdate) + s.OpTotal(OpDelete) + s.LookupRescans
}

// ProbeReadsPerWalk returns NVT slot reads per walk, the OCF's selectivity as
// an operator sees it: a walk that finds its key reads one slot, and every
// other read is a fingerprint false positive, at most 96 occupied candidate
// slots / 255 ≈ 0.4 per walk, so a working filter stays under 2. 0 when nothing
// walked.
func (s Snapshot) ProbeReadsPerWalk() float64 {
	walks := s.NVTWalks()
	if walks == 0 {
		return 0
	}
	return float64(s.NVTProbes) / float64(walks)
}

// HitRatio returns hot-table hits over all completed Gets, the paper's
// headline cache metric; 0 when no Gets happened.
func (s Snapshot) HitRatio() float64 {
	total := s.OpTotal(OpGet)
	if total == 0 {
		return 0
	}
	return float64(s.Ops[OpGet][OutHotHit]) / float64(total)
}
