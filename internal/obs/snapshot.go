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
	// BGApplies is always 0: the background writer pool it counted is gone
	// (writes mirror the hot table themselves). Retained, with
	// hdnh_bg_applies_total, because the repository benchmark under bench/
	// reads it.
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

// Snapshot sums every shard into a consistent-enough point-in-time copy
// (individual counters are atomic; the set is not globally serialised, the
// usual monitoring trade).
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	for i := range m.shards {
		sh := &m.shards[i]
		for op := Op(0); op < NumOps; op++ {
			for out := Outcome(0); out < NumOutcomes; out++ {
				s.Ops[op][out] += sh.ops[op][out].Load()
			}
		}
		s.LookupRescans += sh.lookupRescans.Load()
		s.NVTProbes += sh.nvtProbes.Load()
		s.Spins += sh.spins.Load()
		s.Contended += sh.contended.Load()
		s.GetRetries += sh.getRetries.Load()
		s.HotFills += sh.hotFills.Load()
		s.HotFillsRejected += sh.hotFillsReject.Load()
		s.HotEvictions += sh.hotEvictions.Load()
		s.Expansions += sh.expansions.Load()
		s.ExpansionNanos += sh.expansionNanos.Load()
		s.ExpansionSwaps += sh.expansionSwaps.Load()
		s.ExpansionSwapNanos += sh.expansionSwapNanos.Load()
		s.DrainChunks += sh.drainChunks.Load()
		s.DrainBuckets += sh.drainBuckets.Load()
		s.DrainRecordsMoved += sh.drainMoved.Load()
		s.DrainHelps += sh.drainHelps.Load()
		s.WriteGroups += sh.writeGroups.Load()
		s.WriteGroupKeys += sh.writeGroupKeys.Load()
		s.WriteGroupFlushes += sh.writeGroupFlush.Load()
		s.VLogAppends += sh.vlogAppends.Load()
		s.VLogAppendWords += sh.vlogAppendWords.Load()
		s.GCRelocations += sh.gcRelocations.Load()
		s.GCRelocatedWords += sh.gcRelocatedWords.Load()
		s.GCRaced += sh.gcRaced.Load()
		s.GCRecycles += sh.gcRecycles.Load()
		s.GCVisited += sh.gcVisited.Load()
		s.VLogAckWaits += sh.vlogAckWaits.Load()
		s.NVM.Add(nvm.Stats{
			ReadAccesses:    sh.nvm[nvmReadAccesses].Load(),
			ReadWords:       sh.nvm[nvmReadWords].Load(),
			MediaBlockReads: sh.nvm[nvmMediaBlockReads].Load(),
			WriteAccesses:   sh.nvm[nvmWriteAccesses].Load(),
			WriteWords:      sh.nvm[nvmWriteWords].Load(),
			Flushes:         sh.nvm[nvmFlushes].Load(),
			Fences:          sh.nvm[nvmFences].Load(),
			ModeledNanos:    sh.nvm[nvmModeledNanos].Load(),
		})
	}
	for op := Op(0); op < NumOps; op++ {
		for out := Outcome(0); out < NumOutcomes; out++ {
			h := m.lat[op][out].Snapshot()
			if h.Count() == 0 {
				continue
			}
			s.Latency[op][out] = LatencyStat{
				Sampled: h.Count(),
				MeanNs:  h.Mean(),
				P50Ns:   h.Percentile(50),
				P99Ns:   h.Percentile(99),
				P999Ns:  h.Percentile(99.9),
				MaxNs:   h.Max(),
			}
		}
	}
	if h := m.drainLat.Snapshot(); h.Count() > 0 {
		s.DrainChunkLatency = LatencyStat{
			Sampled: h.Count(),
			MeanNs:  h.Mean(),
			P50Ns:   h.Percentile(50),
			P99Ns:   h.Percentile(99),
			P999Ns:  h.Percentile(99.9),
			MaxNs:   h.Max(),
		}
	}
	if h := m.groupSize.Snapshot(); h.Count() > 0 {
		s.WriteGroupSize = LatencyStat{
			Sampled: h.Count(),
			MeanNs:  h.Mean(),
			P50Ns:   h.Percentile(50),
			P99Ns:   h.Percentile(99),
			P999Ns:  h.Percentile(99.9),
			MaxNs:   h.Max(),
		}
	}
	return s
}

// Sub returns the counter deltas s minus base, for interval monitoring.
// Latency stats and gauges are not differences; the receiver's (current)
// values are kept.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	d := s
	for op := Op(0); op < NumOps; op++ {
		for out := Outcome(0); out < NumOutcomes; out++ {
			d.Ops[op][out] -= base.Ops[op][out]
		}
	}
	d.LookupRescans -= base.LookupRescans
	d.NVTProbes -= base.NVTProbes
	d.Spins -= base.Spins
	d.Contended -= base.Contended
	d.GetRetries -= base.GetRetries
	d.HotFills -= base.HotFills
	d.HotFillsRejected -= base.HotFillsRejected
	d.HotEvictions -= base.HotEvictions
	d.Expansions -= base.Expansions
	d.ExpansionNanos -= base.ExpansionNanos
	d.ExpansionSwaps -= base.ExpansionSwaps
	d.ExpansionSwapNanos -= base.ExpansionSwapNanos
	d.DrainChunks -= base.DrainChunks
	d.DrainBuckets -= base.DrainBuckets
	d.DrainRecordsMoved -= base.DrainRecordsMoved
	d.DrainHelps -= base.DrainHelps
	d.WriteGroups -= base.WriteGroups
	d.WriteGroupKeys -= base.WriteGroupKeys
	d.WriteGroupFlushes -= base.WriteGroupFlushes
	d.VLogAppends -= base.VLogAppends
	d.VLogAppendWords -= base.VLogAppendWords
	d.GCRelocations -= base.GCRelocations
	d.GCRelocatedWords -= base.GCRelocatedWords
	d.GCRaced -= base.GCRaced
	d.GCRecycles -= base.GCRecycles
	d.GCVisited -= base.GCVisited
	d.VLogAckWaits -= base.VLogAckWaits
	d.NVM = s.NVM.Sub(base.NVM)
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
