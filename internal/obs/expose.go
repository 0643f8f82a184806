package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// outcomesFor lists the outcomes an op can legitimately end with; the
// Prometheus exposition emits these series even at zero so dashboards get
// stable series sets, and any other nonzero combination defensively.
func outcomesFor(op Op) []Outcome {
	switch op {
	case OpGet:
		return []Outcome{OutHotHit, OutNVTHit, OutMiss, OutContended}
	case OpInsert:
		return []Outcome{OutOK, OutExists, OutFull, OutContended, OutError}
	case OpUpdate:
		return []Outcome{OutOK, OutNotFound, OutFull, OutContended, OutError, OutConflict}
	case OpDelete:
		return []Outcome{OutOK, OutNotFound, OutContended}
	default:
		return nil
	}
}

// WriteProm renders the snapshot in the Prometheus text exposition format
// (version 0.0.4). Metric names and meanings are documented in
// docs/OBSERVABILITY.md.
func (s Snapshot) WriteProm(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP hdnh_ops_total Completed operations by op and outcome.\n")
	p("# TYPE hdnh_ops_total counter\n")
	for op := Op(0); op < NumOps; op++ {
		canonical := outcomesFor(op)
		emitted := make(map[Outcome]bool, len(canonical))
		for _, out := range canonical {
			p("hdnh_ops_total{op=%q,outcome=%q} %d\n", op.String(), out.String(), s.Ops[op][out])
			emitted[out] = true
		}
		for out := Outcome(0); out < NumOutcomes; out++ {
			if !emitted[out] && s.Ops[op][out] != 0 {
				p("hdnh_ops_total{op=%q,outcome=%q} %d\n", op.String(), out.String(), s.Ops[op][out])
			}
		}
	}

	p("# HELP hdnh_op_latency_nanoseconds Sampled operation latency quantiles.\n")
	p("# TYPE hdnh_op_latency_nanoseconds summary\n")
	for op := Op(0); op < NumOps; op++ {
		for out := Outcome(0); out < NumOutcomes; out++ {
			l := s.Latency[op][out]
			if l.Sampled == 0 {
				continue
			}
			lbl := fmt.Sprintf("op=%q,outcome=%q", op.String(), out.String())
			p("hdnh_op_latency_nanoseconds{%s,quantile=\"0.5\"} %d\n", lbl, l.P50Ns)
			p("hdnh_op_latency_nanoseconds{%s,quantile=\"0.99\"} %d\n", lbl, l.P99Ns)
			p("hdnh_op_latency_nanoseconds{%s,quantile=\"0.999\"} %d\n", lbl, l.P999Ns)
			p("hdnh_op_latency_nanoseconds_sum{%s} %.0f\n", lbl, l.MeanNs*float64(l.Sampled))
			p("hdnh_op_latency_nanoseconds_count{%s} %d\n", lbl, l.Sampled)
		}
	}

	counter := func(name, help string, v uint64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("hdnh_lookup_rescans_total", "Movement-hazard rescan passes beyond each NVT walk's first.", s.LookupRescans)
	counter("hdnh_nvt_probe_reads_total", "Accounted NVT slot reads issued by lookups.", s.NVTProbes)
	counter("hdnh_lock_spins_total", "waitUnlocked backoff iterations on locked OCF words.", s.Spins)
	counter("hdnh_contended_total", "Lookup retry-budget exhaustions (would have been silent false misses).", s.Contended)
	counter("hdnh_get_retries_total", "Capped-backoff retry rounds inside Get after budget exhaustion.", s.GetRetries)
	counter("hdnh_hot_fills_total", "Search-path hot-table fill attempts.", s.HotFills)
	counter("hdnh_hot_fills_rejected_total", "Fills rejected by OCF validation (record moved or changed).", s.HotFillsRejected)
	counter("hdnh_hot_evictions_total", "Hot-table replacement evictions.", s.HotEvictions)
	counter("hdnh_bg_applies_total", "Retained, always 0: the background writer pool is gone.", s.BGApplies)
	counter("hdnh_expansions_total", "Completed table expansions.", s.Expansions)
	counter("hdnh_expansion_nanoseconds_total", "Total time spent expanding (swap through drain completion).", s.ExpansionNanos)
	counter("hdnh_expansion_swaps_total", "Incremental-resize pointer swaps.", s.ExpansionSwaps)
	counter("hdnh_expansion_swap_nanoseconds_total", "Total exclusive-lock residency of resize pointer swaps.", s.ExpansionSwapNanos)
	counter("hdnh_drain_chunks_total", "Rehash chunks completed by the incremental drain.", s.DrainChunks)
	counter("hdnh_drain_buckets_total", "Buckets rehashed by the incremental drain.", s.DrainBuckets)
	counter("hdnh_drain_records_moved_total", "Records moved into the new structure by the incremental drain.", s.DrainRecordsMoved)
	counter("hdnh_drain_helps_total", "Drain chunks contributed by foreground writers.", s.DrainHelps)
	if l := s.DrainChunkLatency; l.Sampled > 0 {
		p("# HELP hdnh_drain_chunk_nanoseconds Time to rehash one drain chunk, its group commits included.\n")
		p("# TYPE hdnh_drain_chunk_nanoseconds summary\n")
		p("hdnh_drain_chunk_nanoseconds{quantile=\"0.5\"} %d\n", l.P50Ns)
		p("hdnh_drain_chunk_nanoseconds{quantile=\"0.99\"} %d\n", l.P99Ns)
		p("hdnh_drain_chunk_nanoseconds{quantile=\"0.999\"} %d\n", l.P999Ns)
		p("hdnh_drain_chunk_nanoseconds_sum %.0f\n", l.MeanNs*float64(l.Sampled))
		p("hdnh_drain_chunk_nanoseconds_count %d\n", l.Sampled)
	}

	counter("hdnh_write_groups_total", "Grouped write commits (batched puts/deletes committed as one group).", s.WriteGroups)
	counter("hdnh_write_group_keys_total", "Keys committed through grouped writes.", s.WriteGroupKeys)
	counter("hdnh_write_group_flushes_total", "Value-log flush runs grouped writes took (near groups_total means batches rarely straddle segments).", s.WriteGroupFlushes)
	if l := s.WriteGroupSize; l.Sampled > 0 {
		p("# HELP hdnh_write_group_size Keys per grouped write commit (a count, not a duration).\n")
		p("# TYPE hdnh_write_group_size summary\n")
		p("hdnh_write_group_size{quantile=\"0.5\"} %d\n", l.P50Ns)
		p("hdnh_write_group_size{quantile=\"0.99\"} %d\n", l.P99Ns)
		p("hdnh_write_group_size_sum %.0f\n", l.MeanNs*float64(l.Sampled))
		p("hdnh_write_group_size_count %d\n", l.Sampled)
	}

	counter("hdnh_vlog_appends_total", "User value-log record appends.", s.VLogAppends)
	counter("hdnh_vlog_append_words_total", "Words appended to the value log by users.", s.VLogAppendWords)
	counter("hdnh_gc_relocations_total", "Live records copied out of GC victim segments.", s.GCRelocations)
	counter("hdnh_gc_relocated_words_total", "Words the GC copied between segments.", s.GCRelocatedWords)
	counter("hdnh_gc_raced_total", "GC index rewrites lost to racing user writes.", s.GCRaced)
	counter("hdnh_gc_recycles_total", "Value-log segments recycled to the free list.", s.GCRecycles)
	counter("hdnh_gc_visited_records_total", "Records the GC read out of victim segments (their live ones).", s.GCVisited)
	counter("hdnh_vlog_ack_waits_total", "Value-log appends that waited for an earlier append's acknowledgment.", s.VLogAckWaits)

	counter("hdnh_nvm_read_accesses_total", "Bridged device logical reads.", s.NVM.ReadAccesses)
	counter("hdnh_nvm_read_words_total", "Bridged device words read.", s.NVM.ReadWords)
	counter("hdnh_nvm_media_block_reads_total", "Bridged device 256B media blocks read.", s.NVM.MediaBlockReads)
	counter("hdnh_nvm_write_accesses_total", "Bridged device logical writes.", s.NVM.WriteAccesses)
	counter("hdnh_nvm_write_words_total", "Bridged device words written.", s.NVM.WriteWords)
	counter("hdnh_nvm_flushes_total", "Bridged device cache-line flushes.", s.NVM.Flushes)
	counter("hdnh_nvm_fences_total", "Bridged device ordering fences.", s.NVM.Fences)

	gauge := func(name, help string, format string, v any) {
		p("# HELP %s %s\n# TYPE %s gauge\n%s "+format+"\n", name, help, name, name, v)
	}
	gauge("hdnh_items", "Live records.", "%d", s.Gauges.Items)
	gauge("hdnh_capacity_slots", "Total NVT slots.", "%d", s.Gauges.Capacity)
	gauge("hdnh_load_factor", "Items over capacity.", "%g", s.Gauges.LoadFactor)
	gauge("hdnh_generation", "Completed resize generation.", "%d", s.Gauges.Generation)
	gauge("hdnh_hot_entries", "Hot-table cached records.", "%d", s.Gauges.HotEntries)
	gauge("hdnh_hot_capacity_slots", "Hot-table slot capacity.", "%d", s.Gauges.HotCapacity)
	gauge("hdnh_hot_fill_ratio", "Hot entries over hot capacity.", "%g", s.Gauges.HotFillRatio)
	gauge("hdnh_hot_hit_ratio", "Hot-table hits over all Gets.", "%g", s.HitRatio())
	gauge("hdnh_nvt_probe_reads_per_walk", "NVT slot reads per walk (hdnh_nvt_probe_reads_total over the walks the op counters imply); a working OCF stays under 2.", "%g", s.ProbeReadsPerWalk())
	gauge("hdnh_device_words", "Device capacity in words.", "%d", s.Gauges.DeviceWords)
	gauge("hdnh_device_words_used", "Device words bump-allocated.", "%d", s.Gauges.DeviceWordsUsed)
	gauge("hdnh_device_flushes", "Device-wide flush count.", "%d", s.Gauges.DeviceFlushes)
	gauge("hdnh_epoch_slots_live", "Epoch slots owned by unclosed sessions.", "%d", s.Gauges.EpochSlotsLive)
	gauge("hdnh_resizing", "1 while an incremental rehash is in flight.", "%d", s.Gauges.Resizing)
	gauge("hdnh_drain_buckets_remaining", "Drain-level buckets not yet durably rehashed.", "%d", s.Gauges.DrainBucketsRemaining)
	if s.Gauges.VLogSegments > 0 {
		gauge("hdnh_vlog_segments", "Value-log segment count.", "%d", s.Gauges.VLogSegments)
		gauge("hdnh_vlog_free_segments", "Value-log segments on the free list.", "%d", s.Gauges.VLogFreeSegments)
		gauge("hdnh_vlog_live_words", "Value-log words still referenced by the index.", "%d", s.Gauges.VLogLiveWords)
		gauge("hdnh_vlog_used_words", "Value-log words appended into sealed and active segments.", "%d", s.Gauges.VLogUsedWords)
		gauge("hdnh_gc_write_amplification", "Log words written per user-appended word.", "%g", s.GCWriteAmplification())
	}
	if len(s.Gauges.PerShard) > 0 {
		gauge("hdnh_shards", "Hash-router shard count.", "%d", s.Gauges.Shards)
		shardGauge := func(name, help string, pick func(ShardGauges) any) {
			p("# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, sh := range s.Gauges.PerShard {
				switch v := pick(sh).(type) {
				case int64:
					p("%s{shard=\"%d\"} %d\n", name, sh.Shard, v)
				case float64:
					p("%s{shard=\"%d\"} %g\n", name, sh.Shard, v)
				}
			}
		}
		shardGauge("hdnh_shard_items", "Live records per shard.", func(sh ShardGauges) any { return sh.Items })
		shardGauge("hdnh_shard_load_factor", "Items over capacity per shard.", func(sh ShardGauges) any { return sh.LoadFactor })
		shardGauge("hdnh_shard_resizing", "1 while the shard's incremental rehash is in flight.", func(sh ShardGauges) any { return sh.Resizing })
		shardGauge("hdnh_shard_drain_buckets_remaining", "Shard drain-level buckets not yet durably rehashed.", func(sh ShardGauges) any { return sh.DrainBucketsRemaining })
		shardGauge("hdnh_shard_hot_entries", "Hot-table cached records per shard.", func(sh ShardGauges) any { return sh.HotEntries })
		if s.Gauges.VLogSegments > 0 {
			shardGauge("hdnh_shard_vlog_free_segments", "Value-log segments on the shard's free list.", func(sh ShardGauges) any { return sh.VLogFreeSegments })
			shardGauge("hdnh_shard_vlog_live_words", "Value-log words the shard's index still references.", func(sh ShardGauges) any { return sh.VLogLiveWords })
		}
	}

	if r := s.RESP; r != nil {
		counter("hdnh_resp_connections_total", "RESP connections accepted.", r.ConnsTotal)
		gauge("hdnh_resp_connections_open", "RESP connections currently open.", "%d", r.ConnsOpen)
		gauge("hdnh_resp_inflight_commands", "RESP commands parsed and not yet answered, across connections.", "%d", r.InFlight)
		counter("hdnh_resp_proto_errors_total", "RESP framing errors (connection closed).", r.ProtoErrors)
		p("# HELP hdnh_resp_commands_total Served RESP commands by command.\n# TYPE hdnh_resp_commands_total counter\n")
		for c := RESPCmd(0); c < NumRESPCmds; c++ {
			p("hdnh_resp_commands_total{cmd=%q} %d\n", c.String(), r.cmds[c])
		}
		p("# HELP hdnh_resp_command_errors_total RESP commands answered with an error reply.\n# TYPE hdnh_resp_command_errors_total counter\n")
		for c := RESPCmd(0); c < NumRESPCmds; c++ {
			if r.cmdErrs[c] != 0 {
				p("hdnh_resp_command_errors_total{cmd=%q} %d\n", c.String(), r.cmdErrs[c])
			}
		}
		p("# HELP hdnh_resp_command_latency_nanoseconds Served RESP command latency (parse to reply written, queueing included).\n")
		p("# TYPE hdnh_resp_command_latency_nanoseconds summary\n")
		for c := RESPCmd(0); c < NumRESPCmds; c++ {
			l := r.lat[c]
			if l.Sampled == 0 {
				continue
			}
			lbl := fmt.Sprintf("cmd=%q", c.String())
			p("hdnh_resp_command_latency_nanoseconds{%s,quantile=\"0.5\"} %d\n", lbl, l.P50Ns)
			p("hdnh_resp_command_latency_nanoseconds{%s,quantile=\"0.99\"} %d\n", lbl, l.P99Ns)
			p("hdnh_resp_command_latency_nanoseconds{%s,quantile=\"0.999\"} %d\n", lbl, l.P999Ns)
			p("hdnh_resp_command_latency_nanoseconds_sum{%s} %.0f\n", lbl, l.MeanNs*float64(l.Sampled))
			p("hdnh_resp_command_latency_nanoseconds_count{%s} %d\n", lbl, l.Sampled)
		}
		counter("hdnh_resp_runs_total", "Store batch calls made by the RESP pipeline.", r.Runs)
		counter("hdnh_resp_run_ops_total", "Commands drained through coalesced batch runs.", r.RunOps)
		counter("hdnh_resp_flushes_total", "Reply writes (one per executed pipeline burst).", r.Flushes)
		if l := r.RunLength; l.Sampled > 0 {
			p("# HELP hdnh_resp_run_length Keys per store batch call (a length, not a duration).\n")
			p("# TYPE hdnh_resp_run_length summary\n")
			p("hdnh_resp_run_length{quantile=\"0.5\"} %d\n", l.P50Ns)
			p("hdnh_resp_run_length{quantile=\"0.99\"} %d\n", l.P99Ns)
			p("hdnh_resp_run_length_sum %.0f\n", l.MeanNs*float64(l.Sampled))
			p("hdnh_resp_run_length_count %d\n", l.Sampled)
		}
		counter("hdnh_resp_write_runs_total", "Coalesced write runs (MSET fan-in, multi-key DEL, grouped SET bursts).", r.WriteRuns)
		counter("hdnh_resp_write_run_ops_total", "Write commands drained through coalesced write runs.", r.WriteRunOps)
		if l := r.WriteRunLength; l.Sampled > 0 {
			p("# HELP hdnh_resp_write_run_length Write commands per coalesced write run (a length, not a duration).\n")
			p("# TYPE hdnh_resp_write_run_length summary\n")
			p("hdnh_resp_write_run_length{quantile=\"0.5\"} %d\n", l.P50Ns)
			p("hdnh_resp_write_run_length{quantile=\"0.99\"} %d\n", l.P99Ns)
			p("hdnh_resp_write_run_length_sum %.0f\n", l.MeanNs*float64(l.Sampled))
			p("hdnh_resp_write_run_length_count %d\n", l.Sampled)
		}
	}
	return err
}

// jsonForm is the exposition shape: maps keyed by op/outcome names instead of
// positional arrays.
type jsonForm struct {
	Ops     map[string]map[string]uint64      `json:"ops"`
	Latency map[string]map[string]LatencyStat `json:"latency_ns"`

	LookupRescans uint64 `json:"lookup_rescans"`
	NVTProbes     uint64 `json:"nvt_probe_reads"`
	Spins         uint64 `json:"lock_spins"`
	Contended     uint64 `json:"contended"`
	GetRetries    uint64 `json:"get_retries"`

	HotFills         uint64 `json:"hot_fills"`
	HotFillsRejected uint64 `json:"hot_fills_rejected"`
	HotEvictions     uint64 `json:"hot_evictions"`
	BGApplies        uint64 `json:"bg_applies"`

	Expansions     uint64 `json:"expansions"`
	ExpansionNanos uint64 `json:"expansion_ns"`

	ExpansionSwaps     uint64      `json:"expansion_swaps"`
	ExpansionSwapNanos uint64      `json:"expansion_swap_ns"`
	DrainChunks        uint64      `json:"drain_chunks"`
	DrainBuckets       uint64      `json:"drain_buckets"`
	DrainRecordsMoved  uint64      `json:"drain_records_moved"`
	DrainHelps         uint64      `json:"drain_helps"`
	DrainChunkLatency  LatencyStat `json:"drain_chunk_latency_ns"`

	WriteGroups       uint64      `json:"write_groups"`
	WriteGroupKeys    uint64      `json:"write_group_keys"`
	WriteGroupFlushes uint64      `json:"write_group_flushes"`
	WriteGroupSize    LatencyStat `json:"write_group_size"`

	VLogAppends      uint64  `json:"vlog_appends"`
	VLogAppendWords  uint64  `json:"vlog_append_words"`
	GCRelocations    uint64  `json:"gc_relocations"`
	GCRelocatedWords uint64  `json:"gc_relocated_words"`
	GCRaced          uint64  `json:"gc_raced"`
	GCRecycles       uint64  `json:"gc_recycles"`
	GCVisited        uint64  `json:"gc_visited_records"`
	VLogAckWaits     uint64  `json:"vlog_ack_waits"`
	GCWriteAmp       float64 `json:"gc_write_amplification"`

	HitRatio          float64 `json:"hot_hit_ratio"`
	ProbeReadsPerWalk float64 `json:"nvt_probe_reads_per_walk"`

	NVM struct {
		ReadAccesses    uint64 `json:"read_accesses"`
		ReadWords       uint64 `json:"read_words"`
		MediaBlockReads uint64 `json:"media_block_reads"`
		WriteAccesses   uint64 `json:"write_accesses"`
		WriteWords      uint64 `json:"write_words"`
		Flushes         uint64 `json:"flushes"`
		Fences          uint64 `json:"fences"`
		ModeledNanos    uint64 `json:"modeled_ns"`
	} `json:"nvm"`

	Gauges Gauges `json:"gauges"`

	RESP *RESPSnapshot `json:"resp,omitempty"`
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	f := jsonForm{
		Ops:                map[string]map[string]uint64{},
		Latency:            map[string]map[string]LatencyStat{},
		LookupRescans:      s.LookupRescans,
		NVTProbes:          s.NVTProbes,
		Spins:              s.Spins,
		Contended:          s.Contended,
		GetRetries:         s.GetRetries,
		HotFills:           s.HotFills,
		HotFillsRejected:   s.HotFillsRejected,
		HotEvictions:       s.HotEvictions,
		BGApplies:          s.BGApplies,
		Expansions:         s.Expansions,
		ExpansionNanos:     s.ExpansionNanos,
		ExpansionSwaps:     s.ExpansionSwaps,
		ExpansionSwapNanos: s.ExpansionSwapNanos,
		DrainChunks:        s.DrainChunks,
		DrainBuckets:       s.DrainBuckets,
		DrainRecordsMoved:  s.DrainRecordsMoved,
		DrainHelps:         s.DrainHelps,
		DrainChunkLatency:  s.DrainChunkLatency,
		WriteGroups:        s.WriteGroups,
		WriteGroupKeys:     s.WriteGroupKeys,
		WriteGroupFlushes:  s.WriteGroupFlushes,
		WriteGroupSize:     s.WriteGroupSize,
		VLogAppends:        s.VLogAppends,
		VLogAppendWords:    s.VLogAppendWords,
		GCRelocations:      s.GCRelocations,
		GCRelocatedWords:   s.GCRelocatedWords,
		GCRaced:            s.GCRaced,
		GCRecycles:         s.GCRecycles,
		GCVisited:          s.GCVisited,
		VLogAckWaits:       s.VLogAckWaits,
		GCWriteAmp:         s.GCWriteAmplification(),
		HitRatio:           s.HitRatio(),
		ProbeReadsPerWalk:  s.ProbeReadsPerWalk(),
		Gauges:             s.Gauges,
		RESP:               s.RESP,
	}
	for op := Op(0); op < NumOps; op++ {
		outs := map[string]uint64{}
		lats := map[string]LatencyStat{}
		for out := Outcome(0); out < NumOutcomes; out++ {
			if s.Ops[op][out] != 0 {
				outs[out.String()] = s.Ops[op][out]
			}
			if s.Latency[op][out].Sampled != 0 {
				lats[out.String()] = s.Latency[op][out]
			}
		}
		f.Ops[op.String()] = outs
		if len(lats) > 0 {
			f.Latency[op.String()] = lats
		}
	}
	f.NVM.ReadAccesses = s.NVM.ReadAccesses
	f.NVM.ReadWords = s.NVM.ReadWords
	f.NVM.MediaBlockReads = s.NVM.MediaBlockReads
	f.NVM.WriteAccesses = s.NVM.WriteAccesses
	f.NVM.WriteWords = s.NVM.WriteWords
	f.NVM.Flushes = s.NVM.Flushes
	f.NVM.Fences = s.NVM.Fences
	f.NVM.ModeledNanos = s.NVM.ModeledNanos

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
