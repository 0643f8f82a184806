package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
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
	header := func(name, help, typ string) {
		p("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	// quantiles writes one summary's samples; lbl is its label set without
	// the quantile, and p999 adds the 0.999 quantile.
	quantiles := func(name, lbl string, l LatencyStat, p999 bool) {
		open, sumLbl := "{", ""
		if lbl != "" {
			open, sumLbl = "{"+lbl+",", "{"+lbl+"}"
		}
		p("%s%squantile=\"0.5\"} %d\n", name, open, l.P50Ns)
		p("%s%squantile=\"0.99\"} %d\n", name, open, l.P99Ns)
		if p999 {
			p("%s%squantile=\"0.999\"} %d\n", name, open, l.P999Ns)
		}
		p("%s_sum%s %.0f\n", name, sumLbl, l.MeanNs*float64(l.Sampled))
		p("%s_count%s %d\n", name, sumLbl, l.Sampled)
	}
	summary := func(name, help string, l LatencyStat, p999 bool) {
		if l.Sampled > 0 {
			header(name, help, "summary")
			quantiles(name, "", l, p999)
		}
	}
	counter := func(name, help string, v uint64) {
		header(name, help, "counter")
		p("%s %d\n", name, v)
	}
	gauge := func(name, help string, format string, v any) {
		header(name, help, "gauge")
		p("%s "+format+"\n", name, v)
	}

	header("hdnh_ops_total", "Completed operations by op and outcome.", "counter")
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

	header("hdnh_op_latency_nanoseconds", "Sampled operation latency quantiles.", "summary")
	for op := Op(0); op < NumOps; op++ {
		for out := Outcome(0); out < NumOutcomes; out++ {
			if l := s.Latency[op][out]; l.Sampled > 0 {
				quantiles("hdnh_op_latency_nanoseconds", fmt.Sprintf("op=%q,outcome=%q", op.String(), out.String()), l, true)
			}
		}
	}

	for _, c := range counters {
		counter(c.prom, c.help, *c.field(&s))
		if sd := c.summary; sd != nil {
			summary(sd.prom, sd.help, sd.stat(&s), sd.p999)
		}
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
		header("hdnh_resp_commands_total", "Served RESP commands by command.", "counter")
		for c := RESPCmd(0); c < NumRESPCmds; c++ {
			p("hdnh_resp_commands_total{cmd=%q} %d\n", c.String(), r.Commands[c.String()])
		}
		header("hdnh_resp_command_errors_total", "RESP commands answered with an error reply.", "counter")
		for c := RESPCmd(0); c < NumRESPCmds; c++ {
			if n := r.CommandErrors[c.String()]; n != 0 {
				p("hdnh_resp_command_errors_total{cmd=%q} %d\n", c.String(), n)
			}
		}
		header("hdnh_resp_command_latency_nanoseconds", "Served RESP command latency (parse to reply written, queueing included).", "summary")
		for c := RESPCmd(0); c < NumRESPCmds; c++ {
			if l := r.Latency[c.String()]; l.Sampled > 0 {
				quantiles("hdnh_resp_command_latency_nanoseconds", fmt.Sprintf("cmd=%q", c.String()), l, true)
			}
		}
		counter("hdnh_resp_runs_total", "Store batch calls made by the RESP pipeline.", r.Runs)
		counter("hdnh_resp_run_ops_total", "Commands drained through coalesced batch runs.", r.RunOps)
		counter("hdnh_resp_flushes_total", "Reply writes (one per executed pipeline burst).", r.Flushes)
		summary("hdnh_resp_run_length", "Keys per store batch call (a length, not a duration).", r.RunLength, false)
		counter("hdnh_resp_write_runs_total", "Coalesced write runs (MSET fan-in, multi-key DEL, grouped SET bursts).", r.WriteRuns)
		counter("hdnh_resp_write_run_ops_total", "Write commands drained through coalesced write runs.", r.WriteRunOps)
		summary("hdnh_resp_write_run_length", "Write commands per coalesced write run (a length, not a duration).", r.WriteRunLength, false)
	}
	return err
}

// WriteJSON renders the snapshot as indented JSON: ops and latencies keyed by
// op and outcome name, one key per counter (the bridged device counters under
// "nvm"), the derived ratios, the gauges and, when present, the RESP block.
func (s Snapshot) WriteJSON(w io.Writer) error {
	ops := map[string]map[string]uint64{}
	lats := map[string]map[string]LatencyStat{}
	for op := Op(0); op < NumOps; op++ {
		outs := map[string]uint64{}
		opLats := map[string]LatencyStat{}
		for out := Outcome(0); out < NumOutcomes; out++ {
			if s.Ops[op][out] != 0 {
				outs[out.String()] = s.Ops[op][out]
			}
			if s.Latency[op][out].Sampled != 0 {
				opLats[out.String()] = s.Latency[op][out]
			}
		}
		ops[op.String()] = outs
		if len(opLats) > 0 {
			lats[op.String()] = opLats
		}
	}
	nvmDoc := map[string]uint64{}
	doc := map[string]any{
		"ops":                      ops,
		"latency_ns":               lats,
		"nvm":                      nvmDoc,
		"gc_write_amplification":   s.GCWriteAmplification(),
		"hot_hit_ratio":            s.HitRatio(),
		"nvt_probe_reads_per_walk": s.ProbeReadsPerWalk(),
		"gauges":                   s.Gauges,
	}
	for _, c := range counters {
		if key, ok := strings.CutPrefix(c.json, "nvm."); ok {
			nvmDoc[key] = *c.field(&s)
		} else {
			doc[c.json] = *c.field(&s)
		}
		if sd := c.summary; sd != nil {
			doc[sd.json] = sd.stat(&s)
		}
	}
	if s.RESP != nil {
		doc["resp"] = s.RESP
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
