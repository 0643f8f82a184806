package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// metricDef names one metric. The names are permanent: later performance
// claims are stated in them. BENCHMARK.json repeats this table and a test
// keeps the two the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd: what a user of the store sees, as far as the reference host
// lets a number be gated. Every workload reports all of them; the README
// says which phase of which workload each comes from. The latencies —
// read_p50_us, write_p50_us, rtt_p50_us, their p99s — and delete_ops_per_s
// are measured and printed too, but as info: ten runs of one commit spread
// them 20-30% quartile to quartile when a neighbour is busy, and every gated
// cell is one more chance for a neighbour to fail a change that did nothing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"space_amp", "B/B", "lower", 0.03},
	{"write_amp", "B/B", "lower", 0.10},
}

// perLayer: single layers, from the traced run. No bounds.
var perLayer = []metricDef{
	{Name: "nvm.block_reads_per_read", Unit: "count", Better: "lower"},
	{Name: "nvm.flushed_lines_per_write", Unit: "count", Better: "lower"},
	{Name: "nvm.fences_per_write", Unit: "count", Better: "lower"},
	{Name: "nvm.device_flushed_lines_per_write", Unit: "count", Better: "lower"},
	{Name: "nvm.modeled_ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "core.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "core.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "core.insert_grow_ns", Unit: "ns", Better: "lower"},
	{Name: "core.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "core.multiget16_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "core.multiput16_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "core.hot_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.expansions", Unit: "count", Better: "lower"},
	{Name: "core.expansion_total_ms", Unit: "ms", Better: "lower"},
	{Name: "core.expansion_swap_total_us", Unit: "us", Better: "lower"},
	{Name: "core.drain_records_moved", Unit: "count", Better: "lower"},
	{Name: "core.lookup_rescans", Unit: "count", Better: "lower"},
	{Name: "core.lock_spins", Unit: "count", Better: "lower"},
	{Name: "core.bg_applies_per_write", Unit: "ratio", Better: "lower"},

	{Name: "vlog.append_ns", Unit: "ns", Better: "lower"},
	{Name: "vlog.read_ns", Unit: "ns", Better: "lower"},
	{Name: "vlog.appendbatch16_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "vlog.words_appended_per_write", Unit: "count", Better: "lower"},

	{Name: "bigkv.get_inline_ns", Unit: "ns", Better: "lower"},
	{Name: "bigkv.get_logged_ns", Unit: "ns", Better: "lower"},
	{Name: "bigkv.put_inline_ns", Unit: "ns", Better: "lower"},
	{Name: "bigkv.put_logged_ns", Unit: "ns", Better: "lower"},
	{Name: "bigkv.self_get_ns", Unit: "ns", Better: "lower"},
	{Name: "bigkv.self_put_ns", Unit: "ns", Better: "lower"},
	{Name: "bigkv.gc_recycles", Unit: "count", Better: "lower"},
	{Name: "bigkv.gc_copy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bigkv.gc_raced", Unit: "count", Better: "lower"},
	{Name: "bigkv.log_full_errors", Unit: "count", Better: "lower"},

	{Name: "batchrun.keys_per_backend_call", Unit: "count", Better: "higher"},
	{Name: "batchrun.execute_added_ns_per_key", Unit: "ns", Better: "lower"},

	{Name: "resp.backend_busy_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "resp.wire_self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "resp.backend_calls_per_burst", Unit: "count", Better: "lower"},
	{Name: "resp.depth1_rtt_us", Unit: "us", Better: "lower"},
	{Name: "resp.error_replies", Unit: "count", Better: "lower"},

	{Name: "trace.ops_per_s_ratio", Unit: "ratio", Better: "higher"},
}

// result is one run of one workload, as a child process hands it to the
// driver.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"` // failed gates; none when the run is correct
	Metrics   map[string]float64 `json:"metrics,omitempty"`  // end-to-end, untraced run
	Layers    map[string]float64 `json:"layers,omitempty"`   // per-layer, traced run
	Info      map[string]float64 `json:"info,omitempty"`     // printed, never gated

	mu    sync.Mutex
	trace *traceFile
}

func newResult(workload string, seed uint64, seconds float64, traced bool) *result {
	r := &result{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]float64{}, Info: map[string]float64{}}
	if traced {
		r.Layers = map[string]float64{}
		for _, d := range perLayer {
			r.Layers[d.Name] = 0 // an idle layer reports 0, not nothing
		}
	}
	return r
}

// problem records a failed correctness gate; the first few are kept.
func (r *result) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// reported is what the run is for: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (r *result) reported() ([]metricDef, map[string]float64) {
	if r.Traced {
		return perLayer, r.Layers
	}
	return endToEnd, r.Metrics
}

// contractLine is the one JSON object the builder's contract wants as the
// last line of standard output.
func (r *result) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := r.reported()
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
}

// print writes every metric of the run by name with its unit.
func (r *result) print(out io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	defs, vals := r.reported()
	fmt.Fprintf(out, "== %s  seed %d  %.4g s  %s: %d operations attempted, %d failed\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Attempted, r.Failed)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-38s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	info := make([]string, 0, len(r.Info))
	for k := range r.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(out, "  info %-33s %14.6g\n", k, r.Info[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  PROBLEM %s\n", p)
	}
}
