// Package health turns raw telemetry into judgments. It evaluates an
// obs.Snapshot (counters, gauges, per-shard shape, RESP listener state)
// against a fixed rule set and produces typed Conditions, each with a
// severity and a human-readable cause — the layer between "numbers on
// /metrics" and "should the load balancer keep sending traffic here".
//
// The evaluator is deliberately snapshot-in, report-out: it holds no
// references into the store, so the rules are unit-testable with synthetic
// snapshots and the serve layer can run it from a ticker without lock-order
// concerns. Three rules are stateful across evaluations — resize-stall
// detection (progress must be *observed* to stall, a point-in-time gauge
// cannot say that), error *rates* and the filter's reads per walk (deltas
// over the evaluation interval) — which is why Evaluate goes through an
// Evaluator rather than a free function.
package health

import (
	"fmt"
	"io"
	"sync"
	"time"

	"hdnh/internal/obs"
	"hdnh/internal/vlog"
)

// Severity orders condition states. The zero value is OK.
type Severity uint8

const (
	// OK: nothing to report.
	OK Severity = iota
	// Degraded: the store serves traffic but an operator should look.
	Degraded
	// Critical: readiness should flip; the store is failing or about to.
	Critical
)

// String returns the lowercase label used in JSON, text, and Prometheus.
func (s Severity) String() string {
	switch s {
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "ok"
	}
}

// MarshalJSON renders the severity as its string label.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Condition rule names. Fixed so the hdnh_health_condition series set is
// stable whether or not a rule currently fires.
const (
	CondVLogFreeLow       = "vlog_free_low"
	CondGCBacklog         = "gc_backlog"
	CondResizeStall       = "resize_stall"
	CondEpochPressure     = "epoch_pressure"
	CondLoadFactorHigh    = "load_factor_high"
	CondShardImbalance    = "shard_imbalance"
	CondErrorRate         = "error_rate"
	CondRESPInFlight      = "resp_in_flight"
	CondFilterIneffective = "filter_ineffective"
)

// ConditionNames lists every rule, in exposition order.
var ConditionNames = []string{
	CondVLogFreeLow,
	CondGCBacklog,
	CondResizeStall,
	CondEpochPressure,
	CondLoadFactorHigh,
	CondShardImbalance,
	CondErrorRate,
	CondRESPInFlight,
	CondFilterIneffective,
}

// Condition is one fired rule: which rule, how bad, where, and why.
type Condition struct {
	Name     string   `json:"name"`
	Severity Severity `json:"severity"`
	// Shard is the affected router shard, or -1 for a store-wide condition.
	Shard int `json:"shard"`
	// Cause is the human-readable explanation, e.g.
	// "shard 3: 1/16 vlog segments free (6.2% < 12.5% low watermark)".
	Cause string `json:"cause"`
	// Value and Threshold are the measured quantity and the limit it
	// crossed, in the rule's native unit.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// Report is one evaluation's outcome: the worst severity plus every fired
// condition (OK rules are omitted — an empty Conditions list means healthy).
type Report struct {
	Status     Severity    `json:"status"`
	Conditions []Condition `json:"conditions,omitempty"`
	Time       time.Time   `json:"time"`
}

// Worst returns the maximum severity among conditions sharing name, or OK.
func (r Report) Worst(name string) Severity {
	var w Severity
	for _, c := range r.Conditions {
		if c.Name == name && c.Severity > w {
			w = c.Severity
		}
	}
	return w
}

// WriteText renders the operator-facing /healthz body: the status line, then
// one line per fired condition.
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintln(w, r.Status.String())
	for _, c := range r.Conditions {
		fmt.Fprintf(w, "%s: %s: %s\n", c.Severity, c.Name, c.Cause)
	}
}

// WriteProm emits the hdnh_health_* gauge series: overall status plus one
// labeled gauge per rule (always present, 0 when quiet, so dashboards and
// alerts never deal with appearing/disappearing series).
func (r Report) WriteProm(w io.Writer) {
	fmt.Fprintln(w, "# HELP hdnh_health_status Overall health: 0 ok, 1 degraded, 2 critical.")
	fmt.Fprintln(w, "# TYPE hdnh_health_status gauge")
	fmt.Fprintf(w, "hdnh_health_status %d\n", r.Status)
	fmt.Fprintln(w, "# HELP hdnh_health_condition Per-rule health: 0 ok, 1 degraded, 2 critical.")
	fmt.Fprintln(w, "# TYPE hdnh_health_condition gauge")
	for _, name := range ConditionNames {
		fmt.Fprintf(w, "hdnh_health_condition{condition=%q} %d\n", name, r.Worst(name))
	}
}

// The rule thresholds. They are properties of the index, its value log and
// its sessions, not of a deployment, so they are constants; docs/TUNING.md
// says why each has its value and docs/OBSERVABILITY.md tabulates them by
// rule. vlog_free_low's degraded line is the collector's own trigger,
// vlog.GCTrigger, so it reads degraded exactly while the GC should be
// running.
const (
	// VLogFreeCriticalSegments escalates vlog_free_low to Critical when a log
	// has at most this many free segments left.
	VLogFreeCriticalSegments = 1

	// GarbageDegraded / GarbageCritical fire gc_backlog when the value log's
	// garbage fraction (1 - live/used words) crosses them.
	GarbageDegraded = 0.5
	GarbageCritical = 0.8

	// ResizeStallWindow fires resize_stall at Critical when a resizing
	// shard's drain-buckets-remaining has not decreased for this long
	// (Degraded at half the window).
	ResizeStallWindow = 10 * time.Second

	// EpochSlotsDegraded / EpochSlotsCritical fire epoch_pressure on the
	// live epoch-slot gauge (each live slot is an unclosed session).
	EpochSlotsDegraded = 1024
	EpochSlotsCritical = 8192

	// LoadFactorDegraded / LoadFactorCritical fire load_factor_high per
	// shard.
	LoadFactorDegraded = 0.90
	LoadFactorCritical = 0.96

	// ImbalanceDegraded fires shard_imbalance when the most loaded shard
	// holds at least this multiple of the mean shard's items, evaluated
	// only once the store holds at least ImbalanceMinItems so tiny stores
	// don't alarm on noise.
	ImbalanceDegraded = 2.0
	ImbalanceMinItems = 16384

	// ErrorRateDegraded / ErrorRateCritical fire error_rate on the fraction
	// of ops completing Contended or Full over the evaluation interval, once
	// the interval saw at least ErrorRateMinOps ops.
	ErrorRateDegraded = 0.01
	ErrorRateCritical = 0.10
	ErrorRateMinOps   = 100

	// RESPInFlightDegraded / RESPInFlightCritical fire resp_in_flight on the
	// listener's in-flight command gauge.
	RESPInFlightDegraded = 1024
	RESPInFlightCritical = 8192

	// FilterReadsPerWalkDegraded fires filter_ineffective, once the interval
	// saw at least FilterMinWalks walks. A walk reads the one slot that
	// holds its key plus fingerprint false positives, at most 96 occupied
	// candidate slots / 255 ≈ 0.4, so no workload on a working filter
	// reaches 2 reads per walk; and below a thousand walks one unlucky
	// bucket moves the ratio.
	FilterReadsPerWalkDegraded = 2.0
	FilterMinWalks             = 1000
)

// Evaluator runs the rule set against successive snapshots. Safe for
// concurrent use; evaluations are serialised internally.
type Evaluator struct {
	mu       sync.Mutex
	havePrev bool
	prev     obs.Snapshot
	prevAt   time.Time
	// stall tracks per-shard drain progress; key -1 is the unsharded table.
	stall map[int]stallState
	last  Report
}

type stallState struct {
	remaining int64     // last observed drain_buckets_remaining
	since     time.Time // when it last decreased (or the resize appeared)
}

// NewEvaluator builds an evaluator.
func NewEvaluator() *Evaluator {
	return &Evaluator{stall: make(map[int]stallState)}
}

// Last returns the most recent report (zero Report before first Evaluate).
func (e *Evaluator) Last() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// Evaluate runs every rule against snap, taken at now, and returns the
// report. The snapshot's Gauges (including PerShard and EpochSlotsLive) and
// RESP fields must be filled by the caller for the corresponding rules to
// see anything.
func (e *Evaluator) Evaluate(snap obs.Snapshot, now time.Time) Report {
	e.mu.Lock()
	defer e.mu.Unlock()

	r := Report{Time: now}
	add := func(c Condition) {
		if c.Severity == OK {
			return
		}
		r.Conditions = append(r.Conditions, c)
		if c.Severity > r.Status {
			r.Status = c.Severity
		}
	}

	e.evalVLog(snap, add)
	e.evalGCBacklog(snap, add)
	e.evalResizeStall(snap, now, add)
	e.evalEpochPressure(snap, add)
	e.evalLoadFactor(snap, add)
	e.evalImbalance(snap, add)
	// The two rate rules read the same interval; rules run in ConditionNames
	// order, which is the order Report.Conditions lists them in.
	var d obs.Snapshot
	if e.havePrev {
		d = snap.Sub(e.prev)
		e.evalErrorRate(d, add)
	}
	e.evalRESP(snap, add)
	if e.havePrev {
		e.evalFilter(d, add)
	}

	e.prev, e.prevAt, e.havePrev = snap, now, true
	e.last = r
	return r
}

// evalVLog fires vlog_free_low per shard (or store-wide without shards): a
// log that cannot allocate a fresh segment fails writes outright, so free
// segments are the store's closest thing to "disk space left". Degraded is
// the collector's trigger: the GC should be running.
func (e *Evaluator) evalVLog(snap obs.Snapshot, add func(Condition)) {
	check := func(shard int, free, total int64, where string) {
		if total == 0 {
			return
		}
		trigger := vlog.GCTrigger(total)
		sev := OK
		switch {
		case free <= VLogFreeCriticalSegments:
			sev = Critical
		case free <= trigger:
			sev = Degraded
		}
		add(Condition{
			Name: CondVLogFreeLow, Severity: sev, Shard: shard,
			Cause: fmt.Sprintf("%s: %d/%d vlog segments free (<= %d, the GC trigger)",
				where, free, total, trigger),
			Value: float64(free), Threshold: float64(trigger),
		})
	}
	if len(snap.Gauges.PerShard) > 0 {
		for _, sg := range snap.Gauges.PerShard {
			check(int(sg.Shard), sg.VLogFreeSegments, sg.VLogSegments,
				fmt.Sprintf("shard %d", sg.Shard))
		}
		return
	}
	check(-1, snap.Gauges.VLogFreeSegments, snap.Gauges.VLogSegments, "store")
}

// evalGCBacklog fires gc_backlog when dead bytes dominate the log: a high
// garbage fraction means the GC is behind the write rate, and every future
// relocation pass will pay for it in write amplification.
func (e *Evaluator) evalGCBacklog(snap obs.Snapshot, add func(Condition)) {
	used, live := snap.Gauges.VLogUsedWords, snap.Gauges.VLogLiveWords
	if used == 0 {
		return
	}
	garbage := 1 - float64(live)/float64(used)
	sev := OK
	switch {
	case garbage >= GarbageCritical:
		sev = Critical
	case garbage >= GarbageDegraded:
		sev = Degraded
	}
	add(Condition{
		Name: CondGCBacklog, Severity: sev, Shard: -1,
		Cause: fmt.Sprintf("vlog garbage fraction %.1f%% (live %d / used %d words); GC is behind",
			garbage*100, live, used),
		Value: garbage, Threshold: GarbageDegraded,
	})
}

// evalResizeStall watches drain progress: an incremental resize whose
// remaining-bucket count stops falling pins the old structure, blocks the
// next doubling, and slowly strangles writers. Needs two observations to
// fire — a gauge alone cannot distinguish "slow" from "stuck".
func (e *Evaluator) evalResizeStall(snap obs.Snapshot, now time.Time, add func(Condition)) {
	seen := make(map[int]bool, 1+len(snap.Gauges.PerShard))
	observe := func(shard int, resizing bool, remaining int64, where string) {
		if !resizing {
			delete(e.stall, shard)
			return
		}
		seen[shard] = true
		st, ok := e.stall[shard]
		if !ok || remaining != st.remaining {
			// Progress (or a new resize generation) — restart the clock.
			e.stall[shard] = stallState{remaining: remaining, since: now}
			return
		}
		stuck := now.Sub(st.since)
		sev := OK
		switch {
		case stuck >= ResizeStallWindow:
			sev = Critical
		case stuck >= ResizeStallWindow/2:
			sev = Degraded
		}
		add(Condition{
			Name: CondResizeStall, Severity: sev, Shard: shard,
			Cause: fmt.Sprintf("%s: resize drain stuck at %d buckets remaining for %s (window %s)",
				where, remaining, stuck.Round(time.Millisecond), ResizeStallWindow),
			Value: stuck.Seconds(), Threshold: ResizeStallWindow.Seconds(),
		})
	}
	if len(snap.Gauges.PerShard) > 0 {
		for _, sg := range snap.Gauges.PerShard {
			observe(int(sg.Shard), sg.Resizing != 0, sg.DrainBucketsRemaining,
				fmt.Sprintf("shard %d", sg.Shard))
		}
	} else {
		observe(-1, snap.Gauges.Resizing != 0, snap.Gauges.DrainBucketsRemaining, "store")
	}
	// Drop state for shards that stopped reporting (e.g. shard count change).
	for shard := range e.stall {
		if !seen[shard] {
			delete(e.stall, shard)
		}
	}
}

// evalEpochPressure fires epoch_pressure on the live epoch-slot gauge: every
// slot is an unclosed session, and sessions that never close pin resize
// grace periods (and leak — PR 6's bug class) long before anything crashes.
func (e *Evaluator) evalEpochPressure(snap obs.Snapshot, add func(Condition)) {
	live := snap.Gauges.EpochSlotsLive
	sev := OK
	switch {
	case live >= EpochSlotsCritical:
		sev = Critical
	case live >= EpochSlotsDegraded:
		sev = Degraded
	}
	add(Condition{
		Name: CondEpochPressure, Severity: sev, Shard: -1,
		Cause: fmt.Sprintf("%d live epoch slots (unclosed sessions) >= %d; sessions may be leaking",
			live, EpochSlotsDegraded),
		Value: float64(live), Threshold: float64(EpochSlotsDegraded),
	})
}

// evalLoadFactor fires load_factor_high per shard: probe lengths and resize
// pressure climb sharply as a shard approaches full (the Dash drift signal).
func (e *Evaluator) evalLoadFactor(snap obs.Snapshot, add func(Condition)) {
	check := func(shard int, lf float64, where string) {
		sev := OK
		switch {
		case lf >= LoadFactorCritical:
			sev = Critical
		case lf >= LoadFactorDegraded:
			sev = Degraded
		}
		add(Condition{
			Name: CondLoadFactorHigh, Severity: sev, Shard: shard,
			Cause: fmt.Sprintf("%s: load factor %.3f >= %.2f ceiling", where, lf, LoadFactorDegraded),
			Value: lf, Threshold: LoadFactorDegraded,
		})
	}
	if len(snap.Gauges.PerShard) > 0 {
		for _, sg := range snap.Gauges.PerShard {
			check(int(sg.Shard), sg.LoadFactor, fmt.Sprintf("shard %d", sg.Shard))
		}
		return
	}
	check(-1, snap.Gauges.LoadFactor, "store")
}

// evalImbalance fires shard_imbalance when one shard carries a multiple of
// the mean load — the precursor to one shard resizing and degrading alone
// while the others idle (hot-key skew made visible at the shard level).
func (e *Evaluator) evalImbalance(snap obs.Snapshot, add func(Condition)) {
	shards := snap.Gauges.PerShard
	if len(shards) < 2 || snap.Gauges.Items < ImbalanceMinItems {
		return
	}
	var max, maxShard int64
	for _, sg := range shards {
		if sg.Items > max {
			max, maxShard = sg.Items, sg.Shard
		}
	}
	mean := float64(snap.Gauges.Items) / float64(len(shards))
	if mean == 0 {
		return
	}
	ratio := float64(max) / mean
	sev := OK
	if ratio >= ImbalanceDegraded {
		sev = Degraded
	}
	add(Condition{
		Name: CondShardImbalance, Severity: sev, Shard: int(maxShard),
		Cause: fmt.Sprintf("shard %d holds %d items, %.1fx the mean %.0f across %d shards",
			maxShard, max, ratio, mean, len(shards)),
		Value: ratio, Threshold: ImbalanceDegraded,
	})
}

// evalErrorRate fires error_rate on the interval's Contended+Full outcome
// fraction: a store answering a visible share of requests with backpressure
// errors is degraded no matter what the gauges say.
func (e *Evaluator) evalErrorRate(d obs.Snapshot, add func(Condition)) {
	bad, total := d.Backpressure()
	if total < ErrorRateMinOps {
		return
	}
	rate := float64(bad) / float64(total)
	sev := OK
	switch {
	case rate >= ErrorRateCritical:
		sev = Critical
	case rate >= ErrorRateDegraded:
		sev = Degraded
	}
	add(Condition{
		Name: CondErrorRate, Severity: sev, Shard: -1,
		Cause: fmt.Sprintf("%d of %d ops (%.2f%%) answered contended/full this interval",
			bad, total, rate*100),
		Value: rate, Threshold: ErrorRateDegraded,
	})
}

// evalRESP fires resp_in_flight on the listener's gauge of commands parsed
// and not yet answered: a high standing figure means many connections are
// inside deep bursts at once, and served latency includes all of it.
func (e *Evaluator) evalRESP(snap obs.Snapshot, add func(Condition)) {
	if snap.RESP == nil {
		return
	}
	inFlight := snap.RESP.InFlight
	sev := OK
	switch {
	case inFlight >= RESPInFlightCritical:
		sev = Critical
	case inFlight >= RESPInFlightDegraded:
		sev = Degraded
	}
	add(Condition{
		Name: CondRESPInFlight, Severity: sev, Shard: -1,
		Cause: fmt.Sprintf("%d RESP commands in flight >= %d; pipelines are backing up",
			inFlight, RESPInFlightDegraded),
		Value: float64(inFlight), Threshold: float64(RESPInFlightDegraded),
	})
}

// evalFilter fires filter_ineffective when the interval's NVT walks read
// more slots than a one-byte fingerprint filter should let through. That is
// a defect in the index, not load — it is how a fingerprint drawn from the
// same hash bits as the segment index showed, at 15-23 reads per walk — and
// it costs one media read per extra slot, so it only ever degrades.
func (e *Evaluator) evalFilter(d obs.Snapshot, add func(Condition)) {
	walks := d.NVTWalks()
	if walks < FilterMinWalks {
		return
	}
	ratio := d.ProbeReadsPerWalk()
	sev := OK
	if ratio >= FilterReadsPerWalkDegraded {
		sev = Degraded
	}
	add(Condition{
		Name: CondFilterIneffective, Severity: sev, Shard: -1,
		Cause: fmt.Sprintf("%d NVT slot reads over %d walks this interval (%.1f per walk >= %.1f); the fingerprint filter is not filtering",
			d.NVTProbes, walks, ratio, FilterReadsPerWalkDegraded),
		Value: ratio, Threshold: FilterReadsPerWalkDegraded,
	})
}
