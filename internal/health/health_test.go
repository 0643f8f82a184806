package health

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hdnh/internal/obs"
	"hdnh/internal/vlog"
)

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

func findCond(r Report, name string) (Condition, bool) {
	for _, c := range r.Conditions {
		if c.Name == name {
			return c, true
		}
	}
	return Condition{}, false
}

// A quiet snapshot must evaluate to OK with no conditions.
func TestHealthyIsQuiet(t *testing.T) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.Gauges.Items = 100
	s.Gauges.LoadFactor = 0.4
	s.Gauges.VLogSegments = 16
	s.Gauges.VLogFreeSegments = 8
	s.Gauges.VLogUsedWords = 1000
	s.Gauges.VLogLiveWords = 900
	r := e.Evaluate(s, at(1))
	if r.Status != OK || len(r.Conditions) != 0 {
		t.Fatalf("report = %+v, want quiet OK", r)
	}
}

// vlog_free_low: degraded below the free-fraction watermark, critical at
// the last free segment, attributed to the right shard.
func TestVLogFreeLow(t *testing.T) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.Gauges.PerShard = []obs.ShardGauges{
		{Shard: 0, VLogSegments: 32, VLogFreeSegments: 16},
		{Shard: 1, VLogSegments: 32, VLogFreeSegments: 3}, // 9.4% < 12.5%
		{Shard: 2, VLogSegments: 32, VLogFreeSegments: 1}, // last segment
	}
	r := e.Evaluate(s, at(1))
	if r.Status != Critical {
		t.Fatalf("status = %v, want critical", r.Status)
	}
	var deg, crit *Condition
	for i := range r.Conditions {
		c := &r.Conditions[i]
		if c.Name != CondVLogFreeLow {
			t.Fatalf("unexpected condition %+v", c)
		}
		switch c.Severity {
		case Degraded:
			deg = c
		case Critical:
			crit = c
		}
	}
	if deg == nil || deg.Shard != 1 {
		t.Fatalf("degraded condition = %+v, want shard 1", deg)
	}
	if crit == nil || crit.Shard != 2 || !strings.Contains(crit.Cause, "shard 2") {
		t.Fatalf("critical condition = %+v, want shard 2 named in cause", crit)
	}
}

// vlog_free_low reads degraded exactly where the collector starts running
// (vlog.GCTrigger). 16 segments per shard is what hdnhserve -shards 4 gives
// at the default -logmb 8; there the trigger is 2 free segments, a band the
// old fraction-of-segments rule skipped, going straight from ok to critical.
func TestVLogFreeLowAtGCTrigger(t *testing.T) {
	var s obs.Snapshot
	s.Gauges.PerShard = []obs.ShardGauges{{Shard: 0, VLogSegments: 16, VLogFreeSegments: 2}}
	r := NewEvaluator().Evaluate(s, at(1))
	c, ok := findCond(r, CondVLogFreeLow)
	if !ok || c.Severity != Degraded || c.Threshold != 2 {
		t.Fatalf("16 segments, 2 free = %+v (found %v), want degraded at threshold 2", c, ok)
	}
	for _, segs := range []int64{4, 16, 32, 64, 1024} {
		trigger := vlog.GCTrigger(segs)
		for free, want := range map[int64]Severity{trigger: Degraded, trigger + 1: OK} {
			s.Gauges.PerShard[0].VLogSegments = segs
			s.Gauges.PerShard[0].VLogFreeSegments = free
			if got := NewEvaluator().Evaluate(s, at(1)).Worst(CondVLogFreeLow); got != want {
				t.Errorf("%d segments, %d free = %v, want %v", segs, free, got, want)
			}
		}
	}
}

// Every rule's boundaries sit at its constant: just below the degraded
// threshold reads ok, at it degraded, at the critical threshold critical.
// Rules that only degrade have no critical point.
func TestRuleBoundaries(t *testing.T) {
	once := func(s obs.Snapshot) Report { return NewEvaluator().Evaluate(s, at(1)) }
	// Delta rules read the interval since a zero snapshot.
	interval := func(s obs.Snapshot) Report {
		e := NewEvaluator()
		e.Evaluate(obs.Snapshot{}, at(0))
		return e.Evaluate(s, at(1))
	}
	type point struct {
		x    float64
		want Severity
	}
	cases := []struct {
		rule   string
		eval   func(x float64) Report
		points []point
	}{
		{CondVLogFreeLow, func(free float64) Report {
			var s obs.Snapshot
			s.Gauges.VLogSegments = 64
			s.Gauges.VLogFreeSegments = int64(free)
			return once(s)
		}, []point{{9, OK}, {8, Degraded}, {VLogFreeCriticalSegments, Critical}}},
		{CondGCBacklog, func(live float64) Report {
			var s obs.Snapshot
			s.Gauges.VLogUsedWords = 1000
			s.Gauges.VLogLiveWords = int64(live)
			return once(s)
		}, []point{{501, OK}, {1000 * (1 - GarbageDegraded), Degraded}, {1000 * (1 - GarbageCritical), Critical}}},
		{CondResizeStall, func(stuck float64) Report {
			var s obs.Snapshot
			s.Gauges.Resizing = 1
			s.Gauges.DrainBucketsRemaining = 7
			e := NewEvaluator()
			e.Evaluate(s, at(0))
			return e.Evaluate(s, at(0).Add(time.Duration(stuck*float64(time.Second))))
		}, []point{{ResizeStallWindow.Seconds()/2 - 0.001, OK}, {ResizeStallWindow.Seconds() / 2, Degraded}, {ResizeStallWindow.Seconds(), Critical}}},
		{CondEpochPressure, func(live float64) Report {
			var s obs.Snapshot
			s.Gauges.EpochSlotsLive = int64(live)
			return once(s)
		}, []point{{EpochSlotsDegraded - 1, OK}, {EpochSlotsDegraded, Degraded}, {EpochSlotsCritical, Critical}}},
		{CondLoadFactorHigh, func(lf float64) Report {
			var s obs.Snapshot
			s.Gauges.LoadFactor = lf
			return once(s)
		}, []point{{LoadFactorDegraded - 0.001, OK}, {LoadFactorDegraded, Degraded}, {LoadFactorCritical, Critical}}},
		{CondShardImbalance, func(max float64) Report {
			var s obs.Snapshot
			s.Gauges.Items = ImbalanceMinItems
			s.Gauges.PerShard = []obs.ShardGauges{{Shard: 0, Items: int64(max)}, {Shard: 1}, {Shard: 2}, {Shard: 3}}
			return once(s)
		}, []point{{ImbalanceMinItems/4*ImbalanceDegraded - 1, OK}, {ImbalanceMinItems / 4 * ImbalanceDegraded, Degraded}}},
		{CondErrorRate, func(bad float64) Report {
			var s obs.Snapshot
			s.Ops[obs.OpInsert][obs.OutOK] = 1000 - uint64(bad)
			s.Ops[obs.OpInsert][obs.OutFull] = uint64(bad)
			return interval(s)
		}, []point{{1000*ErrorRateDegraded - 1, OK}, {1000 * ErrorRateDegraded, Degraded}, {1000 * ErrorRateCritical, Critical}}},
		{CondRESPInFlight, func(n float64) Report {
			var s obs.Snapshot
			s.RESP = &obs.RESPSnapshot{InFlight: int64(n)}
			return once(s)
		}, []point{{RESPInFlightDegraded - 1, OK}, {RESPInFlightDegraded, Degraded}, {RESPInFlightCritical, Critical}}},
		{CondFilterIneffective, func(probes float64) Report {
			var s obs.Snapshot
			s.Ops[obs.OpInsert][obs.OutOK] = FilterMinWalks
			s.NVTProbes = uint64(probes)
			return interval(s)
		}, []point{{FilterMinWalks*FilterReadsPerWalkDegraded - 1, OK}, {FilterMinWalks * FilterReadsPerWalkDegraded, Degraded}}},
	}
	for _, c := range cases {
		for _, p := range c.points {
			r := c.eval(p.x)
			if got := r.Worst(c.rule); got != p.want {
				t.Errorf("%s at %v = %v, want %v (%+v)", c.rule, p.x, got, p.want, r.Conditions)
			}
			for _, cond := range r.Conditions {
				if cond.Name != c.rule {
					t.Errorf("%s at %v also fired %+v", c.rule, p.x, cond)
				}
			}
		}
	}
}

// error_rate stays quiet below ErrorRateMinOps ops in the interval, however
// many of them failed.
func TestErrorRateMinOps(t *testing.T) {
	e := NewEvaluator()
	e.Evaluate(obs.Snapshot{}, at(0))
	var s obs.Snapshot
	s.Ops[obs.OpInsert][obs.OutFull] = ErrorRateMinOps - 1
	if r := e.Evaluate(s, at(1)); r.Status != OK {
		t.Fatalf("%d ops, all full = %+v, want OK", ErrorRateMinOps-1, r)
	}
}

// gc_backlog: garbage fraction past the thresholds.
func TestGCBacklog(t *testing.T) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.Gauges.VLogUsedWords = 1000
	s.Gauges.VLogLiveWords = 100 // 90% garbage
	r := e.Evaluate(s, at(1))
	c, ok := findCond(r, CondGCBacklog)
	if !ok || c.Severity != Critical {
		t.Fatalf("gc_backlog = %+v (found %v), want critical", c, ok)
	}
	s.Gauges.VLogLiveWords = 400 // 60% garbage
	r = e.Evaluate(s, at(2))
	if c, _ := findCond(r, CondGCBacklog); c.Severity != Degraded {
		t.Fatalf("gc_backlog = %+v, want degraded at 60%%", c)
	}
}

// resize_stall needs repeated observations: same remaining-bucket count
// across the stall window goes critical; progress resets the clock.
func TestResizeStall(t *testing.T) {
	e := NewEvaluator()
	snap := func(remaining int64) obs.Snapshot {
		var s obs.Snapshot
		s.Gauges.PerShard = []obs.ShardGauges{
			{Shard: 0, Resizing: 1, DrainBucketsRemaining: remaining},
			{Shard: 1},
		}
		return s
	}
	if r := e.Evaluate(snap(500), at(0)); r.Status != OK {
		t.Fatalf("first observation = %+v, want OK", r)
	}
	// Progress: clock restarts.
	if r := e.Evaluate(snap(400), at(4)); r.Status != OK {
		t.Fatalf("progressing resize = %+v, want OK", r)
	}
	// Stuck for 5s (>= window/2): degraded.
	r := e.Evaluate(snap(400), at(9))
	c, ok := findCond(r, CondResizeStall)
	if !ok || c.Severity != Degraded || c.Shard != 0 {
		t.Fatalf("stall at 5s = %+v (found %v), want degraded shard 0", c, ok)
	}
	// Stuck for 11s (>= window): critical, cause names the shard.
	r = e.Evaluate(snap(400), at(15))
	c, _ = findCond(r, CondResizeStall)
	if c.Severity != Critical || !strings.Contains(c.Cause, "shard 0") {
		t.Fatalf("stall at 11s = %+v, want critical naming shard 0", c)
	}
	// Resize finishes: state clears and stays quiet.
	var done obs.Snapshot
	done.Gauges.PerShard = []obs.ShardGauges{{Shard: 0}, {Shard: 1}}
	if r := e.Evaluate(done, at(16)); r.Status != OK {
		t.Fatalf("after resize completes = %+v, want OK", r)
	}
}

// epoch_pressure on the live-slot gauge.
func TestEpochPressure(t *testing.T) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.Gauges.EpochSlotsLive = 2000
	r := e.Evaluate(s, at(1))
	if c, _ := findCond(r, CondEpochPressure); c.Severity != Degraded {
		t.Fatalf("2000 slots = %+v, want degraded", c)
	}
	s.Gauges.EpochSlotsLive = 10000
	r = e.Evaluate(s, at(2))
	c, _ := findCond(r, CondEpochPressure)
	if c.Severity != Critical || !strings.Contains(c.Cause, "10000") {
		t.Fatalf("10000 slots = %+v, want critical with count in cause", c)
	}
}

// load_factor_high per shard.
func TestLoadFactorHigh(t *testing.T) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.Gauges.PerShard = []obs.ShardGauges{
		{Shard: 0, LoadFactor: 0.5},
		{Shard: 1, LoadFactor: 0.92},
		{Shard: 2, LoadFactor: 0.97},
	}
	r := e.Evaluate(s, at(1))
	var sawDeg, sawCrit bool
	for _, c := range r.Conditions {
		if c.Name != CondLoadFactorHigh {
			t.Fatalf("unexpected condition %+v", c)
		}
		sawDeg = sawDeg || (c.Severity == Degraded && c.Shard == 1)
		sawCrit = sawCrit || (c.Severity == Critical && c.Shard == 2)
	}
	if !sawDeg || !sawCrit {
		t.Fatalf("conditions = %+v, want degraded shard 1 + critical shard 2", r.Conditions)
	}
}

// shard_imbalance only fires on real stores (min items) and names the
// overloaded shard.
func TestShardImbalance(t *testing.T) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.Gauges.Items = 40000
	s.Gauges.PerShard = []obs.ShardGauges{
		{Shard: 0, Items: 25000},
		{Shard: 1, Items: 5000},
		{Shard: 2, Items: 5000},
		{Shard: 3, Items: 5000},
	}
	r := e.Evaluate(s, at(1))
	c, ok := findCond(r, CondShardImbalance)
	if !ok || c.Severity != Degraded || c.Shard != 0 {
		t.Fatalf("imbalance = %+v (found %v), want degraded shard 0", c, ok)
	}
	// Below the min-items floor the same shape stays quiet.
	s.Gauges.Items = 400
	for i := range s.Gauges.PerShard {
		s.Gauges.PerShard[i].Items /= 100
	}
	if r := e.Evaluate(s, at(2)); r.Status != OK {
		t.Fatalf("tiny store imbalance = %+v, want OK", r)
	}
}

// error_rate is a delta rule: the second snapshot's contended/full share of
// the interval's ops drives severity.
func TestErrorRate(t *testing.T) {
	e := NewEvaluator()
	var s0 obs.Snapshot
	e.Evaluate(s0, at(0))
	var s1 obs.Snapshot
	s1.Ops[obs.OpGet][obs.OutHotHit] = 800
	s1.Ops[obs.OpInsert][obs.OutContended] = 150
	s1.Ops[obs.OpInsert][obs.OutFull] = 50 // 200/1000 = 20% >= critical
	r := e.Evaluate(s1, at(1))
	c, ok := findCond(r, CondErrorRate)
	if !ok || c.Severity != Critical {
		t.Fatalf("20%% errors = %+v (found %v), want critical", c, ok)
	}
	// Next interval is clean: rule quiets down.
	s2 := s1
	s2.Ops[obs.OpGet][obs.OutHotHit] += 1000
	if r := e.Evaluate(s2, at(2)); r.Status != OK {
		t.Fatalf("clean interval = %+v, want OK", r)
	}
}

// filter_ineffective is a delta rule over counters the store already keeps:
// the interval's NVT slot reads over the walks its op counters imply. The
// broken interval is the shape a fingerprint aliased with the segment index
// produced — fresh-key inserts reading ~15 slots each.
func TestFilterIneffective(t *testing.T) {
	e := NewEvaluator()
	var s0 obs.Snapshot
	e.Evaluate(s0, at(0))

	// A working filter: hot hits walk nothing, NVT hits read their one slot,
	// misses and inserts read the odd false positive.
	s1 := s0
	s1.Ops[obs.OpGet][obs.OutHotHit] = 50000
	s1.Ops[obs.OpGet][obs.OutNVTHit] = 4000
	s1.Ops[obs.OpGet][obs.OutMiss] = 1000
	s1.Ops[obs.OpInsert][obs.OutOK] = 5000
	s1.NVTProbes = 4000 + 6000*3/10
	if r := e.Evaluate(s1, at(1)); r.Status != OK {
		t.Fatalf("5800 reads over 10000 walks = %+v, want OK", r)
	}

	s2 := s1
	s2.Ops[obs.OpInsert][obs.OutOK] += 5000
	s2.NVTProbes += 75000
	r := e.Evaluate(s2, at(2))
	c, ok := findCond(r, CondFilterIneffective)
	if !ok || c.Severity != Degraded || c.Value != 15 || !strings.Contains(c.Cause, "75000 NVT slot reads over 5000 walks") {
		t.Fatalf("15 reads per walk = %+v (found %v), want degraded naming the counts", c, ok)
	}

	// The same ratio over too few walks to mean anything stays quiet, and the
	// rule reads the interval, not the totals the bad one left behind.
	s3 := s2
	s3.Ops[obs.OpGet][obs.OutMiss] += 100
	s3.NVTProbes += 1500
	if r := e.Evaluate(s3, at(3)); r.Status != OK {
		t.Fatalf("100 walks = %+v, want OK", r)
	}
}

// Report.Conditions lists fired rules in ConditionNames order, the order the
// docs table and the Prometheus series use.
func TestConditionsInExpositionOrder(t *testing.T) {
	e := NewEvaluator()
	var s0 obs.Snapshot
	e.Evaluate(s0, at(0))
	s1 := s0
	s1.Ops[obs.OpInsert][obs.OutOK] = 4000
	s1.Ops[obs.OpInsert][obs.OutFull] = 1000
	s1.NVTProbes = 75000
	s1.RESP = &obs.RESPSnapshot{InFlight: 2000}
	r := e.Evaluate(s1, at(1))
	var got []string
	for _, c := range r.Conditions {
		got = append(got, c.Name)
	}
	want := []string{CondErrorRate, CondRESPInFlight, CondFilterIneffective}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("conditions fired as %v, want %v", got, want)
	}
}

// resp_in_flight reads the listener gauge when present.
func TestRESPInFlight(t *testing.T) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.RESP = &obs.RESPSnapshot{InFlight: 2000}
	r := e.Evaluate(s, at(1))
	if c, _ := findCond(r, CondRESPInFlight); c.Severity != Degraded {
		t.Fatalf("2000 in flight = %+v, want degraded", c)
	}
	s.RESP = nil
	if r := e.Evaluate(s, at(2)); r.Status != OK {
		t.Fatalf("no RESP listener = %+v, want OK", r)
	}
}

// WriteProm emits the status gauge plus one stable series per rule.
func TestReportProm(t *testing.T) {
	r := Report{
		Status: Critical,
		Conditions: []Condition{
			{Name: CondVLogFreeLow, Severity: Critical, Shard: 2},
			{Name: CondVLogFreeLow, Severity: Degraded, Shard: 1},
			{Name: CondErrorRate, Severity: Degraded, Shard: -1},
		},
	}
	var buf bytes.Buffer
	r.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		"hdnh_health_status 2\n",
		`hdnh_health_condition{condition="vlog_free_low"} 2`,
		`hdnh_health_condition{condition="error_rate"} 1`,
		`hdnh_health_condition{condition="resize_stall"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "hdnh_health_condition{"); got != len(ConditionNames) {
		t.Fatalf("condition series = %d, want %d (one per rule)", got, len(ConditionNames))
	}
}

// WriteText leads with the status and lists each fired condition's cause.
func TestReportText(t *testing.T) {
	r := Report{
		Status: Degraded,
		Conditions: []Condition{
			{Name: CondGCBacklog, Severity: Degraded, Shard: -1, Cause: "vlog garbage fraction 60.0%"},
		},
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "degraded\n") || !strings.Contains(out, "gc_backlog") || !strings.Contains(out, "60.0%") {
		t.Fatalf("text = %q", out)
	}
}

// BenchmarkEvaluate prices one full rule-set pass over a realistic sharded
// snapshot — the per-tick cost the serve layer pays on its ~1s collector.
func BenchmarkEvaluate(b *testing.B) {
	e := NewEvaluator()
	var s obs.Snapshot
	s.Gauges.Items = 1 << 20
	s.Gauges.LoadFactor = 0.62
	s.Gauges.VLogSegments = 64
	s.Gauges.VLogFreeSegments = 20
	s.Gauges.VLogUsedWords = 1 << 22
	s.Gauges.VLogLiveWords = 3 << 20
	s.Gauges.EpochSlotsLive = 12
	for i := int64(0); i < 4; i++ {
		s.Gauges.PerShard = append(s.Gauges.PerShard, obs.ShardGauges{
			Shard: i, Items: 1 << 18, LoadFactor: 0.62,
			VLogSegments: 16, VLogFreeSegments: 5, VLogUsedWords: 1 << 20,
		})
	}
	s.RESP = &obs.RESPSnapshot{InFlight: 40}
	s.Ops[obs.OpGet][obs.OutHotHit] = 1 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ops[obs.OpGet][obs.OutHotHit] += 1000 // keep the interval delta non-degenerate
		e.Evaluate(s, at(i))
	}
}
