package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/health"
	"hdnh/internal/heat"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

// newStore builds a store with explicit options for tests that need a
// non-default geometry (tiny logs, heat monitors, metrics).
func newStore(t *testing.T, opts bigkv.Options) *bigkv.Store {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 21))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Table.Metrics == nil {
		opts.Table.Metrics = obs.New(obs.Config{})
	}
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// healthzJSON fetches /healthz?format=json through the handler and decodes it.
type healthzBody struct {
	Status     string `json:"status"`
	Conditions []struct {
		Name     string  `json:"name"`
		Severity string  `json:"severity"`
		Shard    int     `json:"shard"`
		Cause    string  `json:"cause"`
		Value    float64 `json:"value"`
	} `json:"conditions"`
	ShuttingDown bool `json:"shutting_down"`
}

func healthzJSON(t *testing.T, h http.Handler) (int, healthzBody) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz?format=json", nil))
	var body healthzBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz json: %v\n%s", err, w.Body.String())
	}
	return w.Code, body
}

// TestReadinessFlipsDuringShutdown is the regression test for the static-ok
// /healthz: readiness must flip to 503 the moment graceful shutdown begins —
// while an in-flight request is still being served — so a load balancer
// drains the instance without cutting that request off.
func TestReadinessFlipsDuringShutdown(t *testing.T) {
	srv, _ := testServer(t, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown /readyz = %v, %v; want 200", resp, err)
	} else {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(b), "ready") {
			t.Fatalf("pre-shutdown /readyz body = %q", b)
		}
	}

	// Park a PUT mid-body: the pipe write below does not return until the
	// handler has consumed the byte, so the request is provably in flight
	// (inside the handler, session checked out) before shutdown begins.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/kv/inflight", pr)
	if err != nil {
		t.Fatal(err)
	}
	putDone := make(chan error, 1)
	var putStatus int
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			putStatus = resp.StatusCode
			resp.Body.Close()
		}
		putDone <- err
	}()
	if _, err := pw.Write([]byte("v")); err != nil {
		t.Fatal(err)
	}

	srv.BeginShutdown()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), "shutting down") {
		t.Fatalf("/readyz during shutdown = %d %q, want 503 shutting down", resp.StatusCode, b)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), "shutting down") {
		t.Fatalf("/healthz during shutdown = %d %q, want 503 shutting down", resp.StatusCode, b)
	}
	code, body := healthzJSON(t, srv.Handler())
	if code != http.StatusServiceUnavailable || !body.ShuttingDown {
		t.Fatalf("/healthz json during shutdown = %d shutting_down=%v", code, body.ShuttingDown)
	}

	// The in-flight request finishes normally: draining, not dropping.
	pw.Write([]byte("alue"))
	pw.Close()
	if err := <-putDone; err != nil {
		t.Fatalf("in-flight PUT failed during graceful shutdown: %v", err)
	}
	if putStatus != http.StatusNoContent {
		t.Fatalf("in-flight PUT = %d, want 204", putStatus)
	}
	resp, err = http.Get(ts.URL + "/kv/inflight")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b) != "value" {
		t.Fatalf("GET after drained PUT = %d %q", resp.StatusCode, b)
	}
}

// TestHealthzVLogExhaustion drives a tiny no-GC log to exhaustion and asserts
// /healthz goes critical with the vlog_free_low condition named and a cause a
// human can read.
func TestHealthzVLogExhaustion(t *testing.T) {
	opts := bigkv.DefaultOptions()
	opts.SegmentWords = 1 << 9 // 4 KB segments
	opts.Segments = 4
	opts.DisableAutoGC = true
	st := newStore(t, opts)
	srv := New(Options{Store: st})
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	// Fat values overflow the inline record and land in the log; without GC
	// the fourth segment eventually fails to allocate and PUT answers 507.
	val := bytes.Repeat([]byte("x"), 500)
	full := false
	for i := 0; i < 200 && !full; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/kv/fill-%03d", i), bytes.NewReader(val)))
		switch w.Code {
		case http.StatusNoContent:
		case http.StatusInsufficientStorage:
			full = true
		default:
			t.Fatalf("PUT %d = %d %q", i, w.Code, w.Body.String())
		}
	}
	if !full {
		t.Fatal("log never filled; geometry assumption broken")
	}

	code, body := healthzJSON(t, h)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz on exhausted vlog = %d, want 503", code)
	}
	if body.Status != "critical" {
		t.Fatalf("status = %q, want critical", body.Status)
	}
	foundCond := false
	for _, c := range body.Conditions {
		if c.Name == health.CondVLogFreeLow && c.Severity == "critical" {
			foundCond = true
			if !strings.Contains(c.Cause, "segments free") {
				t.Fatalf("vlog_free_low cause = %q, want human-readable segment count", c.Cause)
			}
		}
	}
	if !foundCond {
		t.Fatalf("no critical vlog_free_low condition in %+v", body.Conditions)
	}

	// The text rendering names the condition too — that is what an operator
	// curling /healthz sees.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), health.CondVLogFreeLow) {
		t.Fatalf("/healthz text = %d %q, want 503 naming vlog_free_low", w.Code, w.Body.String())
	}
}

// TestHealthzEpochPressure leaks sessions past a lowered threshold and
// asserts /healthz degrades with the epoch_pressure condition, then recovers
// when the sessions close.
func TestHealthzEpochPressure(t *testing.T) {
	st := newStore(t, bigkv.DefaultOptions())
	baseline := st.EpochSlotsLive() // the store's own GC workers
	srv := New(Options{Store: st, HealthConfig: health.Config{
		EpochSlotsDegraded: int64(baseline + 4),
		EpochSlotsCritical: 1 << 30,
	}})
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	if code, body := healthzJSON(t, h); code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("quiet store: /healthz = %d %q", code, body.Status)
	}

	var leaked []*bigkv.Session
	for i := 0; i < 8; i++ {
		leaked = append(leaked, st.NewSession())
	}
	code, body := healthzJSON(t, h)
	if code != http.StatusOK {
		t.Fatalf("degraded (not critical) store: /healthz = %d, want 200", code)
	}
	found := false
	for _, c := range body.Conditions {
		if c.Name == health.CondEpochPressure && c.Severity == "degraded" {
			found = true
			if !strings.Contains(c.Cause, "unclosed sessions") {
				t.Fatalf("epoch_pressure cause = %q", c.Cause)
			}
		}
	}
	if !found {
		t.Fatalf("no degraded epoch_pressure condition in %+v (baseline %d)", body.Conditions, baseline)
	}

	for _, s := range leaked {
		s.Close()
	}
	if code, body := healthzJSON(t, h); code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("recovered store: /healthz = %d %q %+v", code, body.Status, body.Conditions)
	}
}

// TestReadyzServesCachedCritical seeds the evaluator with a stalled resize
// (two observations of an unmoving drain gauge) and asserts /readyz — which
// reads the cached report, never re-evaluating — answers 503 naming the
// condition.
func TestReadyzServesCachedCritical(t *testing.T) {
	srv, _ := testServer(t, false)
	h := srv.Handler()

	var snap obs.Snapshot
	snap.Gauges.Resizing = 1
	snap.Gauges.DrainBucketsRemaining = 42
	t0 := time.Now()
	srv.health.Evaluate(snap, t0)
	report := srv.health.Evaluate(snap, t0.Add(11*time.Second))
	if report.Status != health.Critical {
		t.Fatalf("seeded stall report = %v, want critical", report.Status)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with cached critical = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), health.CondResizeStall) ||
		!strings.Contains(w.Body.String(), "42 buckets") {
		t.Fatalf("/readyz body = %q, want resize_stall named with its cause", w.Body.String())
	}
}

// TestPromExpositionLint parses every line of /metrics the way a strict
// scraper would: comment grammar, metric-name and label charsets, float
// values, HELP+TYPE declared before first sample, one TYPE per name, no
// duplicate series.
func TestPromExpositionLint(t *testing.T) {
	srv, _ := testServer(t, false)
	srv.respMetrics = obs.NewRESPMetrics()
	h := srv.Handler()

	// Touch every counter family we can from here: hits, misses, deletes.
	for i := 0; i < 8; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/kv/lint-%d", i), strings.NewReader("v")))
		if w.Code != http.StatusNoContent {
			t.Fatalf("PUT = %d", w.Code)
		}
	}
	for _, path := range []string{"/kv/lint-0", "/kv/absent"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/kv/lint-7", nil))

	// One grouped write through /batch, so the write-group counter family
	// and size summary are present in the linted body, not just parseable.
	batch := `{"ops":[{"op":"put","key":"lint-b0","value":"dg=="},{"op":"put","key":"lint-b1","value":"dg=="},{"op":"put","key":"lint-b2","value":"dg=="}]}`
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(batch)))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /batch = %d: %s", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	body := w.Body.String()
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("exposition must end with a newline")
	}

	var (
		helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$`)
		typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
		labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"$`)
	)
	helped := map[string]bool{}
	typed := map[string]string{}
	series := map[string]bool{}
	sampled := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := helpRe.FindStringSubmatch(line); m != nil {
				helped[m[1]] = true
				continue
			}
			if m := typeRe.FindStringSubmatch(line); m != nil {
				if prev, dup := typed[m[1]]; dup {
					t.Errorf("line %d: duplicate TYPE for %s (already %s)", lineNo, m[1], prev)
				}
				if sampled[m[1]] {
					t.Errorf("line %d: TYPE for %s after its first sample", lineNo, m[1])
				}
				typed[m[1]] = m[2]
				continue
			}
			t.Errorf("line %d: malformed comment %q", lineNo, line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", lineNo, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: %s value %q does not parse: %v", lineNo, name, value, err)
		}
		if labels != "" {
			for _, pair := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if !labelRe.MatchString(pair) {
					t.Errorf("line %d: bad label pair %q in %q", lineNo, pair, line)
				}
			}
		}
		base := name
		for _, suffix := range []string{"_sum", "_count", "_bucket"} {
			if s := strings.TrimSuffix(name, suffix); s != name && typed[s] != "" {
				base = s
			}
		}
		if !helped[base] {
			t.Errorf("line %d: sample %s has no preceding HELP", lineNo, name)
		}
		if typed[base] == "" {
			t.Errorf("line %d: sample %s has no preceding TYPE", lineNo, name)
		}
		key := name + labels
		if series[key] {
			t.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		series[key] = true
		sampled[base] = true
	}
	// The health gauges must ride the same scrape, every rule present —
	// and after the /batch drive above, the write-group families too.
	for _, want := range []string{
		"hdnh_health_status",
		fmt.Sprintf("hdnh_health_condition{condition=%q}", health.CondVLogFreeLow),
		"hdnh_epoch_slots_live",
		"hdnh_resp_connections_open",
		"hdnh_write_groups_total",
		"hdnh_write_group_keys_total",
		"hdnh_write_group_size",
	} {
		found := false
		for key := range series {
			if strings.HasPrefix(key, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("exposition missing series %s", want)
		}
	}
}

// TestDebugHeatEndpoint wires one heat monitor into both the store and the
// server, drives a skewed /kv/ read load, and asserts the planted key tops
// its shard's sketch in the JSON.
func TestDebugHeatEndpoint(t *testing.T) {
	mon := heat.NewMonitor(heat.Config{TopK: 8, SampleEvery: 1})
	opts := bigkv.DefaultOptions()
	opts.Table.Heat = mon
	st := newStore(t, opts)
	srv := New(Options{Store: st, Heat: mon})
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, "/kv/hotkey", strings.NewReader("v")))
	if w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d", w.Code)
	}
	for i := 0; i < 10; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/kv/cold-%d", i), strings.NewReader("v")))
		if w.Code != http.StatusNoContent {
			t.Fatalf("PUT cold = %d", w.Code)
		}
	}
	for i := 0; i < 64; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/kv/hotkey", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET hot = %d", w.Code)
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/heat", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/heat = %d %q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/heat content-type = %q", ct)
	}
	var snap heat.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("heat json: %v\n%s", err, w.Body.String())
	}
	if snap.SampleEvery != 1 {
		t.Fatalf("sample_every = %d, want 1", snap.SampleEvery)
	}
	found := false
	for _, sh := range snap.Shards {
		if len(sh.Top) > 0 && sh.Top[0].Key == "hotkey" {
			found = true
			if sh.Top[0].Count < 64 {
				t.Fatalf("hotkey count = %d, want >= 64", sh.Top[0].Count)
			}
		}
	}
	if !found {
		t.Fatalf("planted key not on top of any shard sketch:\n%s", w.Body.String())
	}
}

// TestDebugHeatDisabled: without a monitor the endpoint 404s with a hint.
func TestDebugHeatDisabled(t *testing.T) {
	srv, _ := testServer(t, false)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/heat", nil))
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "heat sampling disabled") {
		t.Fatalf("/debug/heat disabled = %d %q", w.Code, w.Body.String())
	}
}

// TestDebugHistoryEndpoint steps the collector by hand (two Collect calls one
// second apart) and asserts the ring serves one delta point with the interval
// traffic attributed to it.
func TestDebugHistoryEndpoint(t *testing.T) {
	srv, _ := testServer(t, false)
	h := srv.Handler()

	t0 := time.Now()
	srv.Collect(t0) // seed: no point yet
	for i := 0; i < 5; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/kv/hist-%d", i), strings.NewReader("v")))
		if w.Code != http.StatusNoContent {
			t.Fatalf("PUT = %d", w.Code)
		}
	}
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/kv/hist-0", nil))
	}
	srv.Collect(t0.Add(time.Second))

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/history", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/history = %d", w.Code)
	}
	var got struct {
		Capacity int                `json:"capacity"`
		Points   []obs.HistoryPoint `json:"points"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("history json: %v\n%s", err, w.Body.String())
	}
	if got.Capacity != obs.DefaultHistoryPoints {
		t.Fatalf("capacity = %d, want %d", got.Capacity, obs.DefaultHistoryPoints)
	}
	if len(got.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(got.Points))
	}
	p := got.Points[0]
	if p.IntervalMS != 1000 {
		t.Fatalf("interval_ms = %d, want 1000", p.IntervalMS)
	}
	// The /kv/ upsert path goes update-else-insert, so fresh keys count one
	// insert each; the gets are gets.
	if p.Inserts != 5 {
		t.Fatalf("inserts delta = %d, want 5", p.Inserts)
	}
	if p.Gets < 3 {
		t.Fatalf("gets delta = %d, want >= 3", p.Gets)
	}
	if p.Items != 5 {
		t.Fatalf("closing items gauge = %d, want 5", p.Items)
	}
}

// TestCollectorGoroutine: with CollectEvery set, history points accumulate on
// their own and Close stops the collector without hanging.
func TestCollectorGoroutine(t *testing.T) {
	st := newStore(t, bigkv.DefaultOptions())
	srv := New(Options{Store: st, CollectEvery: 2 * time.Millisecond})
	h := srv.Handler()

	deadline := time.Now().Add(5 * time.Second)
	for {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/history", nil))
		var got struct {
			Points []obs.HistoryPoint `json:"points"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("history json: %v", err)
		}
		if len(got.Points) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("collector produced no history points in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not stop the collector")
	}
}

// TestInfoSections exercises the Redis-INFO renderer the RESP INFO command
// serves: section selection, case-insensitivity, CRLF framing, unknown
// sections.
func TestInfoSections(t *testing.T) {
	srv, _ := testServer(t, false)

	all, ok := srv.Info("")
	if !ok {
		t.Fatal("Info(\"\") not ok")
	}
	for _, header := range []string{"# Server", "# Clients", "# Stats", "# Keyspace", "# Health"} {
		if !strings.Contains(all, header+"\r\n") {
			t.Fatalf("full INFO missing %q:\n%s", header, all)
		}
	}
	if strings.Contains(strings.ReplaceAll(all, "\r\n", ""), "\n") {
		t.Fatal("INFO lines must be CRLF-terminated")
	}

	server, ok := srv.Info("server")
	if !ok || !strings.Contains(server, "go_version:") || strings.Contains(server, "# Stats") {
		t.Fatalf("Info(server) = %q, %v", server, ok)
	}
	healthSec, ok := srv.Info("HEALTH")
	if !ok || !strings.Contains(healthSec, "health_status:ok\r\n") {
		t.Fatalf("Info(HEALTH) = %q, %v", healthSec, ok)
	}
	for _, name := range health.ConditionNames {
		if !strings.Contains(healthSec, "health_"+name+":") {
			t.Fatalf("Info(health) missing rule %s:\n%s", name, healthSec)
		}
	}
	if _, ok := srv.Info("bogus"); ok {
		t.Fatal("Info(bogus) = ok, want unknown")
	}
	if _, ok := srv.Info("default"); !ok {
		t.Fatal("Info(default) must alias the full dump")
	}
}

// TestInfoStatsHitsExcludeContended pins keyspace_hits to the Gets that found
// their key: a Get that gave up contended is neither a hit nor a miss.
func TestInfoStatsHitsExcludeContended(t *testing.T) {
	srv, _ := testServer(t, false)
	h := srv.st.Index().Metrics().Handle()
	for out, n := range map[obs.Outcome]int{obs.OutHotHit: 3, obs.OutNVTHit: 2, obs.OutMiss: 4, obs.OutContended: 5} {
		for i := 0; i < n; i++ {
			h.Op(obs.OpGet, out, -1)
		}
	}
	stats, ok := srv.Info("stats")
	if !ok {
		t.Fatal("Info(stats) not ok")
	}
	for _, want := range []string{"keyspace_hits:5\r\n", "keyspace_misses:4\r\n"} {
		if !strings.Contains(stats, want) {
			t.Fatalf("Info(stats) missing %q:\n%s", want, stats)
		}
	}
}
