package serve

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hdnh/internal/bigkv"
	"hdnh/internal/flight"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

// testServer builds a server over a small in-memory store, with the debug
// log captured so the access-log assertions can read it back.
func testServer(t *testing.T, withFlight bool) (*Server, *bytes.Buffer) {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 21))
	if err != nil {
		t.Fatal(err)
	}
	opts := bigkv.DefaultOptions()
	opts.Table.Metrics = obs.New(obs.Config{})
	if withFlight {
		opts.Table.Flight = flight.New(flight.Config{})
	}
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := New(Options{Store: st, Log: logger, Debug: withFlight})
	t.Cleanup(func() { srv.Close() })
	return srv, &logBuf
}

func TestKVRoundTripAndAccessLog(t *testing.T) {
	srv, logBuf := testServer(t, false)
	h := srv.Handler()

	put := httptest.NewRequest(http.MethodPut, "/kv/alpha", strings.NewReader("value-bytes"))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, put)
	if w.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d, want 204", w.Code)
	}

	get := httptest.NewRequest(http.MethodGet, "/kv/alpha", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, get)
	if w.Code != http.StatusOK || w.Body.String() != "value-bytes" {
		t.Fatalf("GET = %d %q", w.Code, w.Body.String())
	}

	logs := logBuf.String()
	for _, want := range []string{"method=PUT", "method=GET", "key_hash=", "status=200", "status=204", "bytes=11"} {
		if !strings.Contains(logs, want) {
			t.Fatalf("access log missing %q:\n%s", want, logs)
		}
	}
}

// TestURLHostileKeysRoundTrip is the regression test for the key-escaping
// hole: keys containing '/', spaces, dot-segments or percent signs used to
// be read from the DECODED r.URL.Path (so "a%2Fb" and "a/b" aliased) and
// routed through ServeMux path cleaning (so ".." and "//" got 301'd to a
// different key). Through a real listener, every such key must round-trip
// byte-exact, with no redirects and no aliasing.
func TestURLHostileKeysRoundTrip(t *testing.T) {
	srv, _ := testServer(t, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse // a 301 must fail the test, not be followed
		},
	}

	do := func(method, rawPath, body string) (*http.Response, string) {
		t.Helper()
		u, err := url.Parse(ts.URL + rawPath)
		if err != nil {
			t.Fatalf("parse %q: %v", rawPath, err)
		}
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, u.String(), rd)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return res, string(b)
	}

	hostile := []struct {
		rawPath string // as sent on the wire
		key     string // the key bytes the server must store under
	}{
		{"/kv/a%2Fb", "a/b"},
		{"/kv/a%20b", "a b"},
		{"/kv/..", ".."},
		{"/kv/x//y", "x//y"},
		{"/kv/a%2541", "a%41"}, // literal percent, double-encoded
		{"/kv/%00%01%02", "\x00\x01\x02"},
	}
	for i, c := range hostile {
		val := fmt.Sprintf("val-%d", i)
		if res, body := do(http.MethodPut, c.rawPath, val); res.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %q = %d %q, want 204", c.rawPath, res.StatusCode, body)
		}
		res, body := do(http.MethodGet, c.rawPath, "")
		if res.StatusCode != http.StatusOK || body != val {
			t.Fatalf("GET %q = %d %q, want 200 %q", c.rawPath, res.StatusCode, body, val)
		}
	}

	// Aliasing probe: "a%2Fb" and "a/b" percent-decode to the same key
	// bytes, so they MUST read back the same record — but "a%2541" ("a%41")
	// and "a%41" ("aA") must not.
	if res, body := do(http.MethodGet, "/kv/a/b", ""); res.StatusCode != http.StatusOK || body != "val-0" {
		t.Fatalf("GET /kv/a/b = %d %q, want the a%%2Fb record", res.StatusCode, body)
	}
	if res, _ := do(http.MethodGet, "/kv/a%41", ""); res.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /kv/a%%41 = %d, want 404 (distinct from a%%2541)", res.StatusCode)
	}

	// Invalid percent-encodings are a 400, never a guessed key. Go's URL
	// parser refuses to even build such a request, so send it raw.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /kv/a%%zzb HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, " 400 ") {
		t.Fatalf("raw GET /kv/a%%zzb status line = %q, want 400", status)
	}
}

func TestBatchRunsAndVerdicts(t *testing.T) {
	srv, _ := testServer(t, false)
	h := srv.Handler()

	body := `{"ops":[
		{"op":"put","key":"b1","value":"` + b64("v1") + `"},
		{"op":"put","key":"b2","value":"` + b64("v2") + `"},
		{"op":"get","key":"b1"},
		{"op":"get","key":"nope"},
		{"op":"delete","key":"b2"},
		{"op":"delete","key":"b2"}
	]}`
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("/batch = %d %q", w.Code, w.Body.String())
	}
	got := w.Body.String()
	for _, want := range []string{`"ok"`, `"not_found"`, b64("v1")} {
		if !strings.Contains(got, want) {
			t.Fatalf("/batch response missing %s: %s", want, got)
		}
	}
}

// TestBatchRejectsTrailingGarbage pins the strict-EOF fix: a request body
// carrying bytes after the JSON document used to be silently accepted with
// the trailer dropped; now it is a 400 before any op executes.
func TestBatchRejectsTrailingGarbage(t *testing.T) {
	srv, _ := testServer(t, false)
	h := srv.Handler()

	good := `{"ops":[{"op":"put","key":"tg","value":"` + b64("v") + `"}]}`
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"trailing object", good + `{"ops":[]}`, http.StatusBadRequest},
		{"trailing token", good + ` true`, http.StatusBadRequest},
		{"trailing garbage bytes", good + `%%%`, http.StatusBadRequest},
		{"trailing whitespace ok", good + "\n\t ", http.StatusOK},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(c.body)))
		if w.Code != c.want {
			t.Fatalf("%s: /batch = %d %q, want %d", c.name, w.Code, w.Body.String(), c.want)
		}
	}
}

// TestCloseDrainsSessionPool pins the shutdown leak fix: sessions parked in
// the free list must be Closed by Server.Close, returning their epoch
// slots, so the store shuts down with an empty registry.
func TestCloseDrainsSessionPool(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 21))
	if err != nil {
		t.Fatal(err)
	}
	opts := bigkv.DefaultOptions()
	opts.Table.Metrics = obs.New(obs.Config{})
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseline := st.EpochSlotsLive() // the store's own GC workers
	srv := New(Options{Store: st})
	h := srv.Handler()

	// Serve a few requests so released sessions park in the pool.
	for i := 0; i < 4; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/kv/k%d", i), strings.NewReader("v")))
		if w.Code != http.StatusNoContent {
			t.Fatalf("PUT = %d", w.Code)
		}
	}
	if live := st.EpochSlotsLive(); live <= baseline {
		t.Fatalf("EpochSlotsLive = %d after requests, want > baseline %d (pool should hold sessions)", live, baseline)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if live := st.EpochSlotsLive(); live != baseline {
		t.Fatalf("EpochSlotsLive = %d after Server.Close, want baseline %d", live, baseline)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsEndpointsSetContentTypeAndStatus(t *testing.T) {
	srv, _ := testServer(t, false)

	w := httptest.NewRecorder()
	srv.metricsProm(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(w.Body.String(), "hdnh_") {
		t.Fatal("/metrics body carries no hdnh_ series")
	}

	w = httptest.NewRecorder()
	srv.metricsJSON(w, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics.json = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metrics.json Content-Type = %q", ct)
	}
}

// TestRESPMetricsRideTheExposition: with a RESP listener attached, its
// counters must appear in both expositions.
func TestRESPMetricsRideTheExposition(t *testing.T) {
	srv, _ := testServer(t, false)
	m := obs.NewRESPMetrics()
	srv.respMetrics = m
	m.ConnOpened()
	m.Enqueued(1)
	m.Served(obs.RESPGet, false, 1234)
	m.Run(1)
	m.Flush()

	w := httptest.NewRecorder()
	srv.metricsProm(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		"hdnh_resp_connections_total 1",
		`hdnh_resp_commands_total{cmd="get"} 1`,
		"hdnh_resp_runs_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	w = httptest.NewRecorder()
	srv.metricsJSON(w, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if !strings.Contains(w.Body.String(), `"resp"`) {
		t.Fatalf("/metrics.json missing resp block: %s", w.Body.String())
	}
}

// TestExpositionErrorIsCleanServerError is the regression test for the
// partial-write bug: a failing render must produce a 500 with no exposition
// bytes on the wire — before the fix the handler streamed into the
// ResponseWriter, so by the time rendering failed the client already held a
// 200 and a truncated body.
func TestExpositionErrorIsCleanServerError(t *testing.T) {
	srv, _ := testServer(t, false)
	w := httptest.NewRecorder()
	srv.writeBuffered(w, "/metrics", "text/plain",
		func(out io.Writer) error {
			io.WriteString(out, "hdnh_partial 1\n") // buffered, must never reach the client
			return errors.New("boom")
		})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	if strings.Contains(w.Body.String(), "hdnh_partial") {
		t.Fatalf("partial exposition leaked to the client: %q", w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); strings.HasPrefix(ct, "text/plain; version=") {
		t.Fatalf("exposition Content-Type set on an error response: %q", ct)
	}
}

func TestDebugFlightFormats(t *testing.T) {
	srv, _ := testServer(t, true)
	// Generate a little traffic so the trace is non-empty.
	sess := srv.st.NewSession()
	if err := sess.Put([]byte("k"), []byte("some value for the trace")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sess.Get([]byte("k")); err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	sess.Close()

	cases := []struct {
		query, contentType, needle string
	}{
		{"", "text/plain; charset=utf-8", "insert"},
		{"?format=text", "text/plain; charset=utf-8", "insert"},
		{"?format=json", "application/json", "traceEvents"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		srv.debugFlight(w, httptest.NewRequest(http.MethodGet, "/debug/flight"+c.query, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("flight%s = %d", c.query, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != c.contentType {
			t.Fatalf("flight%s Content-Type = %q, want %q", c.query, ct, c.contentType)
		}
		if !strings.Contains(w.Body.String(), c.needle) {
			t.Fatalf("flight%s body has no %q", c.query, c.needle)
		}
	}

	// The binary format must round-trip through the hardened reader.
	w := httptest.NewRecorder()
	srv.debugFlight(w, httptest.NewRequest(http.MethodGet, "/debug/flight?format=bin", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("flight bin = %d", w.Code)
	}
	if _, err := flight.ReadBinary(w.Body); err != nil {
		t.Fatalf("binary dump does not parse: %v", err)
	}

	// Unknown formats are a 400, a disabled recorder a 404.
	w = httptest.NewRecorder()
	srv.debugFlight(w, httptest.NewRequest(http.MethodGet, "/debug/flight?format=weird", nil))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown format = %d, want 400", w.Code)
	}
	off, _ := testServer(t, false)
	w = httptest.NewRecorder()
	off.debugFlight(w, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("disabled recorder = %d, want 404", w.Code)
	}
}

func b64(s string) string { return base64.StdEncoding.EncodeToString([]byte(s)) }
