package serve

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

// TestAccessLog: at debug level every request leaves one line naming its
// method, path, status and size.
func TestAccessLog(t *testing.T) {
	srv, logBuf := testServer(t, false)
	h := srv.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", w.Code)
	}

	logs := logBuf.String()
	for _, want := range []string{"method=GET", "path=/readyz", "status=200", "bytes=6", "path=/nope", "status=404"} {
		if !strings.Contains(logs, want) {
			t.Fatalf("access log missing %q:\n%s", want, logs)
		}
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

	// Unknown formats, the retired binary dump among them, are a 400; a
	// disabled recorder is a 404.
	for _, format := range []string{"bin", "weird"} {
		w := httptest.NewRecorder()
		srv.debugFlight(w, httptest.NewRequest(http.MethodGet, "/debug/flight?format="+format, nil))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("format=%s = %d, want 400", format, w.Code)
		}
	}
	off, _ := testServer(t, false)
	w := httptest.NewRecorder()
	off.debugFlight(w, httptest.NewRequest(http.MethodGet, "/debug/flight", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("disabled recorder = %d, want 404", w.Code)
	}
}
