// Package serve is the operator face of the bigkv store over HTTP: the
// observability expositions (/metrics, /metrics.json), the health and
// readiness probes (/healthz, /readyz), the hot-key and history views
// (/debug/heat, /debug/history) and the -debug flight/pprof surface. Data
// travels over the RESP listener (internal/resp), never over HTTP. The
// hdnhserve command wires both to their listeners; tests drive the Handler
// directly.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/flight"
	"hdnh/internal/health"
	"hdnh/internal/heat"
	"hdnh/internal/obs"
)

// Options configures a Server.
type Options struct {
	// Store is the backing store. Required.
	Store *bigkv.Store
	// Log receives error and (at debug level) per-request lines. nil
	// discards.
	Log *slog.Logger
	// Debug mounts /debug/flight, which serves the store's flight recorder
	// (core.Options.Flight), and /debug/pprof.
	Debug bool
	// RESPMetrics, when non-nil, is merged into the /metrics and
	// /metrics.json expositions so the wire listener's counters ride the
	// same scrape as the table's.
	RESPMetrics *obs.RESPMetrics
	// HistoryPoints sizes the /debug/history ring; 0 means
	// obs.DefaultHistoryPoints (~10 min at 1s collection).
	HistoryPoints int
	// CollectEvery, when positive, starts a background collector goroutine
	// recording a history point and re-evaluating health at that period.
	// Zero leaves collection to /healthz and /metrics requests (tests) or
	// explicit Collect calls.
	CollectEvery time.Duration
}

// Server owns the handlers. It reads the store only through snapshots and
// holds no store session.
type Server struct {
	st          *bigkv.Store
	log         *slog.Logger
	flight      *flight.Recorder
	respMetrics *obs.RESPMetrics
	handler     http.Handler

	health  *health.Evaluator
	heat    *heat.Monitor
	history *obs.History
	started time.Time

	// shuttingDown flips readiness the moment graceful shutdown begins —
	// before the listener dies — so load balancers drain first.
	shuttingDown atomic.Bool

	collectStop chan struct{}
	collectDone chan struct{}
}

// New builds a Server and its handler tree.
func New(opts Options) *Server {
	logger := opts.Log
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		st:          opts.Store,
		log:         logger,
		flight:      opts.Store.Index().Flight(),
		respMetrics: opts.RESPMetrics,
		health:      health.NewEvaluator(),
		heat:        opts.Store.Index().Options().Heat,
		history:     obs.NewHistory(opts.HistoryPoints),
		started:     time.Now(),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metricsProm)
	mux.HandleFunc("/metrics.json", s.metricsJSON)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/readyz", s.readyz)
	mux.HandleFunc("/debug/heat", s.debugHeat)
	mux.HandleFunc("/debug/history", s.debugHistory)
	if opts.Debug {
		mux.HandleFunc("/debug/flight", s.debugFlight)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	s.handler = s.accessLog(mux)
	if opts.CollectEvery > 0 {
		s.startCollector(opts.CollectEvery)
	}
	return s
}

// startCollector launches the periodic history/health collection loop.
func (s *Server) startCollector(every time.Duration) {
	s.collectStop = make(chan struct{})
	s.collectDone = make(chan struct{})
	go func() {
		defer close(s.collectDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.collectStop:
				return
			case now := <-t.C:
				s.Collect(now)
			}
		}
	}()
}

// Collect records one history point and re-evaluates health from a fresh
// snapshot. The collector goroutine calls it on its ticker; tests call it
// directly to step time deterministically.
func (s *Server) Collect(now time.Time) health.Report {
	snap := s.snapshot()
	s.history.Record(snap, now)
	return s.health.Evaluate(snap, now)
}

// BeginShutdown flips /readyz (and /healthz) to 503 without touching the
// listener: call it the moment a termination signal arrives, keep serving
// while the load balancer drains, then stop the listener and Close.
func (s *Server) BeginShutdown() {
	s.shuttingDown.Store(true)
}

// Handler returns the root handler (access log, mux).
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the collector goroutine. Call it after the HTTP server has
// drained and before Store.Close. Implies BeginShutdown for callers that
// skipped the graceful-drain phase.
func (s *Server) Close() {
	s.shuttingDown.Store(true)
	if s.collectStop != nil {
		close(s.collectStop)
		<-s.collectDone
		s.collectStop = nil
	}
}

// statusWriter captures what the handler sent so the access log can report
// outcome and size without buffering bodies.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// accessLog wraps the handler tree with the per-request debug-level log
// line.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.log.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s.log.Debug("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur", time.Since(start),
			"bytes", sw.bytes,
		)
	})
}

// writeBuffered renders an exposition into memory before touching the
// response: a render error then becomes a clean 500, not a 200 with a
// truncated body the scraper half-parses.
func (s *Server) writeBuffered(w http.ResponseWriter, name, contentType string, render func(io.Writer) error) {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		s.log.Error("exposition failed", "endpoint", name, "err", err)
		http.Error(w, "exposition failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Past the first byte the client just went away; log and move on.
		s.log.Debug("exposition write", "endpoint", name, "err", err)
	}
}

// snapshot collects the store counters plus, when a RESP listener is
// attached, its wire-level counters.
func (s *Server) snapshot() obs.Snapshot {
	snap := s.st.MetricsSnapshot()
	if s.respMetrics != nil {
		snap.RESP = s.respMetrics.Snapshot()
	}
	return snap
}

func (s *Server) metricsProm(w http.ResponseWriter, _ *http.Request) {
	snap := s.snapshot()
	report := s.health.Evaluate(snap, time.Now())
	s.writeBuffered(w, "/metrics", "text/plain; version=0.0.4; charset=utf-8", func(w io.Writer) error {
		if err := snap.WriteProm(w); err != nil {
			return err
		}
		report.WriteProm(w)
		return nil
	})
}

// healthz evaluates the rules on demand and answers with the verdict: 200
// while the store is ok or merely degraded (the body names every fired
// condition and its cause), 503 once critical or shutting down. ?format=json
// returns the typed health.Report.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	report := s.health.Evaluate(s.snapshot(), time.Now())
	code := http.StatusOK
	if report.Status == health.Critical || s.shuttingDown.Load() {
		code = http.StatusServiceUnavailable
	}
	switch format := r.URL.Query().Get("format"); format {
	case "json":
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			health.Report
			ShuttingDown bool `json:"shutting_down"`
		}{report, s.shuttingDown.Load()}); err != nil {
			http.Error(w, "exposition failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(buf.Bytes())
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(code)
		if s.shuttingDown.Load() {
			fmt.Fprintln(w, "shutting down")
		}
		report.WriteText(w)
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (text|json)", format), http.StatusBadRequest)
	}
}

// readyz is the load-balancer check: 503 the moment shutdown begins or the
// last evaluation went critical, 200 otherwise. It reads the cached report
// rather than re-evaluating — readiness probes are frequent and must stay
// cheap — so run the collector (Options.CollectEvery) in production.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	if s.shuttingDown.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if report := s.health.Last(); report.Status == health.Critical {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		report.WriteText(w)
		return
	}
	fmt.Fprintln(w, "ready")
}

// debugHeat serves the store's hot-key monitor (core.Options.Heat): per-shard
// sampled op counts and the top-K keys by estimated touch count.
func (s *Server) debugHeat(w http.ResponseWriter, _ *http.Request) {
	if s.heat == nil {
		http.Error(w, "heat sampling disabled (run with -heat)", http.StatusNotFound)
		return
	}
	s.writeBuffered(w, "/debug/heat", "application/json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s.heat.Snapshot())
	})
}

// debugHistory serves the snapshot-delta ring: per-interval op/NVM/GC deltas
// plus closing gauges, oldest first.
func (s *Server) debugHistory(w http.ResponseWriter, _ *http.Request) {
	s.writeBuffered(w, "/debug/history", "application/json", func(w io.Writer) error {
		return s.history.WriteJSON(w)
	})
}

// Info renders a Redis-INFO-style text for the RESP INFO command: CRLF
// key:value lines under # Section headers. section selects one section
// (case-insensitive); "" , "default", "all" and "everything" return them
// all. ok=false means the section name is unknown.
func (s *Server) Info(section string) (string, bool) {
	snap := s.snapshot()
	report := s.health.Evaluate(snap, time.Now())

	var b strings.Builder
	server := func() {
		fmt.Fprintf(&b, "# Server\r\n")
		fmt.Fprintf(&b, "hdnh_version:1\r\n")
		fmt.Fprintf(&b, "go_version:%s\r\n", runtime.Version())
		fmt.Fprintf(&b, "process_goroutines:%d\r\n", runtime.NumGoroutine())
		fmt.Fprintf(&b, "uptime_in_seconds:%d\r\n", int64(time.Since(s.started).Seconds()))
		fmt.Fprintf(&b, "shards:%d\r\n", s.st.Index().NumShards())
		fmt.Fprintf(&b, "\r\n")
	}
	clients := func() {
		fmt.Fprintf(&b, "# Clients\r\n")
		var open, inFlight int64
		if snap.RESP != nil {
			open, inFlight = snap.RESP.ConnsOpen, snap.RESP.InFlight
		}
		fmt.Fprintf(&b, "connected_clients:%d\r\n", open)
		fmt.Fprintf(&b, "in_flight_commands:%d\r\n", inFlight)
		fmt.Fprintf(&b, "\r\n")
	}
	stats := func() {
		fmt.Fprintf(&b, "# Stats\r\n")
		var conns, cmds uint64
		if snap.RESP != nil {
			conns = snap.RESP.ConnsTotal
			for _, n := range snap.RESP.Commands {
				cmds += n
			}
		}
		fmt.Fprintf(&b, "total_connections_received:%d\r\n", conns)
		fmt.Fprintf(&b, "total_commands_processed:%d\r\n", cmds)
		gets := snap.Ops[obs.OpGet]
		fmt.Fprintf(&b, "keyspace_hits:%d\r\n", gets[obs.OutHotHit]+gets[obs.OutNVTHit])
		fmt.Fprintf(&b, "keyspace_misses:%d\r\n", gets[obs.OutMiss])
		fmt.Fprintf(&b, "hot_hit_ratio:%.4f\r\n", snap.HitRatio())
		fmt.Fprintf(&b, "expansions:%d\r\n", snap.Expansions)
		fmt.Fprintf(&b, "gc_write_amplification:%.3f\r\n", snap.GCWriteAmplification())
		fmt.Fprintf(&b, "\r\n")
	}
	keyspace := func() {
		fmt.Fprintf(&b, "# Keyspace\r\n")
		fmt.Fprintf(&b, "db0:keys=%d,expires=0,avg_ttl=0\r\n", snap.Gauges.Items)
		fmt.Fprintf(&b, "\r\n")
	}
	healthSec := func() {
		fmt.Fprintf(&b, "# Health\r\n")
		fmt.Fprintf(&b, "health_status:%s\r\n", report.Status)
		for _, name := range health.ConditionNames {
			fmt.Fprintf(&b, "health_%s:%s\r\n", name, report.Worst(name))
		}
		for _, c := range report.Conditions {
			fmt.Fprintf(&b, "health_cause:%s\r\n", c.Cause)
		}
		fmt.Fprintf(&b, "\r\n")
	}

	switch strings.ToLower(section) {
	case "", "default", "all", "everything":
		server()
		clients()
		stats()
		keyspace()
		healthSec()
	case "server":
		server()
	case "clients":
		clients()
	case "stats":
		stats()
	case "keyspace":
		keyspace()
	case "health":
		healthSec()
	default:
		return "", false
	}
	return b.String(), true
}

func (s *Server) metricsJSON(w http.ResponseWriter, _ *http.Request) {
	s.writeBuffered(w, "/metrics.json", "application/json", s.snapshot().WriteJSON)
}

// debugFlight serves the current flight trace. format=text (default) is the
// human rendering, format=json the Chrome trace-event file Perfetto loads.
func (s *Server) debugFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder disabled (run with -debug)", http.StatusNotFound)
		return
	}
	d := s.flight.Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		s.writeBuffered(w, "/debug/flight", "text/plain; charset=utf-8",
			func(w io.Writer) error { return flight.WriteText(w, d) })
	case "json":
		s.writeBuffered(w, "/debug/flight", "application/json",
			func(w io.Writer) error { return flight.WriteChromeTrace(w, d) })
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (text|json)", format), http.StatusBadRequest)
	}
}
