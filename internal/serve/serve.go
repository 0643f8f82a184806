// Package serve is the HTTP face of the bigkv store: the /kv/ key-value
// API, the /batch endpoint, the observability expositions (/metrics,
// /metrics.json, /stats) and the -debug flight/pprof surface. The
// hdnhserve command wires it to a listener; tests drive the Handler
// directly.
//
// Keys on the /kv/ path are percent-decoded from the ESCAPED request path
// (r.URL.EscapedPath + url.PathUnescape), and the handler is dispatched
// before http.ServeMux sees the request. Both halves matter: ServeMux
// cleans paths (".." and "//" trigger 301 rewrites) and r.URL.Path is the
// decoded form (so "%2F" in a key was indistinguishable from a literal
// "/"). A key like "a/b", "..", or "x%zzy" now either round-trips exactly
// or is rejected with 400 — it is never silently aliased onto a different
// key. The RESP listener (internal/resp) needs none of this: bulk strings
// are length-prefixed and binary-safe by construction.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"hdnh/internal/batchrun"
	"hdnh/internal/bigkv"
	"hdnh/internal/flight"
	"hdnh/internal/hashfn"
	"hdnh/internal/health"
	"hdnh/internal/heat"
	"hdnh/internal/kv"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
	"hdnh/internal/vlog"
)

// MaxValueBytes bounds PUT bodies; the value log stores them whole. The
// RESP listener enforces the same cap on bulk strings.
const MaxValueBytes = 64 << 10

// MaxBatchOps bounds one /batch request; past this the client should send
// more requests, not bigger ones — one giant batch holds its session (and
// its response buffer) for the whole walk.
const MaxBatchOps = 4096

// DefaultSessionPoolSize bounds the idle-session free list. A request burst
// beyond it still gets sessions (session() falls back to NewSession); the
// overflow is Closed on release, so the pool — not the burst — bounds how
// many epoch slots the server holds long-term.
const DefaultSessionPoolSize = 64

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

// Server owns the handlers and a bounded free list of per-request store
// sessions. Sessions are single-goroutine objects; each in-flight request
// gets its own. A sync.Pool would drop idle sessions without calling Close,
// leaking their epoch-registry slots; the channel free list releases what
// it doesn't keep, and Close drains the rest.
type Server struct {
	st          *bigkv.Store
	log         *slog.Logger
	flight      *flight.Recorder
	respMetrics *obs.RESPMetrics
	sessions    chan *bigkv.Session
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
		sessions:    make(chan *bigkv.Session, DefaultSessionPoolSize),
		health:      health.NewEvaluator(),
		heat:        opts.Store.Index().Options().Heat,
		history:     obs.NewHistory(opts.HistoryPoints),
		started:     time.Now(),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/batch", s.batch)
	mux.HandleFunc("/metrics", s.metricsProm)
	mux.HandleFunc("/metrics.json", s.metricsJSON)
	mux.HandleFunc("/stats", s.stats)
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

	// /kv/ requests are dispatched here, before the mux: ServeMux path
	// cleaning would 301 keys containing "//" or ".." segments to a
	// different (cleaned) key, and its routing sees only the decoded path.
	s.handler = s.accessLog(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.EscapedPath(), "/kv/") {
			s.kv(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	}))
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

// Handler returns the root handler (access log, /kv/ dispatch, mux).
func (s *Server) Handler() http.Handler { return s.handler }

// Close releases the parked sessions, returning their epoch-registry slots
// before the store goes down, and stops the collector goroutine. Call it
// after the HTTP server has drained (in-flight requests re-park sessions
// until then) and before Store.Close. Implies BeginShutdown for callers
// that skipped the graceful-drain phase.
func (s *Server) Close() error {
	s.shuttingDown.Store(true)
	if s.collectStop != nil {
		close(s.collectStop)
		<-s.collectDone
		s.collectStop = nil
	}
	for {
		select {
		case sess := <-s.sessions:
			sess.Close()
		default:
			return nil
		}
	}
}

func (s *Server) session() *bigkv.Session {
	select {
	case sess := <-s.sessions:
		return sess
	default:
		return s.st.NewSession()
	}
}

func (s *Server) release(sess *bigkv.Session) {
	// Bridge this session's NVM traffic into the registry while we still own
	// the session; /metrics then needs no cross-goroutine stats reads.
	sess.SyncObs()
	select {
	case s.sessions <- sess:
	default:
		sess.Close() // free list full: return the epoch slot instead of parking it
	}
}

// kvKey extracts and percent-decodes the key from a /kv/ request path.
func kvKey(r *http.Request) ([]byte, error) {
	esc := strings.TrimPrefix(r.URL.EscapedPath(), "/kv/")
	name, err := url.PathUnescape(esc)
	if err != nil {
		return nil, fmt.Errorf("bad key encoding: %v", err)
	}
	if name == "" {
		return nil, errors.New("missing key")
	}
	return []byte(name), nil
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
// line. The key is logged as a hash, not plaintext: keys are user data, and
// the hash is exactly what correlates a request with the table's
// bucket-level events in a flight trace.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.log.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur", time.Since(start),
			"bytes", sw.bytes,
		}
		if strings.HasPrefix(r.URL.EscapedPath(), "/kv/") {
			if key, err := kvKey(r); err == nil {
				attrs = append(attrs, "key_hash", fmt.Sprintf("%016x", hashfn.Hash1(key)))
			}
		}
		s.log.Debug("request", attrs...)
	})
}

func (s *Server) kv(w http.ResponseWriter, r *http.Request) {
	key, err := kvKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(key) > kv.KeySize {
		http.Error(w, fmt.Sprintf("key longer than %d bytes", kv.KeySize), http.StatusBadRequest)
		return
	}
	sess := s.session()
	defer s.release(sess)

	switch r.Method {
	case http.MethodGet:
		v, ok, err := sess.Get(key)
		switch {
		case err == nil && ok:
			w.Write(v)
		case err == nil:
			http.Error(w, "not found", http.StatusNotFound)
		case errors.Is(err, scheme.ErrContended):
			contended(w)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}

	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxValueBytes+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > MaxValueBytes {
			http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
			return
		}
		if len(body) == 0 {
			http.Error(w, "empty value", http.StatusBadRequest)
			return
		}
		err = sess.Put(key, body)
		switch {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, scheme.ErrContended):
			contended(w)
		case errors.Is(err, scheme.ErrFull), errors.Is(err, vlog.ErrLogFull):
			http.Error(w, "store full", http.StatusInsufficientStorage)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}

	case http.MethodDelete:
		err := sess.Delete(key)
		switch {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, scheme.ErrContended):
			contended(w)
		case errors.Is(err, scheme.ErrNotFound):
			http.Error(w, "not found", http.StatusNotFound)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}

	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// batchOp is one entry in a POST /batch request. Values are base64 in the
// JSON (encoding/json's []byte convention); keys are plain strings, the
// same bytes a /kv/<key> path would carry.
type batchOp struct {
	Op    string `json:"op"` // get | put | delete
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// batchResult is the per-op verdict: status ok | not_found | contended |
// full | error, mirroring the HTTP codes the /kv/ handlers answer with.
type batchResult struct {
	Status string `json:"status"`
	Value  []byte `json:"value,omitempty"`
	Error  string `json:"error,omitempty"`
}

// batch runs a JSON list of operations through the store's batch entry
// points via batchrun: each stretch of ops in which no key occurs under two
// kinds becomes one MultiGet, one MultiPut and one MultiDelete call, so a
// mixed batch gets the up-front hashing, epoch-chunked table walks and group
// commits the batch path exists for, and every op still answers what it
// would have answered run one at a time. The request is validated whole before any op executes — a malformed
// op late in the list must not leave earlier ops half-applied.
func (s *Server) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Ops []batchOp `json:"ops"`
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, int64(MaxBatchOps)*(MaxValueBytes+256)))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Require EOF after the document: trailing garbage means a malformed
	// client (or a concatenated second request) that used to be silently
	// accepted and dropped.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		http.Error(w, "trailing data after batch body", http.StatusBadRequest)
		return
	}
	if len(req.Ops) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(req.Ops) > MaxBatchOps {
		http.Error(w, fmt.Sprintf("batch larger than %d ops", MaxBatchOps), http.StatusBadRequest)
		return
	}
	ops := make([]batchrun.Op, len(req.Ops))
	for i, op := range req.Ops {
		if op.Key == "" {
			http.Error(w, fmt.Sprintf("op %d: missing key", i), http.StatusBadRequest)
			return
		}
		if len(op.Key) > kv.KeySize {
			http.Error(w, fmt.Sprintf("op %d: key longer than %d bytes", i, kv.KeySize), http.StatusBadRequest)
			return
		}
		switch op.Op {
		case "get":
			ops[i] = batchrun.Op{Kind: batchrun.Get, Key: []byte(op.Key)}
		case "delete":
			ops[i] = batchrun.Op{Kind: batchrun.Delete, Key: []byte(op.Key)}
		case "put":
			if len(op.Value) == 0 {
				http.Error(w, fmt.Sprintf("op %d: put with empty value", i), http.StatusBadRequest)
				return
			}
			if len(op.Value) > MaxValueBytes {
				http.Error(w, fmt.Sprintf("op %d: value larger than %d bytes", i, MaxValueBytes), http.StatusBadRequest)
				return
			}
			ops[i] = batchrun.Op{Kind: batchrun.Put, Key: []byte(op.Key), Value: op.Value}
		default:
			http.Error(w, fmt.Sprintf("op %d: unknown op %q (get|put|delete)", i, op.Op), http.StatusBadRequest)
			return
		}
	}

	sess := s.session()
	defer s.release(sess)

	runResults := make([]batchrun.Result, len(ops))
	batchrun.Execute(sess, ops, runResults, nil)

	results := make([]batchResult, len(ops))
	for i, res := range runResults {
		switch {
		case res.Err != nil:
			results[i] = opVerdict(res.Err)
		case ops[i].Kind == batchrun.Get && !res.Found:
			results[i] = batchResult{Status: "not_found"}
		case ops[i].Kind == batchrun.Get:
			results[i] = batchResult{Status: "ok", Value: res.Value}
		default:
			results[i] = batchResult{Status: "ok"}
		}
	}

	s.writeBuffered(w, "/batch", "application/json", func(w io.Writer) error {
		return json.NewEncoder(w).Encode(struct {
			Results []batchResult `json:"results"`
		}{results})
	})
}

// opVerdict maps a store error onto the per-op wire statuses.
func opVerdict(err error) batchResult {
	switch {
	case errors.Is(err, scheme.ErrNotFound):
		return batchResult{Status: "not_found"}
	case errors.Is(err, scheme.ErrContended):
		return batchResult{Status: "contended"}
	case errors.Is(err, scheme.ErrFull), errors.Is(err, vlog.ErrLogFull):
		return batchResult{Status: "full"}
	default:
		return batchResult{Status: "error", Error: err.Error()}
	}
}

// contended answers a budget-exhausted operation: the request may succeed on
// retry once the movement burst passes, so say exactly that.
func contended(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "contended, retry", http.StatusServiceUnavailable)
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
// human rendering, format=json the Chrome trace-event file Perfetto loads,
// format=bin the binary dump hdnhinspect flight reads.
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
	case "bin":
		s.writeBuffered(w, "/debug/flight", "application/octet-stream",
			func(w io.Writer) error { return flight.WriteBinary(w, d) })
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (text|json|bin)", format), http.StatusBadRequest)
	}
}

func (s *Server) stats(w http.ResponseWriter, _ *http.Request) {
	idx := s.st.Index()
	logs := s.st.Logs()
	for i, tbl := range idx.Stats() {
		if idx.NumShards() > 1 {
			fmt.Fprintf(w, "shard %d: ", i)
		}
		fmt.Fprintln(w, tbl)
		lg := logs[i]
		fmt.Fprintf(w, "vlog: %d/%d words live, %d/%d segments free, %d recycles\n",
			lg.LiveWords(), lg.Capacity(), lg.FreeSegments(), lg.Segments(), lg.Recycles())
	}
}
