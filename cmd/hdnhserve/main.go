// Command hdnhserve runs an HDNH-indexed store behind two faces: a
// RESP2-compatible data listener with per-connection pipelining (see
// docs/PROTOCOL.md) that redis-cli, redis-benchmark and existing Redis
// clients speak unmodified, and an HTTP server for operators.
//
//	hdnhserve -addr :8080 -resp :6380 -capacity 100000 -mode model
//
// HTTP endpoints (handlers live in internal/serve):
//
//	GET    /metrics       Prometheus text exposition (the store's and the
//	       RESP listener's counters)
//	GET    /metrics.json  the same counters as indented JSON
//	GET    /healthz       health verdict: 200 ok/degraded (conditions named
//	       in the body), 503 critical or shutting down; ?format=json
//	GET    /readyz        load-balancer probe; 503 the moment shutdown begins
//	GET    /debug/heat    per-shard hot-key sketch (requires -heat)
//	GET    /debug/history ring of 1s snapshot deltas (last ~10 min)
//
// With -debug the process also attaches a flight recorder to the store and
// serves the live-debug surface (/debug/flight in text and Perfetto-JSON
// formats, plus net/http/pprof), and the structured log drops to debug
// level, which enables the per-request access log.
//
// Contended operations (retry budgets exhausted under sustained movement)
// answer -CONTENDED on RESP; a value log full of live data answers -FULL.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/flight"
	"hdnh/internal/harness"
	"hdnh/internal/heat"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/resp"
	"hdnh/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		respAddr = flag.String("resp", ":6380", "RESP (binary wire protocol) listen address; the data face")
		pipeline = flag.Int("pipeline-depth", 128, "most RESP commands a connection executes before it writes their replies (coalescing window)")
		capacity = flag.Int64("capacity", 100_000, "record capacity the device is sized for")
		sample   = flag.Uint64("sample", obs.DefaultSampleEvery, "latency-sample one in N operations (1 samples all)")
		logMB    = flag.Int64("logmb", 8, "value-log capacity in MiB (fixed; the GC recycles within it)")
		shards   = flag.Int("shards", 1, "hash-router shard count (power of two; each shard gets its own table, value log and GC worker)")
		debug    = flag.Bool("debug", false, "attach a flight recorder and serve /debug/flight and /debug/pprof; log at debug level (per-request access log)")
		heatOn   = flag.Bool("heat", false, "sample hot keys into a per-shard top-K sketch served at /debug/heat")
		heatTopK = flag.Int("heat-topk", 0, "hot-key sketch entries per shard (0 takes the default)")
		heatEvry = flag.Int("heat-sample", 0, "sample one in N operations into the hot-key sketch (0 takes the default)")
		histPts  = flag.Int("history", 0, "history ring capacity in 1s points served at /debug/history (0 takes the default, ~10 min)")
		drain    = flag.Duration("drain", 0, "after a termination signal, keep serving with /readyz answering 503 for this long so load balancers stop routing here before the listeners close")
	)
	mode := nvm.ModeModel
	flag.Var(&mode, "mode", "device mode: model | emulate | strict")
	flag.Parse()

	if *respAddr == "" {
		usageErr("-resp must name a listen address: RESP is the only data face")
	}
	if *capacity <= 0 {
		usageErr("-capacity %d must be positive", *capacity)
	}
	if *sample == 0 {
		usageErr("-sample must be at least 1")
	}
	if *logMB <= 0 {
		usageErr("-logmb %d must be positive", *logMB)
	}
	if *shards < 1 || *shards&(*shards-1) != 0 {
		usageErr("-shards %d must be a power of two", *shards)
	}
	if *pipeline <= 0 {
		usageErr("-pipeline-depth %d must be positive", *pipeline)
	}
	if *heatTopK < 0 || *heatEvry < 0 {
		usageErr("-heat-topk and -heat-sample must be non-negative")
	}
	if *histPts < 0 {
		usageErr("-history %d must be non-negative", *histPts)
	}

	level := new(slog.LevelVar)
	if *debug {
		level.Set(slog.LevelDebug)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	opts := bigkv.DefaultOptions()
	opts.Table.Shards = *shards
	opts.Table.InitBottomSegments = core.SizeBottomSegments(*capacity, opts.Table.SegmentBuckets)
	opts.Table.Metrics = obs.New(obs.Config{SampleEvery: *sample})
	var fr *flight.Recorder
	if *debug {
		fr = flight.New(flight.Config{})
		opts.Table.Flight = fr
	}
	if *heatOn {
		opts.Table.Heat = heat.NewMonitor(heat.Config{TopK: *heatTopK, SampleEvery: *heatEvry})
	}
	opts.SegmentWords = 1 << 14
	opts.Segments = *logMB << 20 / 8 / opts.SegmentWords
	if opts.Segments < 2 {
		opts.Segments = 2
	}

	dev, err := nvm.New(harness.DeviceConfig(mode, harness.DeviceWords(*capacity, opts.SegmentWords*opts.Segments)))
	if err != nil {
		fatal("creating device: %v", err)
	}
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		fatal("creating store: %v", err)
	}

	respMetrics := obs.NewRESPMetrics()
	srv := serve.New(serve.Options{
		Store:         st,
		Log:           logger,
		Debug:         *debug,
		RESPMetrics:   respMetrics,
		HistoryPoints: *histPts,
		CollectEvery:  time.Second,
	})

	// A configured server, not the bare http.ListenAndServe default: without
	// timeouts one slow-loris client pins a connection goroutine forever, and
	// without Shutdown a SIGTERM kills the process mid-request with the
	// table's clean-shutdown flag never written.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 2)
	go func() {
		logger.Info("listening", "addr", *addr, "capacity", *capacity,
			"mode", mode, "log_mib", *logMB, "shards", *shards, "debug", *debug)
		errCh <- httpSrv.ListenAndServe()
	}()

	respSrv := resp.NewServer(resp.StoreBackend{St: st}, resp.Options{
		PipelineDepth: *pipeline,
		Info:          srv.Info,
		Metrics:       respMetrics,
		Flight:        fr,
		Log:           logger,
	})
	l, err := net.Listen("tcp", *respAddr)
	if err != nil {
		st.Close()
		fatal("resp listen: %v", err)
	}
	go func() {
		logger.Info("resp listening", "addr", *respAddr, "pipeline_depth", *pipeline)
		errCh <- respSrv.Serve(l)
	}()

	select {
	case err := <-errCh:
		st.Close()
		fatal("%v", err)
	case <-ctx.Done():
		logger.Info("signal received, draining connections")
		// Flip /readyz and /healthz to 503 before anything stops listening:
		// the load balancer drains this instance while in-flight (and even
		// new) requests still complete. The -drain window is how long we
		// keep serving in that state — net/http's Shutdown closes the
		// listener immediately, so without the window an external probe can
		// never observe the flip.
		srv.BeginShutdown()
		if *drain > 0 {
			logger.Info("draining", "window", *drain)
			time.Sleep(*drain)
		}
		// Teardown order matters: stop both listeners first (requests and
		// pipelines finish, their sessions close), then the collector, then
		// the store — Close asserts the epoch registry sees every session
		// returned.
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		respCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := respSrv.Shutdown(respCtx); err != nil {
			logger.Info("resp shutdown force-closed idle connections", "err", err)
		}
		cancel()
		srv.Close()
		if err := st.Close(); err != nil {
			logger.Error("closing store", "err", err)
		}
		logger.Info("clean shutdown")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhserve: "+format+"\n", args...)
	os.Exit(1)
}

// usageErr reports a bad flag value and exits with the usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
