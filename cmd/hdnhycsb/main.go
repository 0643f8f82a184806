// Command hdnhycsb runs a configurable YCSB-style workload against any
// registered scheme and reports throughput, NVM traffic and (optionally)
// the latency distribution — the free-form counterpart to hdnhbench's fixed
// paper experiments.
//
//	hdnhycsb -scheme HDNH -records 100000 -ops 500000 -threads 8 \
//	         -read 0.5 -update 0.5 -dist scrambled-zipfian -theta 0.99 -latency
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hdnh/internal/core"
	"hdnh/internal/harness"
	"hdnh/internal/nvm"
	"hdnh/internal/resp/client"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"
)

func main() {
	var (
		schemeName = flag.String("scheme", "HDNH", "scheme: "+fmt.Sprint(scheme.Names()))
		records    = flag.Int64("records", 100_000, "preloaded records")
		ops        = flag.Int64("ops", 200_000, "operations")
		threads    = flag.Int("threads", 1, "worker goroutines")
		read       = flag.Float64("read", 1, "proportion of positive reads")
		readNeg    = flag.Float64("readneg", 0, "proportion of negative reads")
		update     = flag.Float64("update", 0, "proportion of updates")
		insert     = flag.Float64("insert", 0, "proportion of inserts")
		del        = flag.Float64("delete", 0, "proportion of deletes")
		batch      = flag.Int("batch", 0, "group reads and deletes into scheme batch ops, this many keys per call (0 = per-key ops; implies -latency off)")
		theta      = flag.Float64("theta", 0.99, "zipfian skew")
		seed       = flag.Uint64("seed", 42, "workload seed")
		latency    = flag.Bool("latency", false, "record and print the latency distribution")
		wear       = flag.Bool("wear", false, "track and print the NVM write (wear) distribution")
		shards     = flag.Int("shards", 1, "HDNH hash-router shard count (power of two; HDNH scheme only)")
		respAddr   = flag.String("resp", "", "drive a running hdnhserve -resp listener at this address instead of an in-process store (e.g. 127.0.0.1:6380)")
	)
	dist := ycsb.Uniform
	flag.Var(&dist, "dist", "distribution: uniform | zipfian | scrambled-zipfian | latest")
	mode := nvm.ModeEmulate
	flag.Var(&mode, "mode", "device mode: model | emulate | strict")
	flag.Parse()

	if *records <= 0 {
		usageErr("-records %d must be positive", *records)
	}
	if *ops < 0 {
		usageErr("-ops %d must not be negative", *ops)
	}
	if *threads <= 0 {
		usageErr("-threads %d must be positive", *threads)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"read", *read}, {"readneg", *readNeg}, {"update", *update},
		{"insert", *insert}, {"delete", *del},
	} {
		if p.v < 0 || p.v > 1 {
			usageErr("-%s %g outside [0,1]", p.name, p.v)
		}
	}
	if sum := *read + *readNeg + *update + *insert + *del; sum <= 0 {
		usageErr("operation mix sums to %g; pick at least one positive proportion", sum)
	}
	if *theta <= 0 || *theta >= 1 {
		usageErr("-theta %g outside (0,1)", *theta)
	}
	if *batch < 0 {
		usageErr("-batch %d must not be negative", *batch)
	}
	if *batch > 1 && *latency {
		usageErr("-latency records per-op timings; it cannot be combined with -batch")
	}
	if *shards < 1 || *shards&(*shards-1) != 0 {
		usageErr("-shards %d must be a power of two", *shards)
	}
	if *shards > 1 && *schemeName != "HDNH" {
		usageErr("-shards applies only to the HDNH scheme, not %q", *schemeName)
	}
	if *respAddr != "" && (*wear || *shards > 1) {
		usageErr("-resp drives a remote server; -wear and -shards configure an in-process store")
	}

	var dev *nvm.Device
	if *wear || *shards > 1 {
		// Build the device here so the wear counters are reachable after
		// the run (and so the router store below has one).
		cfg := harness.DeviceConfig(mode, harness.DeviceWords(*records+*ops, 0))
		cfg.TrackWear = *wear
		var err error
		dev, err = nvm.New(cfg)
		if err != nil {
			fatal("%v", err)
		}
	}

	runOpts := harness.Options{
		Scheme:        *schemeName,
		Records:       *records,
		Ops:           *ops,
		Threads:       *threads,
		Mix:           ycsb.Mix{Read: *read, ReadNegative: *readNeg, Update: *update, Insert: *insert, Delete: *del},
		Dist:          dist,
		Theta:         *theta,
		Seed:          *seed,
		DeviceMode:    mode,
		RecordLatency: *latency,
		BatchSize:     *batch,
	}
	var st scheme.Store
	switch {
	case *respAddr != "":
		// Over-the-wire mode: every worker gets its own connection, batch
		// ops pipeline whole bursts, and writes are upserts (the wire
		// protocol has no insert/update distinction). NVM counters read
		// zero here — scrape the server's /metrics for the device story.
		st = client.NewSchemeStore(client.New(*respAddr, client.Options{}))
		defer st.Close()
		runOpts.Store = st
		runOpts.Scheme = st.Name()
	case *shards > 1:
		// A sharded HDNH store: the registry factory cannot carry a shard
		// count, so build the router through the harness's HDNH opener.
		r, err := harness.OpenHDNH(dev, *records+*ops, func(o *core.Options) { o.Shards = *shards })
		if err != nil {
			fatal("%v", err)
		}
		st = core.NewRouterStore(r)
		defer st.Close()
		runOpts.Store = st
		runOpts.Scheme = st.Name() // report HDNH-S<n>, not the flag default
	case dev != nil:
		var err error
		st, err = scheme.Open(*schemeName, dev, *records+*ops)
		if err != nil {
			fatal("%v", err)
		}
		defer st.Close()
		runOpts.Store = st
	}
	res, err := harness.Run(runOpts)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("scheme      %s\n", res.Scheme)
	fmt.Printf("preload     %d records in %v\n", res.Records, res.PreloadElapsed.Round(time.Millisecond))
	fmt.Printf("ops         %d across %d threads in %v\n", res.Ops, res.Threads, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput  %.4f Mops/s\n", res.ThroughputMops)
	fmt.Printf("misses      %d (expected ErrNotFound/ErrExists)\n", res.Misses)
	fmt.Printf("failures    %d\n", res.Failures)
	fmt.Printf("nvm         %s\n", res.NVM)
	if res.Latency != nil {
		fmt.Printf("latency     %s\n", res.Latency)
		fmt.Printf("\n%s", res.Latency.Table(30))
	}
	if *wear {
		fmt.Printf("%s\n", dev.WearStats())
		for _, hb := range dev.HottestBlocks(5) {
			fmt.Printf("  hot block %8d: %d line writes\n", hb.Block, hb.Writes)
		}
	}
	if res.Failures > 0 {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhycsb: "+format+"\n", args...)
	os.Exit(1)
}

// usageErr reports a bad flag value and exits with the usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhycsb: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
