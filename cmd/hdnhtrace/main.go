// Command hdnhtrace records workload traces and replays them against any
// scheme — capture once, compare everywhere.
//
//	hdnhtrace record -out a.trace -records 100000 -ops 500000 \
//	                 -read 0.5 -update 0.5 -dist scrambled-zipfian -theta 0.99
//	hdnhtrace replay -in a.trace -scheme CCEH -records 100000 -threads 4
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hdnh/internal/harness"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/trace"
	"hdnh/internal/ycsb"
)

func main() {
	if len(os.Args) < 2 {
		fatal("usage: hdnhtrace record|replay [flags]")
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		fatal("unknown subcommand %q (want record or replay)", os.Args[1])
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		out     = fs.String("out", "workload.trace", "output trace file")
		records = fs.Int64("records", 100_000, "record keyspace size")
		ops     = fs.Int64("ops", 200_000, "operations to record")
		read    = fs.Float64("read", 0.5, "read proportion")
		readNeg = fs.Float64("readneg", 0, "negative-read proportion")
		update  = fs.Float64("update", 0.5, "update proportion")
		insert  = fs.Float64("insert", 0, "insert proportion")
		del     = fs.Float64("delete", 0, "delete proportion")
		rmw     = fs.Float64("rmw", 0, "read-modify-write proportion")
		theta   = fs.Float64("theta", 0.99, "zipfian skew")
		seed    = fs.Uint64("seed", 42, "workload seed")
	)
	dist := ycsb.ScrambledZipfian
	fs.Var(&dist, "dist", "distribution: uniform | zipfian | scrambled-zipfian | latest")
	_ = fs.Parse(args)

	gen, err := ycsb.New(ycsb.Config{
		RecordCount:  *records,
		Mix:          ycsb.Mix{Read: *read, ReadNegative: *readNeg, Update: *update, Insert: *insert, Delete: *del, ReadModifyWrite: *rmw},
		Distribution: dist,
		Theta:        *theta,
		Seed:         *seed,
	})
	if err != nil {
		fatal("%v", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	n, err := trace.Capture(f, gen, 0, *ops)
	if err != nil {
		fatal("capturing: %v", err)
	}
	if err := f.Close(); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("recorded %d ops (records=%d dist=%s theta=%v seed=%d) to %s\n",
		n, *records, dist, *theta, *seed, *out)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		in         = fs.String("in", "workload.trace", "input trace file")
		schemeName = fs.String("scheme", "HDNH", "scheme: "+fmt.Sprint(scheme.Names()))
		records    = fs.Int64("records", 100_000, "records to preload before replay")
		threads    = fs.Int("threads", 1, "replay goroutines")
		latency    = fs.Bool("latency", false, "report the latency distribution")
	)
	mode := nvm.ModeEmulate
	fs.Var(&mode, "mode", "device mode: model | emulate | strict")
	_ = fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		fatal("%v", err)
	}
	ops, err := trace.ReadAll(f)
	f.Close()
	if err != nil {
		fatal("reading trace: %v", err)
	}

	dev, err := nvm.New(harness.DeviceConfig(mode, harness.DeviceWords(*records+int64(len(ops)), 0)))
	if err != nil {
		fatal("%v", err)
	}
	st, err := scheme.Open(*schemeName, dev, *records+int64(len(ops)))
	if err != nil {
		fatal("%v", err)
	}
	defer st.Close()
	if err := harness.Preload(st, *records, 4); err != nil {
		fatal("preload: %v", err)
	}

	res, err := harness.ReplayTrace(st, ops, *threads, *latency)
	if err != nil {
		fatal("replay: %v", err)
	}
	fmt.Printf("scheme      %s\n", res.Scheme)
	fmt.Printf("replayed    %d ops across %d threads in %v\n", res.Ops, res.Threads, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput  %.4f Mops/s\n", res.ThroughputMops)
	fmt.Printf("misses      %d, failures %d\n", res.Misses, res.Failures)
	fmt.Printf("nvm         %s\n", res.NVM)
	if res.Latency != nil {
		fmt.Printf("latency     %s\n", res.Latency)
	}
	if res.Failures > 0 {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhtrace: "+format+"\n", args...)
	os.Exit(1)
}
