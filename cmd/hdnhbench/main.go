// Command hdnhbench regenerates the HDNH paper's evaluation figures and
// tables on the emulated NVM device.
//
// Usage:
//
//	hdnhbench -fig 13                 # one figure
//	hdnhbench -fig 14 -records 200000 -ops 400000 -mode emulate
//	hdnhbench -table 1
//	hdnhbench -all                    # everything, paper order
//
// Output is the text-table format recorded in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"hdnh/internal/core"
	"hdnh/internal/flight"
	"hdnh/internal/harness"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: 11a, 11b, 12, 13, 14, 15, ablation, loadfactor, hybrid, resize, vloggc, flightdemo, batchscale, shardscale, pipescale, putscale")
		table     = flag.String("table", "", "table to regenerate: 1")
		all       = flag.Bool("all", false, "run every figure and table")
		records   = flag.Int64("records", 100_000, "preloaded record count")
		ops       = flag.Int64("ops", 200_000, "operations per measurement")
		threads   = flag.Int("threads", 16, "maximum threads for concurrency sweeps")
		batch     = flag.Int("batch", 0, "drive reads and deletes through the scheme batch ops, this many keys per call (0 = per-key ops)")
		seed      = flag.Uint64("seed", 42, "workload seed")
		csvDir    = flag.String("csv", "", "also write each experiment as <dir>/<id>.csv")
		jsonOut   = flag.String("json", "", "also write every selected experiment to this file as one JSON document")
		metrics   = flag.Bool("metrics", false, "collect HDNH observability counters and print the Prometheus exposition after the runs")
		flightOut = flag.String("flight-out", "", "record a flight trace across the runs and write it to this file (.json => Chrome/Perfetto trace events, else the text rendering)")
	)
	mode := nvm.ModeEmulate
	flag.Var(&mode, "mode", "device mode: model | emulate | strict")
	flag.Parse()

	if *records <= 0 {
		usageErr("-records %d must be positive", *records)
	}
	if *ops <= 0 {
		usageErr("-ops %d must be positive", *ops)
	}
	if *threads <= 0 {
		usageErr("-threads %d must be positive", *threads)
	}

	if *batch < 0 {
		usageErr("-batch %d must not be negative", *batch)
	}

	sc := harness.Scale{
		Records:   *records,
		Ops:       *ops,
		Threads:   *threads,
		BatchSize: *batch,
		Mode:      mode,
		Seed:      *seed,
	}

	var reg *obs.Metrics
	if *metrics {
		// Every HDNH table the harness builds — through the scheme registry
		// or its own HDNH and bigkv openers — records into one shared
		// registry; the exposition below aggregates all selected experiments.
		reg = obs.New(obs.Config{})
		core.SetDefaultMetrics(reg)
	}

	var fr *flight.Recorder
	if *flightOut != "" {
		// Like the metrics registry: one recorder shared by every table the
		// harness builds, dumped once after the selected runs. Rings are sized
		// well past the default: the dump is taken once at the end, so rare
		// structural spans (resize, recovery) must survive the high-frequency
		// hot-table traffic that lands in the same rings.
		fr = flight.New(flight.Config{RingEvents: 1 << 17})
		core.SetDefaultFlight(fr)
	}

	type job struct {
		name string
		run  func() error
	}
	var collected []*harness.Experiment
	emit := func(exp *harness.Experiment) error {
		if *csvDir != "" {
			path := fmt.Sprintf("%s/%s.csv", *csvDir, exp.ID)
			if err := os.WriteFile(path, []byte(exp.CSV()), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
		if *jsonOut != "" {
			collected = append(collected, exp)
		}
		return exp.Render(os.Stdout)
	}
	single := func(f func(harness.Scale) (*harness.Experiment, error)) func() error {
		return func() error {
			exp, err := f(sc)
			if err != nil {
				return err
			}
			return emit(exp)
		}
	}
	jobs := map[string]job{
		"fig11a": {"Figure 11(a)", single(harness.Fig11a)},
		"fig11b": {"Figure 11(b)", single(harness.Fig11b)},
		"fig12":  {"Figure 12", single(harness.Fig12)},
		"fig13":  {"Figure 13", single(harness.Fig13)},
		"fig14": {"Figure 14", func() error {
			exps, err := harness.Fig14(sc)
			if err != nil {
				return err
			}
			for _, e := range exps {
				if err := emit(e); err != nil {
					return err
				}
			}
			return nil
		}},
		"fig15":      {"Figure 15", single(harness.Fig15)},
		"table1":     {"Table 1", single(harness.Table1)},
		"ablation":   {"Ablation (extension)", single(harness.Ablation)},
		"loadfactor": {"Load factor (extension)", single(harness.LoadFactorExperiment)},
		"hybrid":     {"Hybrid related-work comparison (extension)", single(harness.HybridExperiment)},
		"resize":     {"Resize latency: blocking vs incremental (extension)", single(harness.FigResize)},
		"vloggc":     {"Value-log churn: GC off vs online GC (extension)", single(harness.FigVlogGC)},
		"flightdemo": {"Flight-recorder demo: mixed churn with resize, GC, and recovery (extension)", single(harness.FigFlightDemo)},
		"batchscale": {"Batched reads: throughput vs MultiGet batch size (extension)", single(harness.FigBatchScale)},
		"shardscale": {"Shard router: mixed throughput vs shard count (extension)", single(harness.FigShardScale)},
		"pipescale":  {"Wire protocol: RESP GET throughput by pipeline depth (extension)", single(harness.FigPipeScale)},
		"putscale":   {"Group commit: upsert throughput vs MultiPut batch size (extension)", single(harness.FigPutScale)},
	}
	order := []string{"fig11a", "fig11b", "fig12", "fig13", "fig14", "fig15", "table1", "ablation", "loadfactor", "hybrid", "resize", "vloggc", "flightdemo", "batchscale", "shardscale", "pipescale", "putscale"}

	var selected []string
	switch {
	case *all:
		selected = order
	case *fig != "":
		name := strings.ToLower(*fig)
		switch name {
		case "ablation", "loadfactor", "hybrid", "resize", "vloggc", "flightdemo", "batchscale", "shardscale", "pipescale", "putscale":
		default:
			name = "fig" + name
		}
		selected = []string{name}
	case *table != "":
		selected = []string{"table" + *table}
	default:
		fmt.Fprintln(os.Stderr, "hdnhbench: pass -fig, -table, or -all (see -h)")
		os.Exit(2)
	}

	for _, name := range selected {
		j, ok := jobs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "hdnhbench: unknown experiment %q (have: %s)\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
		fmt.Printf("# %s — records=%d ops=%d threads<=%d mode=%s GOMAXPROCS=%d\n",
			j.name, sc.Records, sc.Ops, sc.Threads, sc.Mode, gomaxprocs())
		if err := j.run(); err != nil {
			fmt.Fprintf(os.Stderr, "hdnhbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if reg != nil {
		fmt.Printf("\n# HDNH observability counters, aggregated across the selected experiments\n")
		if err := reg.Snapshot().WriteProm(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hdnhbench: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}

	if fr != nil {
		if err := writeFlight(*flightOut, fr); err != nil {
			fmt.Fprintf(os.Stderr, "hdnhbench: writing flight trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n# flight trace written to %s\n", *flightOut)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, sc, collected); err != nil {
			fmt.Fprintf(os.Stderr, "hdnhbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("\n# JSON results written to %s\n", *jsonOut)
	}
}

// writeJSON dumps the selected experiments as one machine-readable document
// (the before/after comparisons in BENCH_*.json are built from these).
func writeJSON(path string, sc harness.Scale, exps []*harness.Experiment) error {
	doc := struct {
		Records    int64                 `json:"records"`
		Ops        int64                 `json:"ops"`
		Threads    int                   `json:"threads"`
		BatchSize  int                   `json:"batch_size,omitempty"`
		Mode       string                `json:"mode"`
		Seed       uint64                `json:"seed"`
		GOMAXPROCS int                   `json:"gomaxprocs"`
		Results    []*harness.Experiment `json:"results"`
	}{sc.Records, sc.Ops, sc.Threads, sc.BatchSize, sc.Mode.String(), sc.Seed, gomaxprocs(), exps}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// writeFlight dumps the recorder: Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing) for .json paths, the text rendering
// otherwise.
func writeFlight(path string, fr *flight.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	d := fr.Snapshot()
	if strings.HasSuffix(path, ".json") {
		err = flight.WriteChromeTrace(f, d)
	} else {
		err = flight.WriteText(f, d)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
