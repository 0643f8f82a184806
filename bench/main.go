// Command bench is the repository's benchmark: four workloads on the
// emulated NVM device, twelve end-to-end metrics, and a traced run that
// attributes them to the layers (nvm, core, vlog, bigkv, batchrun, resp).
// README.md in this directory says what every name means.
//
//	bench                                   every workload, untraced then traced
//	bench -runs 3 -json out.json            the same three times over, medians and spreads to a file
//	bench -compare old.json new.json        verdict per workload and metric
//	bench --workload W --seed N --seconds S --trace 0|1
//	                                        one run, one JSON object on the last line
//
// Each run happens in a child process with a deadline, so a hang is
// reported and retried and one workload's heap stays out of the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupsPerRun: an untraced run sets its store up this many times and
// reports the median as setup_s.
const setupsPerRun = 3

// tracedShare: the traced run's phases last this share of --seconds, once
// without and once with tracing.
const tracedShare = 0.25

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run only this workload and end with one JSON line (the builder's contract)")
		seed     = flag.Uint64("seed", 1, "seed every input is made from")
		seconds  = flag.Float64("seconds", 25, "seconds the timed phases of one run take")
		trace    = flag.Int("trace", 0, "with -workload: 1 for the traced run and per-layer metrics")
		runs     = flag.Int("runs", 1, "untraced runs per workload in a full run")
		jsonOut  = flag.String("json", "", "write the full run's results here (default <out>/results.json)")
		out      = flag.String("out", "", "directory for trace files and hang dumps (default a temporary directory)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		child    = flag.Bool("child", false, "internal: run in this process")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if *out == "" {
		dir, err := os.MkdirTemp("", "hdnh-bench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		*out = dir
	}
	if *workload == "" {
		return fullRun(*seed, *seconds, *runs, *out, *jsonOut)
	}
	sp := specByName(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	if *child {
		return childMain(sp, *seed, *seconds, *trace == 1, *out)
	}
	// One run under the contract: a child does it, this process watches the
	// clock. 170 s keeps every retry inside the contract's 180.
	res, hung, err := supervise(sp, *seed, *seconds, *trace == 1, *out, 170*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res.print(os.Stdout)
	fmt.Printf("hung_runs %d\n", hung)
	line, err := res.contractLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// childMain does one run in this process and hands the result to the
// parent as one JSON line.
func childMain(sp *spec, seed uint64, seconds float64, traced bool, out string) int {
	if sp.procs > 0 {
		runtime.GOMAXPROCS(sp.procs)
	}
	res, err := oneRun(sp, seed, seconds, traced, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s\n", data)
	return 0
}

func oneRun(sp *spec, seed uint64, seconds float64, traced bool, out string) (*result, error) {
	if !traced {
		res, err := sp.run(seed, seconds, setupsPerRun, nil)
		if err != nil {
			return nil, err
		}
		return res, durabilityGate(seed, res)
	}
	// Tracing's cost is the throughput of the same short run without and
	// with it, in one process.
	plain, err := sp.run(seed, seconds*tracedShare, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracing(sp)
	res, err := sp.run(seed, seconds*tracedShare, 1, tr)
	if err != nil {
		return nil, err
	}
	res.Layers["trace.ops_per_s_ratio"] = ratio(res.Metrics["ops_per_s"], plain.Metrics["ops_per_s"])
	res.Info["untraced_ops_per_s"] = plain.Metrics["ops_per_s"]
	res.Info["traced_ops_per_s"] = res.Metrics["ops_per_s"]
	res.Attempted += plain.Attempted
	res.Failed += plain.Failed
	res.Problems = append(res.Problems, plain.Problems...)
	if err := runReplays(sp, res); err != nil {
		return nil, err
	}
	if err := durabilityGate(seed, res); err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", sp.name, seed))
	if err := writeJSON(path, res.trace, false); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	return res, nil
}
