package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"hdnh/internal/nvm"
)

// suite is the result file of a full run: the stable schema two runs are
// compared in.
type suite struct {
	Schema    int             `json:"schema"`
	Commit    string          `json:"git_commit"`
	Host      hostInfo        `json:"host"`
	Device    deviceInfo      `json:"device"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Runs      int             `json:"runs"`
	Scale     string          `json:"op_count_scale"`
	Workloads []suiteWorkload `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type deviceInfo struct {
	Mode         string `json:"mode"`
	ReadNsBlock  int64  `json:"read_ns_per_block"`
	WriteNsLine  int64  `json:"write_ns_per_flushed_line"`
	FenceNs      int64  `json:"fence_ns"`
	ReadBytesPS  int64  `json:"read_bytes_per_s"`
	WriteBytesPS int64  `json:"write_bytes_per_s"`
}

type suiteWorkload struct {
	Name      string               `json:"name"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	HungRuns  int                  `json:"hung_runs"`
	Problems  []string             `json:"problems,omitempty"`
	EndToEnd  map[string]suiteStat `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Info      map[string]float64   `json:"info"`
}

// suiteStat is one end-to-end metric over the runs of one workload.
type suiteStat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (max-min)/median over the runs
	Runs   []float64 `json:"runs"`
}

func newSuiteStat(unit string, runs []float64) suiteStat {
	st := suiteStat{Unit: unit, Median: median(runs), Runs: runs}
	if st.Median != 0 {
		st.Spread = (slices.Max(runs) - slices.Min(runs)) / st.Median
	}
	return st
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fullRun runs every workload runs times untraced and once traced, each in
// a child process, prints every metric, and writes the result file.
func fullRun(seed uint64, seconds float64, runs int, out, jsonOut string) int {
	cfg := nvm.EmulateConfig(nvm.BlockWords)
	su := suite{
		Schema: 1, Commit: gitCommit(), Seed: seed, Seconds: seconds, Runs: runs,
		Host: hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()},
		Device: deviceInfo{cfg.Mode.String(), cfg.ReadLatency.Nanoseconds(), cfg.WriteLatency.Nanoseconds(),
			cfg.FenceLatency.Nanoseconds(), cfg.ReadBandwidth, cfg.WriteBandwidth},
		Scale: fmt.Sprintf("timed phases last %g s; insert-grow inserts %d keys", seconds, specByName("insert-grow").keyCount(seconds)),
	}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s; device: %s; seed %d; commit %s\n",
		su.Host.NProc, su.Host.GOMAXPROCS, su.Host.Go, su.Device.Mode, seed, su.Commit)
	start, ok := time.Now(), true
	for _, sp := range specs {
		fmt.Printf("\n# %s: %s\n", sp.name, sp.why)
		sw := suiteWorkload{Name: sp.name, EndToEnd: map[string]suiteStat{}}
		values := map[string][]float64{}
		one := func(traced bool) *result {
			res, hung, err := supervise(sp, seed, seconds, traced, out, time.Hour)
			sw.HungRuns += hung
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				sw.Problems = append(sw.Problems, err.Error())
				return nil
			}
			res.print(os.Stdout)
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			sw.Problems = append(sw.Problems, res.Problems...)
			return res
		}
		for r := 0; r < runs; r++ {
			if res := one(false); res != nil {
				for _, d := range endToEnd {
					values[d.Name] = append(values[d.Name], res.Metrics[d.Name])
				}
				sw.Info = res.Info
			}
		}
		for _, d := range endToEnd {
			sw.EndToEnd[d.Name] = newSuiteStat(d.Unit, values[d.Name])
		}
		if res := one(true); res != nil {
			sw.PerLayer = res.Layers
		}
		fmt.Printf("-- %s: hung_runs %d, failed operations %d, problems %d\n", sp.name, sw.HungRuns, sw.Failed, len(sw.Problems))
		ok = ok && sw.Failed == 0 && len(sw.Problems) == 0
		su.Workloads = append(su.Workloads, sw)
	}
	if jsonOut == "" {
		jsonOut = filepath.Join(out, "results.json")
	}
	if err := writeJSON(jsonOut, su, true); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("results in %s, traces in %s, %.0f s\n", jsonOut, out, time.Since(start).Seconds())
	if !ok {
		return 1
	}
	return 0
}

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares a metric's runs on two sides against its bound. The
// medians decide, unless either side's runs spread wider than the bound:
// then the difference is unresolved, except when every new run reads
// better (or every one worse) than every old run.
func verdict(d metricDef, old, new suiteStat) (string, float64) {
	if old.Median == 0 || len(old.Runs) == 0 || len(new.Runs) == 0 {
		return unresolved, 0
	}
	// worse > 0 means new is worse than old by that share of old.
	worse := (new.Median - old.Median) / old.Median
	if d.Better == "higher" {
		worse = -worse
	}
	if max(old.Spread, new.Spread) > d.Bound {
		oldLo, oldHi := slices.Min(old.Runs), slices.Max(old.Runs)
		newLo, newHi := slices.Min(new.Runs), slices.Max(new.Runs)
		apart := newLo > oldHi || newHi < oldLo
		if !apart {
			return unresolved, worse
		}
	}
	switch {
	case worse > d.Bound:
		return regressed, worse
	case worse < -d.Bound:
		return improved, worse
	}
	return unchanged, worse
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	su := new(suite)
	if err := json.Unmarshal(data, su); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return su, nil
}

// compareFiles prints the verdict for every workload and end-to-end metric
// two result files share, and exits 1 when any regressed.
func compareFiles(oldPath, newPath string) int {
	var sides [2]*suite
	for i, path := range []string{oldPath, newPath} {
		su, err := readSuite(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		sides[i] = su
	}
	return compareSuites(sides[0], sides[1])
}

func compareSuites(old, nw *suite) int {
	fmt.Printf("old: commit %s seed %d, %d runs of %g s;  new: commit %s seed %d, %d runs of %g s\n",
		old.Commit, old.Seed, old.Runs, old.Seconds, nw.Commit, nw.Seed, nw.Runs, nw.Seconds)
	if old.Host != nw.Host || old.Device != nw.Device || old.Seconds != nw.Seconds {
		fmt.Println("warning: host, device or run length differ; the verdicts compare unlike runs")
	}
	fmt.Printf("%-14s %-18s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "spread", "verdict")
	counts := map[string]int{}
	for _, ow := range old.Workloads {
		i := slices.IndexFunc(nw.Workloads, func(w suiteWorkload) bool { return w.Name == ow.Name })
		if i < 0 {
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name], nw.Workloads[i].EndToEnd[d.Name]
			v, worse := verdict(d, o, n)
			counts[v]++
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				ow.Name, d.Name, o.Median, n.Median, 100*worse, 100*d.Bound, 100*max(o.Spread, n.Spread), v)
		}
	}
	fmt.Printf("%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
