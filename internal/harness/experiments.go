package harness

import (
	"fmt"
	"time"

	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"
)

// Scale sets the dataset and operation volumes for every experiment. The
// paper uses 20M preloaded records and 180M operations; DefaultScale keeps
// the same 1:9 flavour at sandbox-friendly sizes. Scale up with the
// hdnhbench flags to approach the paper's volumes.
type Scale struct {
	// Records is the preloaded record count.
	Records int64
	// Ops is the operation count per measurement.
	Ops int64
	// Threads is the maximum thread count for the concurrency sweeps.
	Threads int
	// Mode selects the device emulation level for throughput runs.
	Mode nvm.Mode
	// BatchSize, when > 1, drives reads and deletes through the scheme
	// batch operations (see Options.BatchSize) in the experiments that run
	// plain workloads; the batchscale experiment sweeps its own sizes.
	BatchSize int
	// Seed makes all workloads reproducible.
	Seed uint64
}

// DefaultScale is used by tests and the quick benchmark path.
func DefaultScale() Scale {
	return Scale{Records: 50_000, Ops: 100_000, Threads: 16, Mode: nvm.ModeModel, Seed: 42}
}

// Cell is one measured value with its label, ready for table rendering.
type Cell struct {
	Label string
	Value float64
}

// Experiment is a regenerated figure or table: named rows of named values
// plus free-form notes (paper-expected shapes, caveats).
type Experiment struct {
	ID      string
	Title   string
	XLabel  string
	Columns []string
	Rows    []ExperimentRow
	Notes   []string
	// Extra carries per-run artifacts such as latency CDF dumps.
	Extra map[string]string
}

// ExperimentRow is one x-position of an experiment.
type ExperimentRow struct {
	X     string
	Cells []Cell
}

func (e *Experiment) addRow(x string, cells ...Cell) {
	e.Rows = append(e.Rows, ExperimentRow{X: x, Cells: cells})
}

// mops formats a throughput cell.
func mops(label string, v float64) Cell { return Cell{Label: label, Value: v} }

// Fig11a reproduces Figure 11(a): HDNH single-thread insert and search
// throughput across segment sizes from 256B to 256KB. Expected shape:
// insert rises to a 16KB peak (fewer rehashes) then falls (large-segment
// resize stalls); search flattens past 16KB.
func Fig11a(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "fig11a",
		Title:   "HDNH throughput vs segment size (single thread)",
		XLabel:  "segment size",
		Columns: []string{"insert Mops/s", "search Mops/s"},
		Notes: []string{
			"paper: insert peaks at 16KB segments; search flat beyond 16KB",
		},
	}
	for _, segBytes := range []int64{256, 1024, 4096, 16384, 65536, 262144} {
		segBuckets := int(segBytes / 256)
		// Insert measurement: start the table deliberately small so the
		// load exercises resizing — the paper's stated mechanism is that
		// larger segments reduce rehash frequency.
		st, _, err := openHDNHWith(sc, sc.Records, func(o *core.Options) {
			o.SegmentBuckets = segBuckets
			o.InitBottomSegments = 1
		})
		if err != nil {
			return nil, err
		}
		insStart := time.Now()
		if err := Preload(st, sc.Records, 1); err != nil {
			st.Close()
			return nil, fmt.Errorf("fig11a seg %d: %w", segBytes, err)
		}
		insElapsed := time.Since(insStart)
		insertMops := float64(sc.Records) / insElapsed.Seconds() / 1e6
		st.Close()

		// Search measurement: a separately pre-sized table so every segment
		// size serves the same record count at the same load factor
		// (otherwise capacity rounding would confound the comparison).
		st2, _, err := openHDNHWith(sc, sc.Records, func(o *core.Options) {
			o.SegmentBuckets = segBuckets
			o.InitBottomSegments = core.SizeBottomSegments(sc.Records, segBuckets)
		})
		if err != nil {
			return nil, err
		}
		if err := Preload(st2, sc.Records, 1); err != nil {
			st2.Close()
			return nil, fmt.Errorf("fig11a search seg %d: %w", segBytes, err)
		}
		sres, err := runOnStore(st2, sc, sc.Records, sc.Ops, 1, ycsb.ReadOnly, ycsb.Uniform, 0, false)
		st2.Close()
		if err != nil {
			return nil, err
		}
		exp.addRow(byteSize(segBytes),
			mops("insert Mops/s", insertMops),
			mops("search Mops/s", sres.ThroughputMops))
	}
	return exp, nil
}

// runOnStore runs an op phase on an already-preloaded store.
func runOnStore(st scheme.Store, sc Scale, records, ops int64, threads int, mix ycsb.Mix, dist ycsb.Distribution, theta float64, latency bool) (*Result, error) {
	return Run(Options{
		Store:         st,
		Records:       records,
		Ops:           ops,
		Threads:       threads,
		Mix:           mix,
		Dist:          dist,
		Theta:         theta,
		Seed:          sc.Seed,
		RecordLatency: latency,
		skipPreload:   true,
	})
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Fig11b reproduces Figure 11(b): positive and negative search throughput
// versus hot-table slots per bucket. Expected shape: positive search rises
// with slot count (more hits stay in DRAM), negative search falls (bigger
// miss cost); 4 slots balances the two.
func Fig11b(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "fig11b",
		Title:   "HDNH search throughput vs hot-table slots per bucket (single thread)",
		XLabel:  "hot slots/bucket",
		Columns: []string{"positive Mops/s", "negative Mops/s"},
		Notes: []string{
			"paper: positive search improves with slots, negative degrades; 4 is balanced",
		},
	}
	for _, slots := range []int{1, 2, 4, 8} {
		slots := slots
		st, _, err := openHDNHWith(sc, sc.Records, func(o *core.Options) {
			o.HotSlotsPerBucket = slots
		})
		if err != nil {
			return nil, err
		}
		if err := Preload(st, sc.Records, 1); err != nil {
			st.Close()
			return nil, err
		}
		pos, err := runOnStore(st, sc, sc.Records, sc.Ops, 1, ycsb.ReadOnly, ycsb.ScrambledZipfian, 0.99, false)
		if err != nil {
			st.Close()
			return nil, err
		}
		neg, err := runOnStore(st, sc, sc.Records, sc.Ops, 1, ycsb.NegativeRead, ycsb.Uniform, 0, false)
		st.Close()
		if err != nil {
			return nil, err
		}
		exp.addRow(fmt.Sprintf("%d", slots),
			mops("positive Mops/s", pos.ThroughputMops),
			mops("negative Mops/s", neg.ThroughputMops))
	}
	return exp, nil
}

// Fig12 reproduces Figure 12: single-thread search throughput versus
// zipfian skew s for LEVEL, CCEH, HDNH(LRU) and HDNH(RAFL). Expected shape:
// LEVEL and CCEH roughly flat; both HDNH variants rise with s; RAFL beats
// LRU for s >= 0.9 (paper: 1.23x at 0.99, 1.4x at 1.22).
func Fig12(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "fig12",
		Title:   "Search throughput vs access skewness (single thread)",
		XLabel:  "zipfian s",
		Columns: []string{"LEVEL", "CCEH", "HDNH(LRU)", "HDNH(RAFL)"},
		Notes: []string{
			"paper: hot-aware HDNH rises with skew; RAFL > LRU by 1.23x at s=0.99, 1.4x at s=1.22",
		},
	}
	schemes := []struct{ col, name string }{
		{"LEVEL", "LEVEL"},
		{"CCEH", "CCEH"},
		{"HDNH(LRU)", "HDNH-LRU"},
		{"HDNH(RAFL)", "HDNH"},
	}
	for _, s := range []float64{0.5, 0.7, 0.9, 0.99, 1.1, 1.22} {
		cells := make([]Cell, 0, len(schemes))
		for _, sch := range schemes {
			res, err := Run(Options{
				Scheme:     sch.name,
				Records:    sc.Records,
				Ops:        sc.Ops,
				Threads:    1,
				Mix:        ycsb.ReadOnly,
				Dist:       ycsb.ScrambledZipfian,
				Theta:      s,
				Seed:       sc.Seed,
				DeviceMode: sc.Mode,
				BatchSize:  sc.BatchSize,
			})
			if err != nil {
				return nil, fmt.Errorf("fig12 %s s=%v: %w", sch.name, s, err)
			}
			cells = append(cells, mops(sch.col, res.ThroughputMops))
		}
		exp.addRow(fmt.Sprintf("%.2f", s), cells...)
	}
	return exp, nil
}

// Fig13 reproduces Figure 13: single-thread insert, positive search,
// negative search and delete throughput for PATH, LEVEL, CCEH and HDNH.
// Expected ratios (HDNH over CCEH / LEVEL): insert 1.9x/3.7x, positive
// search 1.57x/4.33x, negative search 2.2x/5.6x, delete 1.7x/2.9x.
func Fig13(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "fig13",
		Title:   "Single-thread throughput by operation",
		XLabel:  "operation",
		Columns: []string{"PATH", "LEVEL", "CCEH", "HDNH"},
		Notes: []string{
			"paper: HDNH/CCEH ≈ 1.9x insert, 1.57x pos search, 2.2x neg search, 1.7x delete",
			"paper: HDNH/LEVEL ≈ 3.7x insert, 4.33x pos search, 5.6x neg search, 2.9x delete",
		},
	}
	names := []string{"PATH", "LEVEL", "CCEH", "HDNH"}
	type phase struct {
		label string
		mix   ycsb.Mix
	}
	phases := []phase{
		{"insert", ycsb.InsertOnly},
		{"search+", ycsb.ReadOnly},
		{"search-", ycsb.NegativeRead},
		{"delete", ycsb.DeleteOnly},
	}
	results := map[string]map[string]float64{}
	for _, name := range names {
		results[name] = map[string]float64{}
		for _, ph := range phases {
			ops := sc.Ops
			dist := ycsb.Uniform
			if ph.label == "delete" && ops > sc.Records {
				ops = sc.Records
			}
			res, err := Run(Options{
				Scheme:     name,
				Records:    sc.Records,
				Ops:        ops,
				Threads:    1,
				Mix:        ph.mix,
				Dist:       dist,
				Seed:       sc.Seed,
				DeviceMode: sc.Mode,
				BatchSize:  sc.BatchSize,
			})
			if err != nil {
				return nil, fmt.Errorf("fig13 %s %s: %w", name, ph.label, err)
			}
			results[name][ph.label] = res.ThroughputMops
		}
	}
	for _, ph := range phases {
		cells := make([]Cell, 0, len(names))
		for _, name := range names {
			cells = append(cells, mops(name, results[name][ph.label]))
		}
		exp.addRow(ph.label, cells...)
	}
	return exp, nil
}

// Fig14 reproduces Figure 14: throughput under 1..Threads threads for the
// 100% insert (a), 100% search (b) and 50/50 insert+search (c) workloads.
// Expected shape: HDNH highest everywhere and the least lock-limited;
// CCEH's segment locks and LEVEL/PATH's coarse locks cap their scaling.
func Fig14(sc Scale) ([]*Experiment, error) {
	names := []string{"PATH", "LEVEL", "CCEH", "HDNH"}
	workloads := []struct {
		id, title string
		mix       ycsb.Mix
	}{
		{"fig14a", "Concurrent throughput: 100% insert", ycsb.InsertOnly},
		{"fig14b", "Concurrent throughput: 100% search", ycsb.ReadOnly},
		{"fig14c", "Concurrent throughput: 50% insert + 50% search", ycsb.InsertHalfRead},
	}
	threadPoints := []int{1, 2, 4, 8, 16}
	var exps []*Experiment
	for _, wl := range workloads {
		exp := &Experiment{
			ID:      wl.id,
			Title:   wl.title,
			XLabel:  "threads",
			Columns: names,
			Notes: []string{
				"paper: HDNH leads (up to 6.9x insert, 4.4x search, 4.3x mixed at 16 threads)",
				"note: this host exposes GOMAXPROCS=" + fmt.Sprint(maxProcs()) + "; scaling curves compress but scheme ordering persists",
			},
		}
		for _, threads := range threadPoints {
			if threads > sc.Threads {
				break
			}
			cells := make([]Cell, 0, len(names))
			for _, name := range names {
				res, err := Run(Options{
					Scheme:     name,
					Records:    sc.Records,
					Ops:        sc.Ops,
					Threads:    threads,
					Mix:        wl.mix,
					Dist:       ycsb.Uniform,
					Seed:       sc.Seed,
					DeviceMode: sc.Mode,
					BatchSize:  sc.BatchSize,
				})
				if err != nil {
					return nil, fmt.Errorf("%s %s t=%d: %w", wl.id, name, threads, err)
				}
				cells = append(cells, mops(name, res.ThroughputMops))
			}
			exp.addRow(fmt.Sprintf("%d", threads), cells...)
		}
		exps = append(exps, exp)
	}
	return exps, nil
}

// Fig15 reproduces Figure 15: the tail-latency CDF under YCSB-A (50% read,
// 50% update, zipfian 0.99) with 16 threads for CCEH, LEVEL and HDNH.
// Expected shape: HDNH's CDF is leftmost with the shortest tail (paper: max
// latency CCEH 2.96x, LEVEL 4.86x of HDNH's).
func Fig15(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "fig15",
		Title:   "Tail latency CDF under YCSB-A, 16 threads",
		XLabel:  "scheme",
		Columns: []string{"p50 µs", "p99 µs", "p99.9 µs", "max µs"},
		Notes: []string{
			"paper: max latency ratios vs HDNH — CCEH 2.96x, LEVEL 4.86x",
		},
		Extra: map[string]string{},
	}
	threads := sc.Threads
	if threads > 16 {
		threads = 16
	}
	for _, name := range []string{"CCEH", "LEVEL", "HDNH"} {
		res, err := Run(Options{
			Scheme:        name,
			Records:       sc.Records,
			Ops:           sc.Ops,
			Threads:       threads,
			Mix:           ycsb.WorkloadA,
			Dist:          ycsb.ScrambledZipfian,
			Theta:         0.99,
			Seed:          sc.Seed,
			DeviceMode:    sc.Mode,
			RecordLatency: true,
		})
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", name, err)
		}
		l := res.Latency
		exp.addRow(name,
			Cell{"p50 µs", float64(l.Percentile(50)) / 1e3},
			Cell{"p99 µs", float64(l.Percentile(99)) / 1e3},
			Cell{"p99.9 µs", float64(l.Percentile(99.9)) / 1e3},
			Cell{"max µs", float64(l.Max()) / 1e3},
		)
		exp.Extra[name+" CDF"] = l.Table(24)
	}
	return exp, nil
}

// Table1 reproduces Table 1: HDNH recovery time for three data sizes spanning
// two orders of magnitude. The paper's OCF and hot-table rebuilds are one
// traversal here (scan); the crash makes recovery dedup torn updates first.
// Expected shape: near-linear growth with data size; totals in the
// millisecond range well below any workload's runtime.
func Table1(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "table1",
		Title:   "HDNH recovery time vs data size",
		XLabel:  "data size",
		Columns: []string{"scan ms", "dedup ms", "total ms"},
		Notes: []string{
			"paper (2M/20M/200M records): OCF 8.0/9.1/60.8 ms, hot 6.7/48.6/351.2 ms, total 8.3/60.5/435.1 ms",
			"sizes here are scaled (x100 smaller by default); shape, not absolutes, is the claim",
		},
	}
	for _, records := range []int64{sc.Records / 10, sc.Records, sc.Records * 10} {
		if records <= 0 {
			records = 1000
		}
		st, r, err := openHDNHWith(sc, records, nil)
		if err != nil {
			return nil, err
		}
		if err := Preload(st, records, 4); err != nil {
			st.Close()
			return nil, err
		}
		// Pull the power cord: quiesce any drain without the clean flag, then
		// re-open on the same device image.
		r.StopBackground()
		reopened, err := core.OpenRouter(r.Device(), r.Options())
		if err != nil {
			return nil, fmt.Errorf("table1 recovery at %d records: %w", records, err)
		}
		rs := reopened.LastRecovery()[0]
		if reopened.Count() != records {
			return nil, fmt.Errorf("table1: recovered %d of %d records", reopened.Count(), records)
		}
		reopened.Close()
		exp.addRow(fmt.Sprintf("%d", records),
			Cell{"scan ms", float64(rs.Scan.Microseconds()) / 1e3},
			Cell{"dedup ms", float64(rs.Dedup.Microseconds()) / 1e3},
			Cell{"total ms", float64(rs.Total.Microseconds()) / 1e3},
		)
	}
	return exp, nil
}
