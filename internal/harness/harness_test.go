package harness

import (
	"strings"
	"testing"

	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"
)

func tinyScale() Scale {
	return Scale{Records: 3000, Ops: 6000, Threads: 4, Mode: nvm.ModeModel, Seed: 7}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(Options{
		Scheme:  "HDNH",
		Records: 2000,
		Ops:     4000,
		Threads: 2,
		Mix:     ycsb.WorkloadA,
		Dist:    ycsb.ScrambledZipfian,
		Theta:   0.99,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.ThroughputMops <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Failures != 0 {
		t.Fatalf("%d hard failures", res.Failures)
	}
	if res.PreloadElapsed <= 0 {
		t.Fatal("preload not timed")
	}
}

func TestRunEveryScheme(t *testing.T) {
	for _, name := range []string{"HDNH", "HDNH-LRU", "LEVEL", "CCEH", "PATH"} {
		t.Run(name, func(t *testing.T) {
			res, err := Run(Options{
				Scheme:  name,
				Records: 1500,
				Ops:     2000,
				Threads: 2,
				Mix:     ycsb.ReadOnly,
				Dist:    ycsb.Uniform,
				Seed:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures != 0 {
				t.Fatalf("%d failures", res.Failures)
			}
			if res.Misses != 0 {
				t.Fatalf("%d misses on a positive-read workload", res.Misses)
			}
			if res.NVM.ReadAccesses == 0 && name != "HDNH" && name != "HDNH-LRU" {
				t.Fatal("no NVM reads accounted for a filterless scheme")
			}
		})
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{Scheme: "HDNH", Records: 0, Mix: ycsb.ReadOnly}); err == nil {
		t.Fatal("zero records accepted")
	}
	if _, err := Run(Options{Scheme: "HDNH", Records: 10, Mix: ycsb.Mix{Read: 0.5}}); err == nil {
		t.Fatal("invalid mix accepted")
	}
	if _, err := Run(Options{Scheme: "NOSUCH", Records: 10, Mix: ycsb.ReadOnly}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunLatencyHistogram(t *testing.T) {
	res, err := Run(Options{
		Scheme:        "HDNH",
		Records:       1000,
		Ops:           2000,
		Threads:       2,
		Mix:           ycsb.WorkloadA,
		Dist:          ycsb.ScrambledZipfian,
		Theta:         0.99,
		Seed:          3,
		RecordLatency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == nil || res.Latency.Count() != 2000 {
		t.Fatalf("latency histogram missing or short: %v", res.Latency)
	}
}

func TestDeleteWorkloadCountsMisses(t *testing.T) {
	res, err := Run(Options{
		Scheme:  "HDNH",
		Records: 500,
		Ops:     2000, // more deletes than records: repeats must miss, not fail
		Threads: 1,
		Mix:     ycsb.DeleteOnly,
		Dist:    ycsb.Uniform,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("deletes produced hard failures: %d", res.Failures)
	}
	if res.Misses == 0 {
		t.Fatal("repeated deletes produced no misses")
	}
}

func TestFig11a(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops = 1200, 1500
	exp, err := Fig11a(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 6 {
		t.Fatalf("fig11a rows = %d", len(exp.Rows))
	}
	out := exp.String()
	if !strings.Contains(out, "16KB") || !strings.Contains(out, "fig11a") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestFig11b(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops = 1200, 1500
	exp, err := Fig11b(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 4 {
		t.Fatalf("fig11b rows = %d", len(exp.Rows))
	}
}

func TestFig12(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops = 1000, 1200
	exp, err := Fig12(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 6 || len(exp.Rows[0].Cells) != 4 {
		t.Fatalf("fig12 shape wrong: %d rows", len(exp.Rows))
	}
}

func TestFig13(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops = 1000, 1200
	exp, err := Fig13(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 4 || len(exp.Rows[0].Cells) != 4 {
		t.Fatal("fig13 shape wrong")
	}
}

func TestFig14(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops, sc.Threads = 800, 1000, 2
	exps, err := Fig14(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 3 {
		t.Fatalf("fig14 produced %d experiments", len(exps))
	}
	for _, e := range exps {
		if len(e.Rows) != 2 { // threads 1, 2
			t.Fatalf("%s rows = %d", e.ID, len(e.Rows))
		}
	}
}

func TestFig15(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops, sc.Threads = 800, 1500, 4
	exp, err := Fig15(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 3 {
		t.Fatalf("fig15 rows = %d", len(exp.Rows))
	}
	if len(exp.Extra) != 3 {
		t.Fatalf("fig15 CDFs = %d", len(exp.Extra))
	}
}

func TestTable1(t *testing.T) {
	sc := tinyScale()
	sc.Records = 2000
	exp, err := Table1(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 3 {
		t.Fatalf("table1 rows = %d", len(exp.Rows))
	}
	// Total must be >= OCF component and grow with size.
	if exp.Rows[2].Cells[2].Value < exp.Rows[0].Cells[2].Value {
		t.Log("note: recovery time not monotone at tiny sizes (timer noise)")
	}
}

func TestRenderTable(t *testing.T) {
	exp := &Experiment{
		ID: "x", Title: "T", XLabel: "k",
		Columns: []string{"a", "b"},
		Notes:   []string{"note"},
	}
	exp.addRow("r1", Cell{"a", 1.5}, Cell{"b", 2.25})
	out := exp.String()
	for _, want := range []string{"== x: T ==", "r1", "1.5", "2.25", "# note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAutoDeviceWords(t *testing.T) {
	if DeviceWords(0, 0) < 1<<20 {
		t.Fatal("minimum size not enforced")
	}
	w := DeviceWords(1_000_000, 0)
	if w%nvm.BlockWords != 0 {
		t.Fatal("device words not block-aligned")
	}
	if w < 1_000_000*4 {
		t.Fatal("device too small for data")
	}
}

func TestAblation(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops = 1000, 1200
	exp, err := Ablation(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 4 || len(exp.Rows[0].Cells) != 4 {
		t.Fatalf("ablation shape wrong: %d rows", len(exp.Rows))
	}
}

func TestLoadFactorExperiment(t *testing.T) {
	sc := tinyScale()
	sc.Records = 1500
	exp, err := LoadFactorExperiment(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 4 {
		t.Fatalf("rows = %d", len(exp.Rows))
	}
	for _, r := range exp.Rows {
		lf := r.Cells[0].Value
		if lf <= 0.2 || lf > 1.0 {
			t.Fatalf("%s load factor %.3f implausible", r.X, lf)
		}
	}
}

func TestFigResize(t *testing.T) {
	exp, err := FigResize(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 2 {
		t.Fatalf("rows = %d, want blocking + incremental", len(exp.Rows))
	}
	for _, r := range exp.Rows {
		if len(r.Cells) != 6 {
			t.Fatalf("%s: cells = %d, want 6", r.X, len(r.Cells))
		}
		if exps := r.Cells[4].Value; exps < 1 {
			t.Fatalf("%s: %v expansions; the run never resized", r.X, exps)
		}
	}
}

func TestRunWorkloadF(t *testing.T) {
	res, err := Run(Options{
		Scheme:  "HDNH",
		Records: 1000,
		Ops:     3000,
		Threads: 2,
		Mix:     ycsb.WorkloadF,
		Dist:    ycsb.ScrambledZipfian,
		Theta:   0.99,
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.Misses != 0 {
		t.Fatalf("workload F: %d failures, %d misses", res.Failures, res.Misses)
	}
}

func TestReplayTraceMatchesRun(t *testing.T) {
	// A replayed trace must behave like the generator stream it recorded:
	// same op counts, zero failures, and deterministic across replays.
	gen, err := ycsb.New(ycsb.Config{
		RecordCount:  1000,
		Mix:          ycsb.WorkloadA,
		Distribution: ycsb.ScrambledZipfian,
		Theta:        0.99,
		Seed:         21,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := gen.Worker(0)
	ops := make([]ycsb.Op, 3000)
	for i := range ops {
		ops[i] = w.Next()
	}
	for _, threads := range []int{1, 3} {
		dev, err := nvm.New(nvm.DefaultConfig(1 << 21))
		if err != nil {
			t.Fatal(err)
		}
		st, err := scheme.Open("HDNH", dev, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := Preload(st, 1000, 2); err != nil {
			t.Fatal(err)
		}
		res, err := ReplayTrace(st, ops, threads, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 3000 || res.Failures != 0 || res.Misses != 0 {
			t.Fatalf("threads=%d: %+v", threads, res)
		}
		if res.Latency == nil || res.Latency.Count() != 3000 {
			t.Fatal("latency histogram wrong")
		}
		st.Close()
	}

	// One thread replays exactly the stream Run draws from the same
	// generator (no inserts, one session), so both must see the same
	// outcomes and the same device traffic.
	want, err := Run(Options{
		Scheme:  "HDNH",
		Records: 1000,
		Ops:     int64(len(ops)),
		Threads: 1,
		Mix:     ycsb.WorkloadA,
		Dist:    ycsb.ScrambledZipfian,
		Theta:   0.99,
		Seed:    21,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := nvm.New(DeviceConfig(nvm.ModeModel, DeviceWords(1000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := scheme.Open("HDNH", dev, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := Preload(st, 1000, 1); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayTrace(st, ops, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ops != want.Ops || got.Misses != want.Misses || got.Failures != want.Failures || got.NVM != want.NVM {
		t.Fatalf("replay of Run's stream differs:\nreplay ops %d misses %d failures %d nvm %v\nrun    ops %d misses %d failures %d nvm %v",
			got.Ops, got.Misses, got.Failures, got.NVM, want.Ops, want.Misses, want.Failures, want.NVM)
	}
}

func TestFig11bRecordsIntoInstalledMetrics(t *testing.T) {
	// hdnhbench -metrics installs one registry for every table the selected
	// experiments build, the swept-option HDNH tables included.
	reg := obs.New(obs.Config{})
	core.SetDefaultMetrics(reg)
	t.Cleanup(func() { core.SetDefaultMetrics(nil) })
	sc := tinyScale()
	sc.Records, sc.Ops = 1000, 1000
	if _, err := Fig11b(sc); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().OpTotal(obs.OpGet); got == 0 {
		t.Fatal("Fig11b's gets never reached the installed metrics registry")
	}
}

func TestReplayTraceEmpty(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	st, err := scheme.Open("HDNH", dev, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := ReplayTrace(st, nil, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 0 {
		t.Fatalf("Ops = %d", res.Ops)
	}
}

func TestExperimentCSV(t *testing.T) {
	exp := &Experiment{
		ID: "x", Title: "T", XLabel: "k,x",
		Columns: []string{"a", "b"},
	}
	exp.addRow("r1", Cell{"a", 1.5}, Cell{"b", 2})
	exp.addRow("r2", Cell{"a", 3})
	got := exp.CSV()
	want := "\"k,x\",a,b\nr1,1.5,2\nr2,3,\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestHybridExperiment(t *testing.T) {
	sc := tinyScale()
	sc.Records, sc.Ops = 1000, 1200
	exp, err := HybridExperiment(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 5 || len(exp.Rows[0].Cells) != 5 {
		t.Fatalf("hybrid shape wrong: %d rows", len(exp.Rows))
	}
}
