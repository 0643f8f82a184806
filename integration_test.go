package hdnh_test

import (
	"bytes"
	"fmt"
	"testing"

	"hdnh"
	"hdnh/internal/harness"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/trace"
	"hdnh/internal/ycsb"
)

// TestEndToEndPipeline exercises the whole system the way a user would:
// record a workload trace, replay it against two schemes on fresh devices,
// crash the HDNH device mid-life, recover, and audit the result.
func TestEndToEndPipeline(t *testing.T) {
	const records = 4000
	const ops = 8000

	// 1. Record a reproducible trace.
	gen, err := ycsb.New(ycsb.Config{
		RecordCount:  records,
		Mix:          ycsb.Mix{Read: 0.55, Update: 0.25, Insert: 0.1, Delete: 0.05, ReadNegative: 0.05},
		Distribution: ycsb.ScrambledZipfian,
		Theta:        0.99,
		Seed:         1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, gen, 0, ops); err != nil {
		t.Fatal(err)
	}
	opsList, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(opsList) != ops {
		t.Fatalf("trace has %d ops", len(opsList))
	}

	// 2. Replay the identical trace against HDNH and CCEH. One replay
	// worker: the cross-scheme outcome-equality check below is only sound
	// when same-key ops stay ordered, and ReplayTrace chunks the stream
	// across workers without regard to keys. Concurrent correctness is
	// covered by the internal/core concurrency and contention tests.
	results := map[string]*harness.Result{}
	for _, name := range []string{"HDNH", "CCEH"} {
		dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
		if err != nil {
			t.Fatal(err)
		}
		st, err := scheme.Open(name, dev, records+ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := harness.Preload(st, records, 2); err != nil {
			t.Fatal(err)
		}
		res, err := harness.ReplayTrace(st, opsList, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Fatalf("%s replay failures: %d", name, res.Failures)
		}
		results[name] = res
		st.Close()
	}
	// Identical traces must produce identical logical outcomes.
	if results["HDNH"].Misses != results["CCEH"].Misses {
		t.Fatalf("schemes disagree on trace outcome: HDNH %d misses, CCEH %d",
			results["HDNH"].Misses, results["CCEH"].Misses)
	}
	// And HDNH must touch dramatically less NVM for reads.
	if hr, cr := results["HDNH"].NVM.MediaBlockReads, results["CCEH"].NVM.MediaBlockReads; hr*2 > cr {
		t.Fatalf("HDNH media reads (%d) not well below CCEH's (%d)", hr, cr)
	}

	// 3. Crash/recover cycle through the public facade.
	cfg := hdnh.StrictDeviceConfig(1 << 22)
	cfg.EvictProb = 0.5
	dev, err := hdnh.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := hdnh.DefaultOptions()
	table, err := hdnh.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := table.NewSession()
	for i := 0; i < 2000; i++ {
		if err := s.Insert(hdnh.Key(fmt.Sprintf("e2e-%05d", i)), hdnh.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	table.StopBackground() // quiesce drain goroutines; no clean-shutdown flag
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered, err := hdnh.Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Count() != 2000 {
		t.Fatalf("recovered %d of 2000", recovered.Count())
	}
	if errs := recovered.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("post-recovery invariants: %v", errs[0])
	}
	rs := recovered.NewSession()
	if visited := rs.Scan(func(k kv.Key, v kv.Value) bool { return true }); visited != 2000 {
		t.Fatalf("Scan visited %d of 2000 recovered records", visited)
	}
}
