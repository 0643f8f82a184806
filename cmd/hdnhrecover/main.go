// Command hdnhrecover demonstrates HDNH crash recovery end to end: it loads
// a table on a strict-mode device, simulates a power failure (optionally in
// the middle of a resize), recovers, verifies every committed record, and
// prints the Table 1-style recovery timing breakdown.
//
//	hdnhrecover -n 50000
//	hdnhrecover -n 50000 -crash-mid-resize
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hdnh/internal/core"
	"hdnh/internal/harness"
	"hdnh/internal/nvm"
	"hdnh/internal/ycsb"
)

func main() {
	var (
		n         = flag.Int64("n", 50_000, "records to load before the crash")
		midResize = flag.Bool("crash-mid-resize", false, "arm the crash during a table expansion")
		evictProb = flag.Float64("evict-prob", 0.5, "probability an unflushed cache line survives the crash")
		seed      = flag.Uint64("seed", 1, "crash eviction seed")
	)
	flag.Parse()

	cfg := harness.DeviceConfig(nvm.ModeStrict, harness.DeviceWords(*n, 0))
	cfg.EvictProb = *evictProb
	cfg.Seed = *seed
	dev, err := nvm.New(cfg)
	if err != nil {
		fatal("device: %v", err)
	}

	store, err := core.CreateRouter(dev, core.DefaultOptions())
	if err != nil {
		fatal("create: %v", err)
	}
	s := store.NewSession()

	fmt.Printf("loading %d records on a strict-mode device...\n", *n)
	loaded := int64(0)
	armed := false
	for i := int64(0); i < *n; i++ {
		if *midResize && !armed && i == *n*3/4 {
			// Arm a crash image a few hundred flushes ahead: at this load
			// point expansions are frequent, so the snapshot usually lands
			// inside one.
			if err := dev.SetCrashAfterFlushes(300); err != nil {
				fatal("arming crash: %v", err)
			}
			armed = true
		}
		if err := s.Insert(ycsb.RecordKey(i), ycsb.ValueFor(i)); err != nil {
			fatal("insert %d: %v", i, err)
		}
		loaded++
	}

	// Take the post-crash device state.
	var crashed *nvm.Device
	if *midResize {
		img := dev.CrashImage()
		if img == nil {
			fmt.Println("note: no expansion happened after arming; crashing at end of load instead")
			if err := dev.Crash(); err != nil {
				fatal("crash: %v", err)
			}
			crashed = dev
		} else {
			crashed, err = nvm.FromImage(cfg, img)
			if err != nil {
				fatal("booting crash image: %v", err)
			}
			fmt.Println("crash image captured mid-run (armed during resize window)")
		}
	} else {
		if err := dev.Crash(); err != nil {
			fatal("crash: %v", err)
		}
		crashed = dev
	}
	fmt.Printf("power failure simulated (unflushed lines survive with p=%.2f)\n", *evictProb)

	start := time.Now()
	recovered, err := core.OpenRouter(crashed, core.DefaultOptions())
	if err != nil {
		fatal("recovery: %v", err)
	}
	defer recovered.Close()
	rs := recovered.LastRecovery()[0]

	fmt.Printf("\nrecovery complete in %v\n", time.Since(start).Round(time.Microsecond))
	fmt.Printf("  serving after     %v\n", rs.Serve.Round(time.Microsecond))
	fmt.Printf("  swept after       %v\n", rs.Sweep.Round(time.Microsecond))
	fmt.Printf("  scan              %v\n", rs.Scan.Round(time.Microsecond))
	fmt.Printf("  dedup             %v\n", rs.Dedup.Round(time.Microsecond))
	fmt.Printf("  table traversals  %d\n", rs.Scans)
	fmt.Printf("  media block reads %d\n", rs.MediaBlockReads)
	fmt.Printf("  items recovered   %d\n", rs.Items)
	fmt.Printf("  resumed rehash    %v\n", rs.ResumedRehash)
	fmt.Printf("  duplicates fixed  %v\n", rs.DuplicatesResolved)

	// Verify: all records must form a committed prefix (only the very last
	// in-flight insert may be missing in a mid-run crash image).
	rsess := recovered.NewSession()
	present := int64(0)
	for i := int64(0); i < loaded; i++ {
		v, ok := rsess.Get(ycsb.RecordKey(i))
		if !ok {
			break
		}
		if v != ycsb.ValueFor(i) {
			fatal("record %d corrupt after recovery", i)
		}
		present++
	}
	for i := present; i < loaded; i++ {
		if _, ok := rsess.Get(ycsb.RecordKey(i)); ok {
			fatal("non-prefix survival: record %d present but %d missing", i, present)
		}
	}
	fmt.Printf("\nverified: %d of %d records survive as a clean prefix ✓\n", present, loaded)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhrecover: "+format+"\n", args...)
	os.Exit(1)
}
