// Durability: a write-ahead-style session on a strict-mode device that is
// crashed at a random moment, then recovered — demonstrating the paper's
// §3.7 recovery path and the crash-atomic slot commit protocol.
//
// The strict device models the CPU cache: stores are volatile until flushed
// (CLWB + fence), and on power failure an arbitrary subset of unflushed
// cache lines may or may not have been evicted to the media.
package main

import (
	"fmt"
	"log"

	"hdnh"
	"hdnh/internal/ycsb"
)

func main() {
	cfg := hdnh.StrictDeviceConfig(1 << 22)
	cfg.EvictProb = 0.5 // each dirty line survives the crash with p=0.5
	dev, err := hdnh.NewDevice(cfg)
	if err != nil {
		log.Fatal(err)
	}

	table, err := hdnh.Create(dev, hdnh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Arm a crash image: the device snapshots its persisted state at the
	// 5000th cache-line flush, exactly as a power cut there would leave it.
	const crashAtFlush = 5000
	if err := dev.SetCrashAfterFlushes(crashAtFlush); err != nil {
		log.Fatal(err)
	}

	s := table.NewSession()
	const n = 5000
	fmt.Printf("writing %d records; power will fail at flush #%d...\n", n, crashAtFlush)
	for i := int64(0); i < n; i++ {
		if err := s.Insert(ycsb.RecordKey(i), ycsb.ValueFor(i)); err != nil {
			log.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.Update(ycsb.RecordKey(i), ycsb.ValueFor(i+1000000)); err != nil {
				log.Fatal(err)
			}
		}
	}

	img := dev.CrashImage()
	if img == nil {
		log.Fatal("run finished before the crash point — increase n")
	}
	dev2, err := hdnh.DeviceFromImage(cfg, img)
	if err != nil {
		log.Fatal(err)
	}

	recovered, err := hdnh.Open(dev2, hdnh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	rs := recovered.LastRecovery()[0]
	fmt.Printf("recovered %d records: serving after %v, swept after %v (scan %v, dedup %v, %d table traversals, torn updates fixed: %d)\n",
		rs.Items, rs.Serve.Round(0), rs.Sweep.Round(0), rs.Scan.Round(0), rs.Dedup.Round(0), rs.Scans, rs.DuplicatesResolved)

	// Verify the crash-consistency contract: every surviving record holds
	// either its insert-time or its update-time value — never a torn mix —
	// and the survivors form a prefix of the acknowledged operations.
	rsess := recovered.NewSession()
	var present int64
	for i := int64(0); i < n; i++ {
		v, ok := rsess.Get(ycsb.RecordKey(i))
		if !ok {
			break
		}
		old, updated := ycsb.ValueFor(i), ycsb.ValueFor(i+1000000)
		if v != old && v != updated {
			log.Fatalf("record %d has a torn value %q", i, v.String())
		}
		present++
	}
	fmt.Printf("verified: first %d records intact, none torn ✓\n", present)
}
