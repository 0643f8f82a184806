// Concurrent: a multi-goroutine mixed workload exercising the paper's
// fine-grained optimistic concurrency — writers take per-slot locks in the
// DRAM filter, readers run lock-free with version validation, and the only
// global serialisation is a table expansion.
//
// The example runs writers and readers simultaneously through a series of
// resizes and proves linearizable visibility: a reader never observes a
// torn record or a value the key never held.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"hdnh"
	"hdnh/internal/ycsb"
)

const (
	writers      = 4
	readers      = 4
	perWriter    = 10_000
	readDuration = 2 * time.Second
)

func main() {
	dev, err := hdnh.NewDevice(hdnh.DeviceConfig(1 << 24))
	if err != nil {
		log.Fatal(err)
	}
	opts := hdnh.DefaultOptions()
	opts.SegmentBuckets = 16 // small segments: many resizes under load
	table, err := hdnh.Create(dev, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer table.Close()

	gen0 := table.Stats()[0].Generation
	var written atomic.Int64
	var readsDone, hits atomic.Int64
	var wg sync.WaitGroup

	// Writers: each owns a disjoint key range; insert then keep updating.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := table.NewSession()
			base := int64(w) * perWriter
			for i := int64(0); i < perWriter; i++ {
				if err := s.Insert(ycsb.RecordKey(base+i), ycsb.ValueFor(base+i)); err != nil {
					log.Fatalf("writer %d: %v", w, err)
				}
				written.Add(1)
			}
			for i := int64(0); i < perWriter; i += 2 {
				if err := s.Update(ycsb.RecordKey(base+i), ycsb.ValueFor(base+i+1_000_000)); err != nil {
					log.Fatalf("writer %d update: %v", w, err)
				}
			}
		}(w)
	}

	// Readers: hammer random keys across all ranges while writes happen.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			s := table.NewSession()
			for i := int64(r); ; i = (i*2862933555777941757 + 3037000493) % (writers * perWriter) {
				select {
				case <-stop:
					return
				default:
				}
				v, ok := s.Get(ycsb.RecordKey(i))
				readsDone.Add(1)
				if !ok {
					continue // not inserted yet — fine
				}
				hits.Add(1)
				if v != ycsb.ValueFor(i) && v != ycsb.ValueFor(i+1_000_000) {
					log.Fatalf("reader %d: key %d returned impossible value %q", r, i, v.String())
				}
			}
		}(r)
	}

	wg.Wait()
	time.Sleep(50 * time.Millisecond) // let readers observe the final state
	close(stop)
	rwg.Wait()

	fmt.Printf("writers: %d records inserted, half updated, through %d resizes\n",
		written.Load(), table.Stats()[0].Generation-gen0)
	fmt.Printf("readers: %d lock-free reads, %d hits, zero torn values ✓\n",
		readsDone.Load(), hits.Load())

	// Final audit.
	s := table.NewSession()
	for i := int64(0); i < writers*perWriter; i++ {
		want := ycsb.ValueFor(i)
		if i%2 == 0 {
			want = ycsb.ValueFor(i + 1_000_000)
		}
		if v, ok := s.Get(ycsb.RecordKey(i)); !ok || v != want {
			log.Fatalf("audit: key %d = (%q, %v)", i, v.String(), ok)
		}
	}
	fmt.Printf("audit: all %d records hold their last written value ✓\n", writers*perWriter)
}
