// Command hdnhinspect examines a persisted device image (produced by
// `hdnhload -out` or a crash snapshot): it prints the device superblock,
// recovers the HDNH store on it (any shard count), and reports occupancy
// statistics and bucket-fill histograms per shard — the debugging view of a
// store's shape.
//
//	hdnhload -scheme HDNH -n 100000 -out /tmp/t.img
//	hdnhinspect -img /tmp/t.img
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hdnh/internal/core"
	"hdnh/internal/nvm"
)

func main() {
	var (
		img   = flag.String("img", "", "device image file (required)")
		check = flag.Bool("check", false, "audit all cross-structure invariants (slow)")
	)
	flag.Parse()
	if *img == "" {
		fatal("pass -img <file> (create one with hdnhload -out)")
	}

	image, err := nvm.LoadImageFile(*img)
	if err != nil {
		fatal("loading image: %v", err)
	}
	dev, err := nvm.FromImage(nvm.DefaultConfig(int64(len(image))), image)
	if err != nil {
		fatal("booting image: %v", err)
	}

	if err := inspect(os.Stdout, dev, core.DefaultOptions(), *check); err != nil {
		fatal("%v", err)
	}
}

// inspect prints the device superblock, recovers the store on dev (any shard
// count), and prints the store's totals, then each shard's shape, recovery
// and bucket-fill histogram. With check it audits every shard's invariants
// and reports violations as an error.
func inspect(w io.Writer, dev *nvm.Device, opts core.Options, check bool) error {
	fmt.Fprintf(w, "device\n")
	fmt.Fprintf(w, "  capacity   %d words (%.1f MB)\n", dev.Words(), float64(dev.Words())*8/(1<<20))
	fmt.Fprintf(w, "  allocated  %d words (%.1f MB)\n", dev.Words()-dev.FreeWords(),
		float64(dev.Words()-dev.FreeWords())*8/(1<<20))
	fmt.Fprintf(w, "  roots     ")
	for i := 0; i < nvm.NumRoots; i++ {
		if v := dev.Root(i); v != 0 {
			fmt.Fprintf(w, " [%d]=%d", i, v)
		}
	}
	fmt.Fprintln(w)

	start := time.Now()
	r, err := core.OpenRouter(dev, opts)
	if err != nil {
		return fmt.Errorf("recovering store: %w", err)
	}
	defer r.Close()
	fmt.Fprintf(w, "\nhdnh store, %d shard(s) (recovered in %v)\n", r.NumShards(), time.Since(start).Round(time.Microsecond))
	stats := r.Stats()
	var hotCap int64
	for _, st := range stats {
		hotCap += st.HotCapacity
	}
	fmt.Fprintf(w, "  items       %d\n", r.Count())
	fmt.Fprintf(w, "  capacity    %d slots (load %.3f)\n", r.Capacity(), r.LoadFactor())
	fmt.Fprintf(w, "  hot table   %d / %d entries\n", r.HotEntries(), hotCap)

	recoveries, occupancy := r.LastRecovery(), r.OccupancyHistogram()
	for i, st := range stats {
		rs := recoveries[i]
		fmt.Fprintf(w, "\nshard %d (recovery: serving after %v, swept after %v, scan %v, dedup %v, traversals=%d, clean=%v, dups=%d)\n", i,
			rs.Serve.Round(time.Microsecond), rs.Sweep.Round(time.Microsecond),
			rs.Scan.Round(time.Microsecond), rs.Dedup.Round(time.Microsecond), rs.Scans,
			rs.CleanShutdown, rs.DuplicatesResolved)
		fmt.Fprintf(w, "  items       %d\n", st.Items)
		fmt.Fprintf(w, "  capacity    %d slots (load %.3f)\n", st.Capacity, st.LoadFactor)
		fmt.Fprintf(w, "  levels      top %d + bottom %d segments, m=%d (segment %d KB)\n",
			st.TopSegments, st.BottomSegments, st.SegmentBuckets, st.SegmentBuckets*256/1024)
		fmt.Fprintf(w, "  generation  %d\n", st.Generation)
		fmt.Fprintf(w, "  hot table   %d / %d entries\n", st.HotEntries, st.HotCapacity)
		fmt.Fprintf(w, "  bucket occupancy (buckets holding k of %d slots)\n", core.SlotsPerBucket)
		fmt.Fprintf(w, "    k:      %s\n", header(core.SlotsPerBucket))
		fmt.Fprintf(w, "    top:    %s\n", row(occupancy[i].Top[:]))
		fmt.Fprintf(w, "    bottom: %s\n", row(occupancy[i].Bottom[:]))
	}

	if !check {
		return nil
	}
	start = time.Now()
	errs := r.CheckInvariants()
	if len(errs) == 0 {
		fmt.Fprintf(w, "\ninvariants: all hold (%v) ✓\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	fmt.Fprintf(w, "\ninvariants: %d VIOLATIONS\n", len(errs))
	for i, e := range errs {
		if i == 20 {
			fmt.Fprintf(w, "  ... and %d more\n", len(errs)-20)
			break
		}
		fmt.Fprintf(w, "  %v\n", e)
	}
	return fmt.Errorf("%d invariant violations", len(errs))
}

func header(slots int) string {
	var b strings.Builder
	for k := 0; k <= slots; k++ {
		fmt.Fprintf(&b, "%8d", k)
	}
	return b.String()
}

func row(hist []int64) string {
	var b strings.Builder
	for _, v := range hist {
		fmt.Fprintf(&b, "%8d", v)
	}
	return b.String()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhinspect: "+format+"\n", args...)
	os.Exit(1)
}
