package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/ycsb"
)

// savedImage loads n records into a fresh store of the given shard count,
// closes it, saves the device image to a file and boots a device from that
// file the way main does.
func savedImage(t *testing.T, shards int, n int64) *nvm.Device {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Shards = shards
	r, err := core.CreateRouter(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := r.NewSession()
	for i := int64(0); i < n; i++ {
		if err := s.Insert(ycsb.RecordKey(i), ycsb.ValueFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SaveImage(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := nvm.LoadImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	booted, err := nvm.FromImage(nvm.DefaultConfig(int64(len(image))), image)
	if err != nil {
		t.Fatal(err)
	}
	return booted
}

// TestInspectSavedImages inspects a saved unsharded image and a saved
// 4-shard one: the totals count every record, every shard gets its own
// section, and -check audits them all.
func TestInspectSavedImages(t *testing.T) {
	const n = 3000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			var out strings.Builder
			if err := inspect(&out, savedImage(t, shards, n), core.DefaultOptions(), true); err != nil {
				t.Fatalf("inspect: %v\n%s", err, out.String())
			}
			got := out.String()
			for _, want := range []string{
				fmt.Sprintf("hdnh store, %d shard(s)", shards),
				fmt.Sprintf("  items       %d\n", n),
				fmt.Sprintf("shard %d (recovery:", shards-1),
				"traversals=1, clean=true",
				"invariants: all hold",
			} {
				if !strings.Contains(got, want) {
					t.Errorf("output lacks %q:\n%s", want, got)
				}
			}
			if c := strings.Count(got, "\nshard "); c != shards {
				t.Errorf("%d shard sections, want %d", c, shards)
			}
		})
	}
}

// TestPerShardReadings: on a saved 4-shard image, the router's per-shard
// readings — LastRecovery and OccupancyHistogram, one entry per shard — agree
// with what each shard recovered, and inspect prints each shard's own.
func TestPerShardReadings(t *testing.T) {
	const shards, n = 4, 3000
	dev := savedImage(t, shards, n)
	var out strings.Builder
	if err := inspect(&out, dev, core.DefaultOptions(), false); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	r, err := core.OpenRouter(dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stats, recs, occ := r.Stats(), r.LastRecovery(), r.OccupancyHistogram()
	if len(recs) != shards || len(occ) != shards {
		t.Fatalf("%d recoveries and %d histograms for %d shards", len(recs), len(occ), shards)
	}
	var total int64
	for i, st := range stats {
		rs := recs[i]
		if !rs.CleanShutdown || rs.Scans != 1 || rs.Items != st.Items {
			t.Errorf("shard %d: recovery clean=%v traversals=%d items=%d, shard holds %d", i, rs.CleanShutdown, rs.Scans, rs.Items, st.Items)
		}
		var buckets, items int64
		for k := 0; k <= core.SlotsPerBucket; k++ {
			buckets += occ[i].Top[k] + occ[i].Bottom[k]
			items += int64(k) * (occ[i].Top[k] + occ[i].Bottom[k])
		}
		if buckets*core.SlotsPerBucket != st.Capacity || items != rs.Items {
			t.Errorf("shard %d: histogram covers %d buckets holding %d records; shard has %d slots, recovered %d",
				i, buckets, items, st.Capacity, rs.Items)
		}
		if !strings.Contains(out.String(), "    top:    "+row(occ[i].Top[:])+"\n") {
			t.Errorf("inspect output lacks shard %d's top-level histogram", i)
		}
		total += rs.Items
	}
	if total != n {
		t.Fatalf("shards recovered %d records, want %d", total, n)
	}
}
