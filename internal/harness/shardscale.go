package harness

import (
	"fmt"

	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"
)

// FigShardScale measures what the hash router buys a write-heavy mixed
// workload (extension; no paper counterpart): a 50% insert + 50% search run
// at the scale's full thread count, swept over router shard counts. Each
// shard owns its epoch registry, resize state and hot table, so the serial
// sections a single table funnels through — resize drains, slot-lock
// neighbourhoods — split across shards.
// Expected shape on a multi-core host: throughput rises with shards until
// it exhausts the host's parallelism, with the biggest step from 1 to 2;
// on a single-core host the sweep is flat (the shards time-slice one CPU)
// and the experiment only demonstrates that sharding costs nothing.
func FigShardScale(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "shardscale",
		Title:   "Mixed-workload throughput vs router shard count",
		XLabel:  "shards",
		Columns: []string{"HDNH", "speedup"},
		Notes: []string{
			"50% insert + 50% search at " + fmt.Sprint(sc.Threads) + " threads; speedup is over shards=1",
			"note: this host exposes GOMAXPROCS=" + fmt.Sprint(maxProcs()) + "; gains need real cores to land on",
		},
	}
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		st, err := openRouterStore(sc, sc.Records+sc.Ops, shards)
		if err != nil {
			return nil, fmt.Errorf("shardscale shards=%d: %w", shards, err)
		}
		if err := Preload(st, sc.Records, sc.Threads); err != nil {
			st.Close()
			return nil, fmt.Errorf("shardscale shards=%d preload: %w", shards, err)
		}
		res, err := runOnStore(st, sc, sc.Records, sc.Ops, sc.Threads, ycsb.InsertHalfRead, ycsb.Uniform, 0, false)
		st.Close()
		if err != nil {
			return nil, fmt.Errorf("shardscale shards=%d: %w", shards, err)
		}
		if base == 0 {
			base = res.ThroughputMops
		}
		speedup := 0.0
		if base > 0 {
			speedup = res.ThroughputMops / base
		}
		exp.addRow(fmt.Sprintf("%d", shards),
			mops("HDNH", res.ThroughputMops),
			Cell{Label: "speedup", Value: speedup})
	}
	return exp, nil
}

// openRouterStore builds a sharded HDNH store on a fresh device sized for
// the scale, with the same structure sizing rule the scheme registry uses
// (the router divides the initial segments across shards).
func openRouterStore(sc Scale, hint int64, shards int) (scheme.Store, error) {
	words := autoDeviceWords(hint, hint)
	cfg := nvm.DefaultConfig(words)
	if sc.Mode == nvm.ModeEmulate {
		cfg = nvm.EmulateConfig(words)
	}
	dev, err := nvm.New(cfg)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Shards = shards
	opts.InitBottomSegments = core.SizeBottomSegments(hint, opts.SegmentBuckets)
	r, err := core.CreateRouter(dev, opts)
	if err != nil {
		return nil, err
	}
	return core.NewRouterStore(r), nil
}
