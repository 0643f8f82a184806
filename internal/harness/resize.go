package harness

import (
	"fmt"
	"time"

	"hdnh/internal/core"
	"hdnh/internal/histogram"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/ycsb"
)

// FigResize (extension; the paper reports only amortised resize cost):
// foreground insert latency through a run dominated by table doublings,
// blocking baseline vs incremental drain. Each mode starts from a one-segment
// bottom level so the insert stream rides through every doubling up to the
// scale's record count, and every insert is timed individually — the tail
// percentiles ARE the resize stalls. Expected shape: identical p50 (the
// common path is untouched), with the blocking baseline's p999/max growing
// with the last drain's size while the incremental drain's tail stays within
// a chunk's rehash time plus the pointer-swap window.
func FigResize(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "ext-resize",
		Title:   "Insert latency through doublings: blocking vs incremental drain (extension)",
		XLabel:  "resize mode",
		Columns: []string{"p50 us", "p99 us", "p999 us", "max ms", "expansions", "insert Mops/s"},
		Notes: []string{
			"every insert timed (no sampling); the tail is the resize stall",
			"blocking: the triggering insert holds the resize lock for the whole drain",
			"incremental: swap under the exclusive lock, drain in chunks behind it",
		},
	}
	for _, mode := range []struct {
		name     string
		blocking bool
	}{
		{"blocking", true},
		{"incremental", false},
	} {
		words := autoDeviceWords(sc.Records, sc.Records)
		cfg := nvm.DefaultConfig(words)
		if sc.Mode == nvm.ModeEmulate {
			cfg = nvm.EmulateConfig(words)
		}
		dev, err := nvm.New(cfg)
		if err != nil {
			return nil, err
		}
		// Record into the shared -metrics registry when one is installed so
		// the drain/swap counters show up in the post-run exposition; the
		// experiment itself reads nothing back from it.
		reg := core.DefaultMetrics()
		if reg == nil {
			reg = obs.New(obs.Config{})
		}
		opts := core.DefaultOptions()
		opts.InitBottomSegments = 1 // the doublings are the experiment
		opts.BlockingResize = mode.blocking
		opts.Metrics = reg
		opts.Seed = sc.Seed
		r, err := core.CreateRouter(dev, opts)
		if err != nil {
			return nil, err
		}
		s := r.NewSession()
		lat := histogram.New()
		began := time.Now()
		for i := int64(0); i < sc.Records; i++ {
			t0 := time.Now()
			if err := s.Insert(ycsb.RecordKey(i), ycsb.ValueFor(i)); err != nil {
				r.Close()
				return nil, fmt.Errorf("resize experiment (%s) insert %d: %w", mode.name, i, err)
			}
			lat.RecordDuration(time.Since(t0))
		}
		elapsed := time.Since(began)
		// Close first: in incremental mode the last drain may still be in
		// flight and the generation only bumps when it completes; Close waits
		// it out, so the expansions cell counts every finished doubling.
		r.Close()
		expansions := r.Stats()[0].Generation - 1

		exp.addRow(mode.name,
			Cell{"p50 us", float64(lat.Percentile(50)) / 1e3},
			Cell{"p99 us", float64(lat.Percentile(99)) / 1e3},
			Cell{"p999 us", float64(lat.Percentile(99.9)) / 1e3},
			Cell{"max ms", float64(lat.Max()) / 1e6},
			Cell{"expansions", float64(expansions)},
			mops("insert Mops/s", float64(sc.Records)/elapsed.Seconds()/1e6),
		)
	}
	return exp, nil
}
