package harness

import (
	"errors"
	"fmt"

	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"
)

// LoadFactorExperiment (extension; the paper claims "good space utilization"
// without a figure): fills each scheme until its structure declines an
// insert *without resizing*, reporting the achieved load factor. HDNH and
// LEVEL get resizing disabled; CCEH reports the pre-split saturation of its
// initial directory; PATH is naturally static.
func LoadFactorExperiment(sc Scale) (*Experiment, error) {
	exp := &Experiment{
		ID:      "ext-loadfactor",
		Title:   "Maximum load factor before resize/ErrFull (extension)",
		XLabel:  "scheme",
		Columns: []string{"load factor", "records"},
		Notes: []string{
			"8 candidate buckets x 8 slots give HDNH high pre-resize occupancy",
			"CCEH saturates earlier: linear probing over 4 buckets within one segment",
		},
	}
	type result struct {
		name string
		lf   float64
		n    int64
	}
	var results []result

	// HDNH up to its first expansion: fill the initial geometry and stop the
	// moment capacity changes (a device too small to expand would conflate
	// errors with a full table).
	{
		words := autoDeviceWords(sc.Records, 0)
		dev, err := nvm.New(nvm.DefaultConfig(words))
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.HotSlotsPerBucket = 0
		opts.DisplaceOnInsert = true // count displacement toward utilisation
		opts.InitBottomSegments = core.SizeBottomSegments(sc.Records, opts.SegmentBuckets)
		r, err := core.CreateRouter(dev, opts)
		if err != nil {
			return nil, err
		}
		capacityBefore := r.Capacity() // the resize doubles it, so capture now
		s := r.NewSession()
		var n int64
		for i := int64(0); ; i++ {
			if err := s.Insert(ycsb.RecordKey(i), ycsb.ValueFor(i)); err != nil {
				break
			}
			if r.Capacity() != capacityBefore {
				// It managed to resize once; stop at the pre-resize count. The
				// doubled structure is swapped in at the start of the drain,
				// so capacity changes the moment a resize begins — inserts
				// counted after it would inflate the pre-resize load factor
				// past 1.
				break
			}
			n++
		}
		results = append(results, result{"HDNH", float64(n) / float64(capacityBefore), n})
		r.Close()
	}

	// The static/semi-static baselines through the registry, sized so their
	// initial structure is the whole experiment.
	for _, name := range []string{"LEVEL", "CCEH", "PATH"} {
		words := autoDeviceWords(sc.Records, 0)
		dev, err := nvm.New(nvm.DefaultConfig(words))
		if err != nil {
			return nil, err
		}
		st, err := scheme.Open(name, dev, sc.Records)
		if err != nil {
			return nil, err
		}
		s := st.NewSession()
		capacityBefore := st.Capacity()
		var n int64
		for i := int64(0); ; i++ {
			if err := s.Insert(ycsb.RecordKey(i), ycsb.ValueFor(i)); err != nil {
				if !errors.Is(err, scheme.ErrFull) {
					st.Close()
					return nil, fmt.Errorf("loadfactor %s: %w", name, err)
				}
				break
			}
			if st.Capacity() != capacityBefore {
				break // the scheme grew; report pre-growth saturation
			}
			n++
		}
		results = append(results, result{name, float64(n) / float64(capacityBefore), n})
		st.Close()
	}

	for _, r := range results {
		exp.addRow(r.name, Cell{"load factor", r.lf}, Cell{"records", float64(r.n)})
	}
	return exp, nil
}
