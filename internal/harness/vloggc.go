package harness

import (
	"fmt"

	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/obs"
	"hdnh/internal/vlog"
)

// FigVlogGC (extension): 100% overwrite churn at a fixed key count through
// bigkv's segmented value log, with the online GC off vs on. Off, the log
// is a bump pointer: churn dies with ErrLogFull before appending even one
// log's worth of bytes. On, the GC relocates live records and recycles
// dead segments concurrently with the writers, so the same fixed-footprint
// log absorbs a configured multiple of its capacity (10× here) — the
// "appended / capacity" column is the point of the figure, and the write
// amplification column is its price. The device never grows in either
// mode: segments are recycled in place, not reallocated.
func FigVlogGC(sc Scale) (*Experiment, error) {
	const (
		valueBytes     = 100 // pointer path: 16-word records
		capacityFactor = 3   // log capacity as a multiple of the live set
		churnTarget    = 10  // stop once appended ≥ target × capacity
	)
	keys := sc.Records / 4
	if keys < 64 {
		keys = 64
	}
	recordWords := vlog.RecordWords(valueBytes)
	liveWords := keys * recordWords

	exp := &Experiment{
		ID:      "ext-vloggc",
		Title:   "Value-log churn at fixed footprint: GC off vs online GC (extension)",
		XLabel:  "gc mode",
		Columns: []string{"appended/cap", "put Mops/s", "write amp", "recycles", "logfull errs", "device growth words", "visited/recycle", "ack waits/put"},
		Notes: []string{
			fmt.Sprintf("%d keys, %d-byte values, %d%% overwrite, log sized at %dx the live set",
				keys, valueBytes, 100, capacityFactor),
			fmt.Sprintf("churn runs until appended bytes reach %dx the log capacity (or the log fills)", churnTarget),
			"write amp = (user words + GC-copied words) / user words, from the obs counters",
		},
	}

	for _, mode := range []struct {
		name string
		gc   bool
	}{
		{"gc-off", false},
		{"gc-online", true},
	} {
		// The write-amp and GC columns read the counters back, so record
		// into a private registry when hdnhbench installed none.
		reg := core.DefaultMetrics()
		if reg == nil {
			reg = obs.New(obs.Config{})
		}
		base := reg.Snapshot()
		st, err := openBigKV(sc, keys, func(o *bigkv.Options) {
			o.SegmentWords = 1024
			o.Segments = (capacityFactor*liveWords+o.SegmentWords-1)/o.SegmentWords + 2
			o.DisableAutoGC = !mode.gc
			o.Table.Seed = sc.Seed
			o.Table.Metrics = reg
		})
		if err != nil {
			return nil, err
		}
		dev := st.Index().Device()

		if err := loadChurnKeys(st, keys, valueBytes); err != nil {
			st.Close()
			return nil, fmt.Errorf("vloggc %w", err)
		}
		freeWordsBefore := dev.FreeWords()
		puts, logFull, elapsed, err := overwriteChurn(st, sc, keys, valueBytes, churnTarget*st.Log().Capacity())
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("vloggc churn (%s): %w", mode.name, err)
		}

		appended := st.Log().AppendedWords()
		recycles := st.Log().Recycles()
		deviceGrowth := freeWordsBefore - dev.FreeWords()
		if err := st.Close(); err != nil {
			return nil, err
		}
		delta := reg.Snapshot().Sub(base)

		exp.addRow(mode.name,
			Cell{"appended/cap", float64(appended) / float64(st.Log().Capacity())},
			mops("put Mops/s", float64(puts)/elapsed.Seconds()/1e6),
			Cell{"write amp", delta.GCWriteAmplification()},
			Cell{"recycles", float64(recycles)},
			Cell{"logfull errs", float64(logFull)},
			Cell{"device growth words", float64(deviceGrowth)},
			Cell{"visited/recycle", delta.GCVisitedPerRecycle()},
			Cell{"ack waits/put", float64(delta.VLogAckWaits) / float64(max(puts, 1))},
		)
	}
	return exp, nil
}
