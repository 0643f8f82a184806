package harness

import (
	"fmt"

	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/flight"
	"hdnh/internal/vlog"
)

// FigFlightDemo (extension): a workload built to light up every span the
// flight recorder knows, so `hdnhbench -fig flightdemo -flight-out t.json`
// emits a trace worth opening in Perfetto. The store starts with a one-
// segment bottom level so the load phase forces at least one incremental
// doubling (drain-chunk / resize-swap / resize-done spans), the churn phase
// overwrites through a capacity-bounded value log with the online GC active
// (GC-phase and segment-lifecycle spans), and a close/reopen cycle in the
// middle replays recovery (recovery-step spans) before a final read pass.
// The table rows summarise what the trace captured; the trace file is the
// actual artifact.
func FigFlightDemo(sc Scale) (*Experiment, error) {
	const (
		valueBytes     = 100 // pointer path: 16-word records
		capacityFactor = 3   // log capacity as a multiple of the live set
		churnTarget    = 2   // churn until appended ≥ target × capacity
	)
	keys := sc.Records / 4
	if keys < 256 {
		keys = 256
	}
	recordWords := vlog.RecordWords(valueBytes)
	liveWords := keys * recordWords

	// Trace into the process-wide recorder when hdnhbench installed one via
	// -flight-out (openBigKV attaches it, as it does to every table);
	// otherwise into a private one so the summary columns still work.
	// The rings are oversized either way: the snapshot is taken only at the
	// end, and the one-off resize and recovery spans must not be evicted by
	// the churn phase's hot-table traffic.
	fr := core.DefaultFlight()
	if fr == nil {
		fr = flight.New(flight.Config{RingEvents: 1 << 17})
	}

	st, err := openBigKV(sc, keys, func(o *bigkv.Options) {
		o.SegmentWords = 1024
		o.Segments = (capacityFactor*liveWords+o.SegmentWords-1)/o.SegmentWords + 2
		o.Table.Seed = sc.Seed
		o.Table.InitBottomSegments = 1 // undersized on purpose: the load must trigger a doubling
		o.Table.Flight = fr
	})
	if err != nil {
		return nil, err
	}

	// Phase 1 — load through the resize trigger.
	if err := loadChurnKeys(st, keys, valueBytes); err != nil {
		st.Close()
		return nil, fmt.Errorf("flightdemo %w", err)
	}

	// Phase 2 — overwrite churn with the GC active, as in FigVlogGC but
	// bounded lower: the trace only needs a few full GC cycles. A full log
	// ends the phase; the trace has captured the pressure.
	puts, _, churnElapsed, err := overwriteChurn(st, sc, keys, valueBytes, churnTarget*st.Log().Capacity())
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("flightdemo churn: %w", err)
	}

	// Phase 3 — close and reopen so the trace carries recovery steps.
	idx := st.Index()
	if err := st.Close(); err != nil {
		return nil, err
	}
	st, err = bigkv.Open(idx.Device(), bigkv.Options{Table: idx.Options()})
	if err != nil {
		return nil, err
	}

	// Phase 4 — a read pass over the survivors.
	read := st.NewSession()
	var hits int64
	for i := int64(0); i < keys; i++ {
		if _, ok, err := read.Get(churnKey(i)); err != nil {
			st.Close()
			return nil, fmt.Errorf("flightdemo read key %d: %w", i, err)
		} else if ok {
			hits++
		}
	}
	read.SyncObs()
	// The reads ran beside the recovery sweep; its step is traced when it
	// builds its last segment, so let it finish before closing.
	if err := st.WaitRecovered(); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if hits != keys {
		return nil, fmt.Errorf("flightdemo read-back found %d of %d keys after recovery", hits, keys)
	}

	d := fr.Snapshot()
	var ops, drains, resizes, gcPhases, segStates, recSteps int64
	for _, e := range d.Events {
		switch e.Kind {
		case flight.KindOpEnd:
			ops++
		case flight.KindDrainChunk:
			drains++
		case flight.KindResizeSwap, flight.KindResizeDone:
			resizes++
		case flight.KindGCPhase:
			gcPhases++
		case flight.KindVLogSeg:
			segStates++
		case flight.KindRecoveryStep:
			recSteps++
		}
	}

	exp := &Experiment{
		ID:      "ext-flightdemo",
		Title:   "Flight-recorder demo: mixed churn with resize, GC, and recovery (extension)",
		XLabel:  "phase mix",
		Columns: []string{"put Mops/s", "op spans", "drain chunks", "resize spans", "gc phases", "seg transitions", "recovery steps", "slow ops"},
		Notes: []string{
			fmt.Sprintf("%d keys, %d-byte values; bottom level starts at one segment so the load forces a doubling", keys, valueBytes),
			fmt.Sprintf("churn runs the online GC until appended bytes reach %dx the log capacity, then the store is closed and reopened", churnTarget),
			"span counts are what the recorder's rings still hold at the end — pass -flight-out to keep the trace itself",
		},
	}
	exp.addRow("load+churn+reopen+read",
		mops("put Mops/s", float64(puts)/churnElapsed.Seconds()/1e6),
		Cell{"op spans", float64(ops)},
		Cell{"drain chunks", float64(drains)},
		Cell{"resize spans", float64(resizes)},
		Cell{"gc phases", float64(gcPhases)},
		Cell{"seg transitions", float64(segStates)},
		Cell{"recovery steps", float64(recSteps)},
		Cell{"slow ops", float64(len(d.Slow))},
	)
	return exp, nil
}
