package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/vlog"
	"hdnh/internal/ycsb"
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
		opts := bigkv.DefaultOptions()
		opts.SegmentWords = 1024
		opts.Segments = (capacityFactor*liveWords+opts.SegmentWords-1)/opts.SegmentWords + 2
		opts.DisableAutoGC = !mode.gc
		opts.Table.Seed = sc.Seed
		reg := core.DefaultMetrics()
		if reg == nil {
			reg = obs.New(obs.Config{})
		}
		opts.Table.Metrics = reg
		base := reg.Snapshot()

		words := autoDeviceWords(keys, keys) + opts.SegmentWords*opts.Segments + nvm.BlockWords
		cfg := nvm.DefaultConfig(words)
		if sc.Mode == nvm.ModeEmulate {
			cfg = nvm.EmulateConfig(words)
		}
		dev, err := nvm.New(cfg)
		if err != nil {
			return nil, err
		}
		st, err := bigkv.Create(dev, opts)
		if err != nil {
			return nil, err
		}

		val := func(i int64, gen uint64) []byte {
			v := make([]byte, valueBytes)
			for j := range v {
				v[j] = byte(uint64(i) + gen)
			}
			return v
		}
		key := func(i int64) []byte {
			k := ycsb.RecordKey(i)
			return k[:]
		}
		load := st.NewSession()
		for i := int64(0); i < keys; i++ {
			if err := load.Put(key(i), val(i, 0)); err != nil {
				st.Close()
				return nil, fmt.Errorf("vloggc load key %d: %w", i, err)
			}
		}
		load.SyncObs()
		freeWordsBefore := dev.FreeWords()
		target := churnTarget * st.Log().Capacity()

		threads := sc.Threads
		if threads < 1 {
			threads = 1
		}
		var (
			wg       sync.WaitGroup
			puts     atomic.Int64
			logFull  atomic.Int64
			errMu    sync.Mutex
			firstErr error
		)
		began := time.Now()
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := st.NewSession()
				defer s.SyncObs()
				lo := keys * int64(w) / int64(threads)
				hi := keys * int64(w+1) / int64(threads)
				// Uniform-random key choice, not a sequential sweep: random
				// overwrite leaves a residue of live records in every aging
				// segment, so the GC's relocation path (and the write-amp
				// column) is actually exercised.
				rng := rand.New(rand.NewSource(int64(sc.Seed) + int64(w)))
				for gen := uint64(1); st.Log().AppendedWords() < target; gen++ {
					for n := lo; n < hi; n++ {
						i := lo + rng.Int63n(hi-lo)
						err := s.Put(key(i), val(i, gen))
						switch {
						case err == nil:
							puts.Add(1)
						case errors.Is(err, vlog.ErrLogFull):
							logFull.Add(1)
							return // churn is over for this mode
						default:
							errMu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							errMu.Unlock()
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(began)
		if firstErr != nil {
			st.Close()
			return nil, fmt.Errorf("vloggc churn (%s): %w", mode.name, firstErr)
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
			mops("put Mops/s", float64(puts.Load())/elapsed.Seconds()/1e6),
			Cell{"write amp", delta.GCWriteAmplification()},
			Cell{"recycles", float64(recycles)},
			Cell{"logfull errs", float64(logFull.Load())},
			Cell{"device growth words", float64(deviceGrowth)},
			Cell{"visited/recycle", delta.GCVisitedPerRecycle()},
			Cell{"ack waits/put", float64(delta.VLogAckWaits) / float64(max(puts.Load(), 1))},
		)
	}
	return exp, nil
}
