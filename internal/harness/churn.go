package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/vlog"
	"hdnh/internal/ycsb"
)

// churnKey is record i's key in the overwrite-churn figures.
func churnKey(i int64) []byte {
	k := ycsb.RecordKey(i)
	return k[:]
}

// churnValue is record i's value at generation gen: n bytes, each i+gen.
func churnValue(i int64, gen uint64, n int) []byte {
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(uint64(i) + gen)
	}
	return v
}

// loadChurnKeys writes generation 0 of records [0, keys) through one session.
func loadChurnKeys(st *bigkv.Store, keys int64, valueBytes int) error {
	s := st.NewSession()
	defer s.Close()
	for i := int64(0); i < keys; i++ {
		if err := s.Put(churnKey(i), churnValue(i, 0, valueBytes)); err != nil {
			return fmt.Errorf("load key %d: %w", i, err)
		}
	}
	return nil
}

// overwriteChurn is the random-overwrite loop of FigVlogGC and FigFlightDemo:
// sc.Threads writers, each with its own session over its own slice of
// records [0, keys), overwrite uniformly random records of their slice with
// a new generation's value until the log has appended target words. Random
// overwrite, not a sequential sweep, leaves a residue of live records in
// every aging segment, so the GC's relocation path is exercised. A writer
// stops at its first vlog.ErrLogFull, counted in logFull, or at any other
// error, the first of which is returned.
func overwriteChurn(st *bigkv.Store, sc Scale, keys int64, valueBytes int, target int64) (puts, logFull int64, elapsed time.Duration, err error) {
	threads := max(sc.Threads, 1)
	var (
		wg          sync.WaitGroup
		nPut, nFull atomic.Int64
		errOnce     sync.Once
	)
	began := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := st.NewSession()
			defer s.Close()
			lo := keys * int64(w) / int64(threads)
			hi := keys * int64(w+1) / int64(threads)
			rng := rand.New(rand.NewSource(int64(sc.Seed) + int64(w)))
			for gen := uint64(1); st.Log().AppendedWords() < target; gen++ {
				for n := lo; n < hi; n++ {
					i := lo + rng.Int63n(hi-lo)
					switch perr := s.Put(churnKey(i), churnValue(i, gen, valueBytes)); {
					case perr == nil:
						nPut.Add(1)
					case errors.Is(perr, vlog.ErrLogFull):
						nFull.Add(1)
						return
					default:
						errOnce.Do(func() { err = perr })
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return nPut.Load(), nFull.Load(), time.Since(began), err
}
