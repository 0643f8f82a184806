// Package harness drives the paper's experiments: it wires a scheme, an
// emulated NVM device and a YCSB workload together, runs the workload over
// worker goroutines, and reports throughput, NVM traffic, and latency
// distributions. Every figure and table in the paper's evaluation section
// has a Fig*/Table* function here that regenerates it.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/histogram"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"

	// Register every scheme the experiments sweep.
	_ "hdnh/internal/cceh"
	_ "hdnh/internal/levelhash"
	_ "hdnh/internal/pathhash"
)

// Options configures one workload run.
type Options struct {
	// Scheme is a registry name ("HDNH", "LEVEL", "CCEH", "PATH", ...).
	Scheme string
	// Store, when non-nil, is used instead of opening Scheme (the
	// sensitivity experiments construct HDNH with custom options).
	Store scheme.Store
	// Records is the preloaded record count.
	Records int64
	// Ops is the total operation count across all threads.
	Ops int64
	// Threads is the number of worker goroutines.
	Threads int
	// Mix, Dist, Theta configure the YCSB generator.
	Mix   ycsb.Mix
	Dist  ycsb.Distribution
	Theta float64
	// Seed makes the run reproducible.
	Seed uint64
	// DeviceMode selects the device Run builds when Store is nil (see
	// DeviceConfig); the zero value is ModeModel, the fastest.
	DeviceMode nvm.Mode
	// RecordLatency enables per-op latency histograms (Figure 15).
	// Ignored when BatchSize > 1: a batch completes as a unit, so per-op
	// latencies inside it are not individually meaningful.
	RecordLatency bool
	// BatchSize, when > 1, drives the workload through the scheme's batch
	// operations: runs of consecutive reads drain through scheme.MultiGet
	// and runs of deletes through scheme.MultiDelete, up to BatchSize keys
	// per call. Schemes without a native BatchSession fall back to per-key
	// loops inside the scheme helpers, so the sweep is uniform. Inserts,
	// updates and read-modify-writes keep their per-op semantics and flush
	// any accumulated batch first.
	BatchSize int
	// skipPreload marks the store as already loaded with Records records
	// (experiments that reuse one store across several measurements).
	skipPreload bool
}

// Result is one run's outcome.
type Result struct {
	Scheme         string
	Records        int64
	Ops            int64
	Threads        int
	PreloadElapsed time.Duration
	Elapsed        time.Duration
	// ThroughputMops is completed operations per microsecond (= Mops/s).
	ThroughputMops float64
	// NVM aggregates all sessions' traffic during the op phase.
	NVM nvm.Stats
	// Latency is populated when Options.RecordLatency is set.
	Latency *histogram.Histogram
	// Misses counts ErrNotFound/ErrExists outcomes (expected under
	// random repeats); Failures counts hard errors (ErrFull etc.).
	Misses   int64
	Failures int64
}

// Run executes the workload and returns its Result.
func Run(o Options) (*Result, error) {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Records <= 0 {
		return nil, fmt.Errorf("harness: Records must be positive, got %d", o.Records)
	}
	if err := o.Mix.Validate(); err != nil {
		return nil, err
	}

	st := o.Store
	if st == nil {
		// Sized for the preload plus the inserts the mix expects.
		hint := o.Records + int64(float64(o.Ops)*o.Mix.Insert)
		dev, err := nvm.New(DeviceConfig(o.DeviceMode, DeviceWords(hint, 0)))
		if err != nil {
			return nil, err
		}
		st, err = scheme.Open(o.Scheme, dev, hint)
		if err != nil {
			return nil, err
		}
		defer st.Close()
	}

	res := &Result{Scheme: o.Scheme, Records: o.Records, Ops: o.Ops, Threads: o.Threads}
	if res.Scheme == "" {
		res.Scheme = st.Name()
	}

	// Preload phase: split the record range across threads.
	if !o.skipPreload {
		preStart := time.Now()
		if err := Preload(st, o.Records, o.Threads); err != nil {
			return nil, err
		}
		res.PreloadElapsed = time.Since(preStart)
	}

	if o.Ops == 0 {
		return res, nil
	}

	gen, err := ycsb.New(ycsb.Config{
		RecordCount:  o.Records,
		Mix:          o.Mix,
		Distribution: o.Dist,
		Theta:        o.Theta,
		Seed:         o.Seed,
	})
	if err != nil {
		return nil, err
	}
	perThread := o.Ops / int64(o.Threads)
	runOps(st, res, o.BatchSize, o.RecordLatency, func(ti int) (func() ycsb.Op, int64) {
		w := gen.Worker(ti)
		w.SetWorkers(o.Threads)
		n := perThread
		if ti == 0 {
			n += o.Ops % int64(o.Threads)
		}
		return w.Next, n
	})
	return res, nil
}

// runOps is the op phase Run and ReplayTrace share: one session per
// res.Threads worker, worker ti executing the n ops next yields for
// stream(ti) — through the batch runner when batch > 1 — with ErrNotFound
// and ErrExists counted as misses, any other error as a failure, and the
// sessions' NVM traffic summed into res. Throughput is res.Ops over the
// phase's wall-clock time.
func runOps(st scheme.Store, res *Result, batch int, latency bool, stream func(ti int) (next func() ycsb.Op, n int64)) {
	var misses, failures atomic.Int64
	count := func(err error) {
		switch {
		case err == nil:
		case errors.Is(err, scheme.ErrNotFound), errors.Is(err, scheme.ErrExists):
			misses.Add(1)
		default:
			failures.Add(1)
		}
	}
	sessions := make([]scheme.Session, res.Threads)
	hists := make([]*histogram.Histogram, res.Threads)
	before := make([]nvm.Stats, res.Threads)
	for i := range sessions {
		sessions[i] = st.NewSession()
		hists[i] = histogram.New()
		before[i] = sessions[i].NVMStats()
	}

	var wg sync.WaitGroup
	start := time.Now()
	for ti, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next, n := stream(ti)
			if batch > 1 {
				br := newBatchRunner(s, batch)
				for i := int64(0); i < n; i++ {
					br.do(next(), count)
				}
				br.flush(count)
				return
			}
			h := hists[ti]
			for i := int64(0); i < n; i++ {
				op := next()
				var opStart time.Time
				if latency {
					opStart = time.Now()
				}
				err := applyOp(s, op)
				if latency {
					h.RecordDuration(time.Since(opStart))
				}
				count(err)
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.ThroughputMops = float64(res.Ops) / res.Elapsed.Seconds() / 1e6
	res.Misses = misses.Load()
	res.Failures = failures.Load()
	for i, s := range sessions {
		res.NVM.Add(s.NVMStats().Sub(before[i]))
		s.Close()
	}
	if latency {
		res.Latency = histogram.MergeAll(hists)
	}
}

// applyOp executes one YCSB op through a session.
func applyOp(s scheme.Session, op ycsb.Op) error {
	switch op.Kind {
	case ycsb.OpInsert:
		return s.Insert(ycsb.InsertKey(op.Index), ycsb.ValueFor(op.Index))
	case ycsb.OpRead:
		_, ok := s.Get(ycsb.RecordKey(op.Index))
		if !ok {
			return scheme.ErrNotFound
		}
		return nil
	case ycsb.OpReadNegative:
		if _, ok := s.Get(ycsb.NegativeKey(op.Index)); ok {
			return fmt.Errorf("harness: negative key %d found", op.Index)
		}
		return nil
	case ycsb.OpUpdate:
		return s.Update(ycsb.RecordKey(op.Index), ycsb.ValueFor(op.Index+1))
	case ycsb.OpDelete:
		return s.Delete(ycsb.RecordKey(op.Index))
	case ycsb.OpReadModifyWrite:
		k := ycsb.RecordKey(op.Index)
		if _, ok := s.Get(k); !ok {
			return scheme.ErrNotFound
		}
		return s.Update(k, ycsb.ValueFor(op.Index+2))
	default:
		return fmt.Errorf("harness: unknown op kind %d", int(op.Kind))
	}
}

// batchRunner groups a YCSB op stream into scheme batch calls. Consecutive
// reads (positive and negative alike) accumulate into one MultiGet;
// consecutive deletes into one MultiDelete. Any other op kind — and a full
// buffer — flushes first, so observable per-op semantics match the
// singleton path exactly: a found negative key is a failure, an absent
// positive key a miss, a deleted-absent key a miss.
type batchRunner struct {
	s    scheme.Session
	size int

	kind  ycsb.OpKind // kind accumulated in keys; OpInsert means "empty"
	keys  []kv.Key
	neg   []bool // per queued read: true when absence is the success case
	vals  []kv.Value
	found []bool
	errs  []error
}

func newBatchRunner(s scheme.Session, size int) *batchRunner {
	return &batchRunner{
		s: s, size: size, kind: ycsb.OpInsert,
		keys:  make([]kv.Key, 0, size),
		neg:   make([]bool, 0, size),
		vals:  make([]kv.Value, size),
		found: make([]bool, size),
		errs:  make([]error, size),
	}
}

// do feeds one op, flushing whenever the accumulated run cannot absorb it.
func (br *batchRunner) do(op ycsb.Op, count func(error)) {
	batchable := op.Kind == ycsb.OpRead || op.Kind == ycsb.OpReadNegative || op.Kind == ycsb.OpDelete
	if !batchable {
		br.flush(count)
		count(applyOp(br.s, op))
		return
	}
	// Reads of both polarities share a MultiGet; a delete run is its own.
	group := op.Kind
	if group == ycsb.OpReadNegative {
		group = ycsb.OpRead
	}
	if len(br.keys) > 0 && br.kind != group {
		br.flush(count)
	}
	br.kind = group
	switch op.Kind {
	case ycsb.OpRead:
		br.keys = append(br.keys, ycsb.RecordKey(op.Index))
		br.neg = append(br.neg, false)
	case ycsb.OpReadNegative:
		br.keys = append(br.keys, ycsb.NegativeKey(op.Index))
		br.neg = append(br.neg, true)
	case ycsb.OpDelete:
		br.keys = append(br.keys, ycsb.RecordKey(op.Index))
	}
	if len(br.keys) >= br.size {
		br.flush(count)
	}
}

// flush drains the accumulated run through the scheme batch call.
func (br *batchRunner) flush(count func(error)) {
	n := len(br.keys)
	if n == 0 {
		return
	}
	switch br.kind {
	case ycsb.OpRead:
		scheme.MultiGet(br.s, br.keys, br.vals[:n], br.found[:n])
		for i := 0; i < n; i++ {
			switch {
			case br.neg[i] && br.found[i]:
				count(fmt.Errorf("harness: negative key found"))
			case !br.neg[i] && !br.found[i]:
				count(scheme.ErrNotFound)
			default:
				count(nil)
			}
		}
	case ycsb.OpDelete:
		scheme.MultiDelete(br.s, br.keys, br.errs[:n])
		for i := 0; i < n; i++ {
			count(br.errs[i])
		}
	}
	br.keys = br.keys[:0]
	br.neg = br.neg[:0]
	br.kind = ycsb.OpInsert
}

// maxProcs reports the scheduler parallelism available to the run.
func maxProcs() int { return runtime.GOMAXPROCS(0) }

// Preload inserts records [0, n) with `threads` goroutines.
func Preload(st scheme.Store, n int64, threads int) error {
	if threads <= 0 {
		threads = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	chunk := (n + int64(threads) - 1) / int64(threads)
	for ti := 0; ti < threads; ti++ {
		lo := int64(ti) * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			s := st.NewSession()
			defer s.Close()
			for i := lo; i < hi; i++ {
				if err := s.Insert(ycsb.RecordKey(i), ycsb.ValueFor(i)); err != nil {
					errCh <- fmt.Errorf("preload %d: %w", i, err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	return nil
}
