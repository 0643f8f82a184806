package core

import (
	"fmt"
	"sync/atomic"

	"hdnh/internal/flight"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// defaultMetrics is the registry scheme-factory-built tables record into.
// The registry's Factory signature cannot carry per-call options, so tools
// that want observability on "scheme.Open" tables (hdnhbench -metrics,
// hdnhserve) install a registry here before opening the store.
var defaultMetrics atomic.Pointer[obs.Metrics]

// SetDefaultMetrics installs (or, with nil, removes) the metrics registry
// future factory-built tables use. Tables already open are unaffected.
func SetDefaultMetrics(m *obs.Metrics) { defaultMetrics.Store(m) }

// DefaultMetrics returns the currently installed registry, nil when none.
func DefaultMetrics() *obs.Metrics { return defaultMetrics.Load() }

// defaultFlight mirrors defaultMetrics for the flight recorder: tools that
// want tracing on factory-built tables (hdnhbench -flight-out) install one
// here before opening the store.
var defaultFlight atomic.Pointer[flight.Recorder]

// SetDefaultFlight installs (or, with nil, removes) the flight recorder
// future factory-built tables trace into. Tables already open are unaffected.
func SetDefaultFlight(r *flight.Recorder) { defaultFlight.Store(r) }

// DefaultFlight returns the currently installed flight recorder, nil when
// none.
func DefaultFlight() *flight.Recorder { return defaultFlight.Load() }

// The scheme registry entries the benchmark harness sweeps. "HDNH" is the
// paper's tuned configuration; the suffixed variants isolate one design
// choice each for the sensitivity and ablation experiments.
func init() {
	register := func(name string, mutate func(*Options)) {
		scheme.Register(name, func(dev *nvm.Device, capacityHint int64) (scheme.Store, error) {
			opts := DefaultOptions()
			opts.InitBottomSegments = sizeBottomSegments(capacityHint, opts.SegmentBuckets)
			opts.Metrics = defaultMetrics.Load()
			opts.Flight = defaultFlight.Load()
			if mutate != nil {
				mutate(&opts)
			}
			r, err := OpenOrCreateRouter(dev, opts)
			if err != nil {
				return nil, err
			}
			return &routerAdapter{r: r, name: name}, nil
		})
	}
	register("HDNH", nil)
	register("HDNH-LRU", func(o *Options) { o.Replacer = ReplacerLRU })
	register("HDNH-NOHOT", func(o *Options) { o.HotSlotsPerBucket = 0 })
	register("HDNH-DISPLACE", func(o *Options) { o.DisplaceOnInsert = true })
}

// sizeBottomSegments picks M so a capacityHint-record load lands around 60%
// load factor without resizing: total slots = (2M + M) * m * SlotsPerBucket.
func sizeBottomSegments(hint int64, m int) int {
	if hint <= 0 {
		return 1
	}
	slotsWanted := hint * 10 / 6
	perSegment := int64(m) * SlotsPerBucket
	segs := (slotsWanted + 3*perSegment - 1) / (3 * perSegment)
	if segs < 1 {
		segs = 1
	}
	return int(segs)
}

// SizeBottomSegments picks the paper's M for a planned record count the way
// the scheme registry does (~60% load factor without resizing) — exported so
// tools that build tables or routers directly (cmd/hdnhycsb -shards,
// cmd/hdnhserve) size them consistently with factory-built stores.
func SizeBottomSegments(hint int64, m int) int { return sizeBottomSegments(hint, m) }

// NewRouterStore wraps a Router in the scheme interface, so the harness can
// sweep shard counts and HDNH-specific options the registry fixes.
func NewRouterStore(r *Router) scheme.Store { return &routerAdapter{r: r} }

// routerAdapter exposes a Router through the scheme interface.
type routerAdapter struct {
	r    *Router
	name string // the registered name; empty for NewRouterStore
}

var _ scheme.Store = (*routerAdapter)(nil)

// Name is the name the registry opened the store under, or, for a store
// from NewRouterStore, HDNH or HDNH-S<n> for an n-shard router.
func (a *routerAdapter) Name() string {
	if a.name != "" {
		return a.name
	}
	if n := a.r.NumShards(); n > 1 {
		return fmt.Sprintf("HDNH-S%d", n)
	}
	return "HDNH"
}
func (a *routerAdapter) NewSession() scheme.Session {
	return &routerSessionAdapter{s: a.r.NewSession()}
}
func (a *routerAdapter) Count() int64        { return a.r.Count() }
func (a *routerAdapter) Capacity() int64     { return a.r.Capacity() }
func (a *routerAdapter) LoadFactor() float64 { return a.r.LoadFactor() }
func (a *routerAdapter) Close() error        { return a.r.Close() }

type routerSessionAdapter struct{ s *RouterSession }

var (
	_ scheme.Session      = (*routerSessionAdapter)(nil)
	_ scheme.BatchSession = (*routerSessionAdapter)(nil)
)

func (sa *routerSessionAdapter) Insert(k kv.Key, v kv.Value) error { return sa.s.Insert(k, v) }
func (sa *routerSessionAdapter) Get(k kv.Key) (kv.Value, bool)     { return sa.s.Get(k) }
func (sa *routerSessionAdapter) Update(k kv.Key, v kv.Value) error { return sa.s.Update(k, v) }
func (sa *routerSessionAdapter) Delete(k kv.Key) error             { return sa.s.Delete(k) }
func (sa *routerSessionAdapter) Close() error                      { return sa.s.Close() }

func (sa *routerSessionAdapter) MultiGet(keys []kv.Key, vals []kv.Value, found []bool) int {
	return sa.s.MultiGet(keys, vals, found)
}
func (sa *routerSessionAdapter) MultiPut(keys []kv.Key, vals []kv.Value, errs []error) int {
	return sa.s.MultiPut(keys, vals, errs)
}
func (sa *routerSessionAdapter) MultiDelete(keys []kv.Key, errs []error) int {
	return sa.s.MultiDelete(keys, errs)
}

// NVMStats doubles as the harness's per-worker checkpoint, so it also
// bridges the handle-local device counters into the metrics registry.
func (sa *routerSessionAdapter) NVMStats() nvm.Stats {
	sa.s.SyncObs()
	return sa.s.NVMStats()
}
