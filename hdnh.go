// Package hdnh is the public facade of the HDNH reproduction: a
// read-efficient, write-optimized hash table for hybrid DRAM-NVM memory
// (Zhu et al., ICPP '21), together with the emulated persistent-memory
// device it runs on.
//
// Quick start:
//
//	dev, err := hdnh.NewDevice(hdnh.DeviceConfig(1 << 22))
//	store, err := hdnh.Create(dev, hdnh.DefaultOptions())
//	defer store.Close()
//	s := store.NewSession() // one per goroutine
//	err = s.Insert(hdnh.Key("user1"), hdnh.Value("v1"))
//	v, ok := s.Get(hdnh.Key("user1"))
//
// Set Options.Shards to split the keyspace across independent tables when
// one table's resize and lock domains become the bottleneck.
//
// The heavy lifting lives in the internal packages:
//
//   - internal/core — the HDNH scheme (non-volatile table, OCF, hot table,
//     RAFL, synchronous writes, optimistic concurrency, resize, recovery)
//   - internal/nvm — the Optane-behaviour device emulation
//   - internal/{levelhash,cceh,pathhash} — the paper's baselines
//   - internal/harness — regenerates every figure and table of the paper
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results.
package hdnh

import (
	"hdnh/internal/core"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// Re-exported core types. A Router is safe for concurrent use via
// per-goroutine RouterSessions.
type (
	// Router is an HDNH store: one table, or Options.Shards independent
	// tables behind a hash router.
	Router = core.Router
	// RouterSession is a per-goroutine handle on a Router.
	RouterSession = core.RouterSession
	// Options configures a Router.
	Options = core.Options
	// Replacer selects the hot-table replacement strategy.
	Replacer = core.Replacer
	// RecoveryStats describes what one shard's recovery rebuilt;
	// Router.LastRecovery returns one per shard.
	RecoveryStats = core.RecoveryStats
	// Device is the emulated NVM device.
	Device = nvm.Device
	// DeviceOptions configures the emulated device.
	DeviceOptions = nvm.Config
	// Metrics is an opt-in metrics registry; attach one via Options.Metrics
	// and scrape it with Router.MetricsSnapshot. See docs/OBSERVABILITY.md.
	Metrics = obs.Metrics
	// MetricsConfig configures a Metrics registry.
	MetricsConfig = obs.Config
	// MetricsSnapshot is a point-in-time copy of a registry's counters.
	MetricsSnapshot = obs.Snapshot
)

// Sentinel errors returned by RouterSession operations; test with errors.Is.
var (
	// ErrNotFound: the key was conclusively absent.
	ErrNotFound = scheme.ErrNotFound
	// ErrExists: Insert found the key already present.
	ErrExists = scheme.ErrExists
	// ErrFull: no free slot even after resizing was ruled out.
	ErrFull = scheme.ErrFull
	// ErrContended: the lookup retry budget exhausted under sustained record
	// movement — the key's presence could not be decided. Transient; retry.
	// (Get never returns it: it retries internally and never false-misses.)
	ErrContended = scheme.ErrContended
)

// NewMetrics creates a metrics registry to attach via Options.Metrics.
func NewMetrics(cfg MetricsConfig) *Metrics { return obs.New(cfg) }

// Replacement strategies.
const (
	RAFL = core.ReplacerRAFL
	LRU  = core.ReplacerLRU
)

// DefaultOptions returns the paper's tuned HDNH configuration (16KB
// segments, 4-slot hot buckets, RAFL, synchronous writes).
func DefaultOptions() Options { return core.DefaultOptions() }

// DeviceConfig returns a fast accounting-only device configuration with the
// given capacity in 8-byte words.
func DeviceConfig(words int64) DeviceOptions { return nvm.DefaultConfig(words) }

// EmulatedDeviceConfig returns a device configuration with the calibrated
// Optane latency/bandwidth profile enabled.
func EmulatedDeviceConfig(words int64) DeviceOptions { return nvm.EmulateConfig(words) }

// StrictDeviceConfig returns a device configuration that tracks cache-line
// persistence for crash-consistency testing.
func StrictDeviceConfig(words int64) DeviceOptions { return nvm.StrictConfig(words) }

// NewDevice creates an emulated NVM device.
func NewDevice(cfg DeviceOptions) (*Device, error) { return nvm.New(cfg) }

// DeviceFromImage boots a device from a previously persisted image (a crash
// snapshot or a SaveImage file), as a machine reboot would.
func DeviceFromImage(cfg DeviceOptions, image []uint64) (*Device, error) {
	return nvm.FromImage(cfg, image)
}

// Create formats a fresh store on the device: one table, or Options.Shards
// tables behind a hash router.
func Create(dev *Device, opts Options) (*Router, error) { return core.CreateRouter(dev, opts) }

// Open recovers the store on the device: it replays interrupted resizes and,
// after a crash, resolves torn updates, then returns while a sweep per shard
// rebuilds the OCF and hot table behind the serving store (an operation that
// reaches a segment first rebuilds it itself). Router.WaitRecovered waits
// for the sweeps. The persisted shard count is authoritative:
// Options.Shards=0 adopts it, any other mismatch fails with a clear error.
func Open(dev *Device, opts Options) (*Router, error) { return core.OpenRouter(dev, opts) }

// OpenOrCreate opens the store on the device or creates a fresh one.
func OpenOrCreate(dev *Device, opts Options) (*Router, error) {
	return core.OpenOrCreateRouter(dev, opts)
}

// Key builds a fixed-size key from a string of at most 16 bytes; longer
// input panics (use kv.MakeKey for the error-returning form).
func Key(s string) kv.Key { return kv.MustKey([]byte(s)) }

// Value builds a fixed-size value from a string of at most 15 bytes; longer
// input panics (use kv.MakeValue for the error-returning form).
func Value(s string) kv.Value { return kv.MustValue([]byte(s)) }
