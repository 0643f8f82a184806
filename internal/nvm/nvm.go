// Package nvm emulates an Intel Optane DC Persistent Memory (AEP) device in
// software.
//
// The emulation preserves the three AEP behaviours the HDNH paper's results
// depend on:
//
//  1. Access accounting at the granularities an AEP sees: 8-byte words for
//     program accesses, 64-byte cache lines for flushes, and 256-byte
//     "XPLine" media blocks for reads (the paper's read-amplification
//     argument). Counters are kept per Handle so concurrent workers never
//     share a cache line.
//  2. A latency/bandwidth model. In ModeEmulate every media block read,
//     cache-line flush, and fence costs a calibrated busy-wait, and reads and
//     writes draw from token buckets so the 1/3-read, 1/6-write bandwidth
//     ratio versus DRAM shows up as real stalls under concurrency.
//  3. Persistence semantics. In ModeStrict the device keeps a CPU-cache
//     overlay: stores land in the volatile view and only reach the persisted
//     image when flushed (CLWB) — or, on a crash, when the simulated cache
//     happens to evict them. Crash-consistency tests can therefore observe
//     every state a real power failure could produce.
//
// The device stores 64-bit words rather than bytes so that sync/atomic
// applies directly to the backing slice; all persistent structures in this
// repository are word-packed (see internal/kv).
package nvm

import (
	"fmt"
	"time"
)

// Fundamental device granularities, in words and bytes. A word is the unit
// of atomic access; a cache line is the unit of flushing; a block is the unit
// of media access on Optane (the "XPLine").
const (
	WordBytes      = 8
	CachelineBytes = 64
	CachelineWords = CachelineBytes / WordBytes
	BlockBytes     = 256
	BlockWords     = BlockBytes / WordBytes
)

// Mode selects how much machinery the device runs on each access.
type Mode int

const (
	// ModeModel counts accesses and accumulates modeled time, but performs
	// no delays and no persistence tracking. Fastest; the default for unit
	// tests and functional benchmarks.
	ModeModel Mode = iota
	// ModeEmulate additionally converts each media access into a calibrated
	// busy-wait and enforces read/write bandwidth token buckets. Used by the
	// throughput experiments so that NVM-access-heavy schemes pay real time.
	ModeEmulate
	// ModeStrict additionally tracks dirty cache lines against a separate
	// persisted image so tests can crash the device at arbitrary points.
	// Stores take a mutex; use it for correctness tests, not benchmarks.
	ModeStrict
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeModel:
		return "model"
	case ModeEmulate:
		return "emulate"
	case ModeStrict:
		return "strict"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Set parses a mode name exactly as String prints it, so a Mode backs a
// command-line flag through flag.Var.
func (m *Mode) Set(s string) error {
	for c := ModeModel; c <= ModeStrict; c++ {
		if c.String() == s {
			*m = c
			return nil
		}
	}
	return fmt.Errorf("unknown mode %q (want model, emulate or strict)", s)
}

// Config describes a device. The zero value is not valid; use DefaultConfig
// or EmulateConfig and adjust.
type Config struct {
	// Words is the device capacity in 8-byte words (includes the superblock).
	Words int64
	// Mode selects model/emulate/strict behaviour.
	Mode Mode

	// ReadLatency is charged per 256-byte media block touched by a read.
	// The Optane characterisation reports ~3x DRAM read latency; the default
	// emulate profile uses 300ns/block vs DRAM's effectively free access.
	ReadLatency time.Duration
	// WriteLatency is charged per cache line reaching the ADR domain, i.e.
	// per flushed line. Writes commit at the memory controller, so this is
	// similar to DRAM (default 100ns).
	WriteLatency time.Duration
	// FenceLatency is charged per Fence (SFENCE). Default 30ns.
	FenceLatency time.Duration

	// ReadBandwidth and WriteBandwidth, in bytes/second, bound sustained
	// throughput across all handles (0 = unlimited). AEP is ~1/3 DRAM read
	// bandwidth and ~1/6 DRAM write bandwidth.
	ReadBandwidth  int64
	WriteBandwidth int64

	// TrackWear enables per-block write counting (see WearStats). Costs
	// one atomic increment per flushed line.
	TrackWear bool

	// EvictProb is the probability, on a strict-mode crash, that a dirty
	// (unflushed) cache line was nonetheless written back by a cache
	// eviction before power was lost.
	EvictProb float64
	// Seed seeds the device RNG used for crash evictions.
	Seed uint64
}

// DefaultConfig returns a ModeModel configuration with the given capacity.
func DefaultConfig(words int64) Config {
	return Config{
		Words:        words,
		Mode:         ModeModel,
		ReadLatency:  300 * time.Nanosecond,
		WriteLatency: 100 * time.Nanosecond,
		FenceLatency: 30 * time.Nanosecond,
		EvictProb:    0.5,
		Seed:         1,
	}
}

// EmulateConfig returns a ModeEmulate configuration with the default Optane
// latency/bandwidth profile: 300ns per block read, 100ns per flushed line,
// 30ns per fence, 2 GB/s read and 1 GB/s write bandwidth. The absolute
// numbers matter less than their ratios; they reproduce the paper's "reads
// are the expensive operation" regime.
func EmulateConfig(words int64) Config {
	c := DefaultConfig(words)
	c.Mode = ModeEmulate
	c.ReadBandwidth = 2 << 30
	c.WriteBandwidth = 1 << 30
	return c
}

// StrictConfig returns a ModeStrict configuration for crash-consistency
// testing. Latency fields are kept but unused for delays.
func StrictConfig(words int64) Config {
	c := DefaultConfig(words)
	c.Mode = ModeStrict
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Words < SuperblockWords {
		return fmt.Errorf("nvm: capacity %d words is smaller than the %d-word superblock", c.Words, SuperblockWords)
	}
	if c.Words%BlockWords != 0 {
		return fmt.Errorf("nvm: capacity %d words is not a multiple of the %d-word block", c.Words, BlockWords)
	}
	if c.EvictProb < 0 || c.EvictProb > 1 {
		return fmt.Errorf("nvm: eviction probability %v outside [0,1]", c.EvictProb)
	}
	return nil
}
