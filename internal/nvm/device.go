package nvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// ErrNotStrict is returned by persistence-tracking operations when the device
// is not in ModeStrict.
var ErrNotStrict = errors.New("nvm: operation requires ModeStrict")

// Device is an emulated persistent-memory module. All program-visible data
// lives in words; in strict mode a separate persisted image tracks what has
// actually reached the ADR domain.
//
// Word-granular Load/Store/CAS are safe for concurrent use in model and
// emulate modes. Strict mode serialises stores with a mutex and is intended
// for single- or low-threaded correctness tests.
type Device struct {
	cfg   Config
	words []uint64

	readBW  *tokenBucket
	writeBW *tokenBucket

	allocMu sync.Mutex

	wear []uint64 // per-block flushed-line counts (nil unless TrackWear)

	// Strict-mode state.
	strictMu   sync.Mutex
	persisted  []uint64
	dirty      map[int64]struct{} // dirty cache-line indexes
	rngState   uint64
	crashAfter int64 // take a crash image when flush count reaches this (0 = disabled)
	flushCount int64
	crashImage []uint64

	// Global barrier counter (all modes): Flush calls plus drained
	// FlushBarriers, for tests and reporting. See TotalFlushes.
	totalFlushes atomic.Int64
}

// New creates a device, formats its superblock, and returns it.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:   cfg,
		words: make([]uint64, cfg.Words),
	}
	d.initBandwidth()
	if cfg.Mode == ModeStrict {
		d.persisted = make([]uint64, cfg.Words)
		d.dirty = make(map[int64]struct{})
		d.rngState = cfg.Seed | 1
	}
	if cfg.TrackWear {
		d.wear = make([]uint64, cfg.Words/BlockWords)
	}
	d.formatSuperblock()
	return d, nil
}

// FromImage creates a device whose contents are a previously persisted image
// (for example one produced by CrashImage or SaveImage). The image length
// must equal cfg.Words. The superblock is validated, not reformatted, so
// allocations and roots survive.
func FromImage(cfg Config, image []uint64) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int64(len(image)) != cfg.Words {
		return nil, fmt.Errorf("nvm: image has %d words, config wants %d", len(image), cfg.Words)
	}
	d := &Device{
		cfg:   cfg,
		words: make([]uint64, cfg.Words),
	}
	copy(d.words, image)
	d.initBandwidth()
	if cfg.Mode == ModeStrict {
		d.persisted = make([]uint64, cfg.Words)
		copy(d.persisted, image)
		d.dirty = make(map[int64]struct{})
		d.rngState = cfg.Seed | 1
	}
	if cfg.TrackWear {
		d.wear = make([]uint64, cfg.Words/BlockWords)
	}
	if err := d.checkSuperblock(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Device) initBandwidth() {
	if d.cfg.Mode == ModeEmulate {
		if d.cfg.ReadBandwidth > 0 {
			d.readBW = newTokenBucket(d.cfg.ReadBandwidth)
		}
		if d.cfg.WriteBandwidth > 0 {
			d.writeBW = newTokenBucket(d.cfg.WriteBandwidth)
		}
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Words returns the device capacity in words.
func (d *Device) Words() int64 { return d.cfg.Words }

// Mode returns the device mode.
func (d *Device) Mode() Mode { return d.cfg.Mode }

// Load atomically reads the word at index w. It performs no accounting; use
// Handle.ReadAccess around groups of loads.
func (d *Device) Load(w int64) uint64 {
	return atomic.LoadUint64(&d.words[w])
}

// Store atomically writes the word at index w. In strict mode the containing
// cache line becomes dirty and will not survive a crash until flushed.
func (d *Device) Store(w int64, v uint64) {
	atomic.StoreUint64(&d.words[w], v)
	if d.cfg.Mode == ModeStrict {
		d.strictMu.Lock()
		d.dirty[w/CachelineWords] = struct{}{}
		d.strictMu.Unlock()
	}
}

// CAS atomically compares-and-swaps the word at index w.
func (d *Device) CAS(w int64, old, new uint64) bool {
	ok := atomic.CompareAndSwapUint64(&d.words[w], old, new)
	if ok && d.cfg.Mode == ModeStrict {
		d.strictMu.Lock()
		d.dirty[w/CachelineWords] = struct{}{}
		d.strictMu.Unlock()
	}
	return ok
}

// Add atomically adds delta to the word at index w and returns the new value.
func (d *Device) Add(w int64, delta uint64) uint64 {
	v := atomic.AddUint64(&d.words[w], delta)
	if d.cfg.Mode == ModeStrict {
		d.strictMu.Lock()
		d.dirty[w/CachelineWords] = struct{}{}
		d.strictMu.Unlock()
	}
	return v
}

// persistLines copies the cache lines covering [w, w+n) from the volatile
// view to the persisted image and clears their dirty marks. Called by
// Handle.Flush in strict mode.
func (d *Device) persistLines(w, n int64) {
	first := w / CachelineWords
	last := (w + n - 1) / CachelineWords
	d.strictMu.Lock()
	for line := first; line <= last; line++ {
		base := line * CachelineWords
		end := base + CachelineWords
		if end > d.cfg.Words {
			end = d.cfg.Words
		}
		for i := base; i < end; i++ {
			d.persisted[i] = atomic.LoadUint64(&d.words[i])
		}
		delete(d.dirty, line)
	}
	d.flushCount++
	if d.crashAfter > 0 && d.flushCount >= d.crashAfter && d.crashImage == nil {
		d.crashImage = d.snapshotLocked()
	}
	d.strictMu.Unlock()
}

// nextRand advances the strict-mode xorshift RNG.
func (d *Device) nextRand() uint64 {
	x := d.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	d.rngState = x
	return x
}

// snapshotLocked returns a copy of the persisted image with each currently
// dirty line independently written back with probability EvictProb,
// simulating cache evictions racing the power failure. Caller holds strictMu.
func (d *Device) snapshotLocked() []uint64 {
	img := make([]uint64, d.cfg.Words)
	copy(img, d.persisted)
	threshold := uint64(d.cfg.EvictProb * (1 << 32))
	for line := range d.dirty {
		if d.nextRand()&0xffffffff >= threshold {
			continue
		}
		base := line * CachelineWords
		end := base + CachelineWords
		if end > d.cfg.Words {
			end = d.cfg.Words
		}
		for i := base; i < end; i++ {
			img[i] = atomic.LoadUint64(&d.words[i])
		}
	}
	return img
}

// Crash simulates a power failure: unflushed lines are lost except for a
// random EvictProb fraction that the cache happened to write back. The
// device's volatile view is reset to the post-crash persisted image, as if
// the machine rebooted. Only valid in strict mode.
func (d *Device) Crash() error {
	if d.cfg.Mode != ModeStrict {
		return ErrNotStrict
	}
	d.strictMu.Lock()
	img := d.snapshotLocked()
	copy(d.persisted, img)
	for i := range d.words {
		atomic.StoreUint64(&d.words[i], img[i])
	}
	d.dirty = make(map[int64]struct{})
	d.strictMu.Unlock()
	return nil
}

// SetCrashAfterFlushes arms a crash point: when the n-th subsequent flush
// completes, the device records a crash image (persisted state plus random
// evictions) without interrupting execution. Retrieve it with CrashImage.
// Only valid in strict mode.
func (d *Device) SetCrashAfterFlushes(n int64) error {
	if d.cfg.Mode != ModeStrict {
		return ErrNotStrict
	}
	d.strictMu.Lock()
	d.crashAfter = d.flushCount + n
	d.crashImage = nil
	d.strictMu.Unlock()
	return nil
}

// CrashImage returns the armed crash image, or nil if the crash point has
// not been reached yet.
func (d *Device) CrashImage() []uint64 {
	d.strictMu.Lock()
	defer d.strictMu.Unlock()
	if d.crashImage == nil {
		return nil
	}
	img := make([]uint64, len(d.crashImage))
	copy(img, d.crashImage)
	return img
}

// PersistedImage returns a copy of the persisted image (strict mode), or of
// the live words (other modes, where every store is considered durable).
func (d *Device) PersistedImage() []uint64 {
	img := make([]uint64, d.cfg.Words)
	if d.cfg.Mode == ModeStrict {
		d.strictMu.Lock()
		copy(img, d.persisted)
		d.strictMu.Unlock()
		return img
	}
	for i := range img {
		img[i] = atomic.LoadUint64(&d.words[i])
	}
	return img
}

// DirtyLines reports how many cache lines are dirty (strict mode only).
func (d *Device) DirtyLines() int {
	if d.cfg.Mode != ModeStrict {
		return 0
	}
	d.strictMu.Lock()
	defer d.strictMu.Unlock()
	return len(d.dirty)
}

// TotalFlushes reports the persist barriers issued across all handles: every
// Flush call and every FlushBarrier that drained staged lines (however many
// lines each covered). It is what a writer waits on the device for, and the
// count write_amp is built from; PersistCalls counts the write-backs instead.
func (d *Device) TotalFlushes() int64 { return d.totalFlushes.Load() }

// PersistCalls returns how many strict-mode line write-back calls the
// device has absorbed — the granularity SetCrashAfterFlushes counts in.
// Unlike TotalFlushes it advances once per Flush or StageFlush call, not
// once per drained barrier, so crash sweeps built on it land between
// individual staged write-backs inside a group commit.
func (d *Device) PersistCalls() int64 {
	d.strictMu.Lock()
	defer d.strictMu.Unlock()
	return d.flushCount
}

const imageMagic = uint64(0x48444e48494d4721) // "HDNHIMG!"

// SaveImage writes the persisted image to w in a simple framed format.
func (d *Device) SaveImage(w io.Writer) error {
	img := d.PersistedImage()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], imageMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(img)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nvm: writing image header: %w", err)
	}
	buf := make([]byte, 8*4096)
	for off := 0; off < len(img); off += 4096 {
		end := off + 4096
		if end > len(img) {
			end = len(img)
		}
		n := 0
		for _, v := range img[off:end] {
			binary.LittleEndian.PutUint64(buf[n:], v)
			n += 8
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return fmt.Errorf("nvm: writing image body: %w", err)
		}
	}
	return nil
}

// LoadImageFile reads an image previously written by SaveImage.
func LoadImageFile(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadImage(f)
}

// ReadImage reads a framed image from r.
func ReadImage(r io.Reader) ([]uint64, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nvm: reading image header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != imageMagic {
		return nil, errors.New("nvm: bad image magic")
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	if n > (1 << 34) {
		return nil, fmt.Errorf("nvm: unreasonable image size %d words", n)
	}
	img := make([]uint64, n)
	buf := make([]byte, 8*4096)
	for off := uint64(0); off < n; {
		chunk := uint64(4096)
		if off+chunk > n {
			chunk = n - off
		}
		if _, err := io.ReadFull(r, buf[:8*chunk]); err != nil {
			return nil, fmt.Errorf("nvm: reading image body: %w", err)
		}
		for i := uint64(0); i < chunk; i++ {
			img[off+i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		off += chunk
	}
	return img, nil
}
