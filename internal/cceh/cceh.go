// Package cceh implements the CCEH baseline: Cacheline-Conscious Extendible
// Hashing (Nam et al., FAST '19) as the HDNH paper configures it — 16KB
// segments, 64-byte buckets, linear probing across 4 buckets, lazy deletion,
// dynamic growth through segment splits and directory doubling.
//
// The directory and segments live in NVM; there is no DRAM metadata, so
// every probe is NVM read traffic. Concurrency control is the coarse
// segment-grained reader-writer lock the HDNH paper criticises: every
// operation — including reads — performs a lock-word transition that is
// charged as an NVM write, and writers serialise whole 16KB segments.
package cceh

import (
	"errors"
	"fmt"
	"sync"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

// Geometry per the paper's comparison setup: 16KB segments of 64-byte
// buckets (two 32-byte slots each), linear probing over 4 buckets.
const (
	slotWords          = kv.SlotWords
	slotsPerBucket     = 2
	bucketWords        = slotsPerBucket * slotWords // 64 bytes
	segmentHeaderWords = nvm.BlockWords             // local depth + padding
	bucketsPerSegment  = 256                        // 256 * 64B = 16KB of data
	segmentWords       = segmentHeaderWords + bucketsPerSegment*bucketWords
	linearProbe        = 4
	maxGlobalDepth     = 28
)

// Persistent layout (root slot 2):
//
//	meta word 0  magic
//	meta word 1  state: globalDepth | generation (atomic switch)
//	meta word 2  directory pointer (word offset of the live directory)
//
// A directory is an array of 2^globalDepth segment base offsets. A segment
// starts with a header block whose word 0 is the local depth.
const (
	rootSlot  = 2
	metaWords = nvm.BlockWords
	metaMagic = uint64(0x4343454853454748) // "CCEHSEGH"
	magicWord = 0
	stateWord = 1
	dirWord   = 2
)

// segment is the DRAM mirror of one NVM segment: base offset, cached local
// depth, and the coarse segment lock (charged at the segment's base).
type segment struct {
	base       int64
	localDepth uint8
	lock       scheme.NVMLock
}

// Table is a CCEH instance.
type Table struct {
	scheme.Base
	dev     *nvm.Device
	metaOff int64
	dramDir bool

	dirMu       sync.RWMutex
	dir         []*segment // DRAM mirror of the NVM directory
	globalDepth uint8
}

var _ scheme.Store = (*Table)(nil)

// Options configures creation.
type Options struct {
	// InitGlobalDepth is the starting directory depth (2^depth segments).
	InitGlobalDepth uint8
	// DRAMDirectory serves directory lookups from the DRAM mirror without
	// charging NVM reads — the HMEH-style "flat-structured directory in
	// DRAM" the HDNH paper describes in §2.3 (registered as CCEH-DRAMDIR).
	// The NVM directory is still maintained for recovery.
	DRAMDirectory bool
}

// New creates or opens a CCEH table on the device.
func New(dev *nvm.Device, opts Options) (*Table, error) {
	t := &Table{Base: scheme.Base{Label: "CCEH"}, dev: dev, dramDir: opts.DRAMDirectory}
	h := dev.NewHandle()
	if root := dev.Root(rootSlot); root != 0 {
		t.metaOff = int64(root)
		if dev.Load(t.metaOff+magicWord) != metaMagic {
			return nil, errors.New("cceh: metadata magic mismatch")
		}
		if err := t.loadDirectory(h); err != nil {
			return nil, err
		}
		for _, seg := range t.segments() {
			t.Live.Add(scheme.CountValid(h, seg.base+segmentHeaderWords, bucketsPerSegment*slotsPerBucket, slotsPerBucket))
		}
		return t, nil
	}
	if opts.InitGlobalDepth > maxGlobalDepth {
		return nil, fmt.Errorf("cceh: global depth %d too large", opts.InitGlobalDepth)
	}
	metaOff, err := dev.Alloc(h, metaWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	t.metaOff = metaOff
	t.globalDepth = opts.InitGlobalDepth
	n := int64(1) << t.globalDepth
	dirOff, err := dev.Alloc(h, n, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	t.dir = make([]*segment, n)
	for i := int64(0); i < n; i++ {
		segBase, err := t.allocSegment(h, t.globalDepth)
		if err != nil {
			return nil, err
		}
		h.Store(dirOff+i, uint64(segBase))
		t.dir[i] = &segment{base: segBase, localDepth: t.globalDepth}
	}
	scheme.Persist(h, dirOff, n)
	h.StorePersist(metaOff+dirWord, uint64(dirOff))
	t.setState(h, uint64(t.globalDepth)|1<<16)
	h.StorePersist(metaOff+magicWord, metaMagic)
	dev.SetRoot(h, rootSlot, uint64(metaOff))
	return t, nil
}

func (t *Table) allocSegment(h *nvm.Handle, depth uint8) (int64, error) {
	base, err := t.dev.Alloc(h, segmentWords, nvm.BlockWords)
	if err != nil {
		return 0, fmt.Errorf("%w: cceh segment: %v", scheme.ErrFull, err)
	}
	h.StorePersist(base, uint64(depth))
	return base, nil
}

func (t *Table) setState(h *nvm.Handle, s uint64) { h.StorePersist(t.metaOff+stateWord, s) }

func (t *Table) loadDirectory(h *nvm.Handle) error {
	st := t.dev.Load(t.metaOff + stateWord)
	t.globalDepth = uint8(st)
	if t.globalDepth > maxGlobalDepth {
		return fmt.Errorf("cceh: corrupt global depth %d", t.globalDepth)
	}
	dirOff := int64(t.dev.Load(t.metaOff + dirWord))
	n := int64(1) << t.globalDepth
	h.ReadAccess(dirOff, n)
	t.dir = make([]*segment, n)
	byBase := map[int64]*segment{}
	for i := int64(0); i < n; i++ {
		base := int64(t.dev.Load(dirOff + i))
		seg, ok := byBase[base]
		if !ok {
			h.ReadAccess(base, 1)
			seg = &segment{base: base, localDepth: uint8(t.dev.Load(base))}
			byBase[base] = seg
		}
		t.dir[i] = seg
	}
	return nil
}

// segments lists the directory's distinct segments in directory order.
func (t *Table) segments() []*segment {
	seen := map[*segment]bool{}
	var segs []*segment
	for _, seg := range t.dir {
		if !seen[seg] {
			seen[seg] = true
			segs = append(segs, seg)
		}
	}
	return segs
}

// dirIndex is the directory entry owning hash h1: its globalDepth MSBs.
func (t *Table) dirIndex(h1 uint64) int64 {
	if t.globalDepth == 0 {
		return 0
	}
	return int64(h1 >> (64 - t.globalDepth))
}

// segmentFor returns the segment owning hash h1 under the current directory.
// The directory entry read is charged as NVM traffic (CCEH's directory
// lives in NVM).
func (t *Table) segmentFor(h *nvm.Handle, h1 uint64) *segment {
	idx := t.dirIndex(h1)
	if !t.dramDir {
		dirOff := int64(t.dev.Load(t.metaOff + dirWord))
		h.ReadAccess(dirOff+idx, 1)
	}
	return t.dir[idx]
}

// bucketIndex maps a hash to its home bucket inside a segment.
func bucketIndex(h1 uint64) int64 { return int64(h1 & 0xffffffff % bucketsPerSegment) }

func slotOff(segBase, bucket int64, slot int) int64 {
	return segBase + segmentHeaderWords + bucket*bucketWords + int64(slot)*slotWords
}

// Capacity returns total slots under the current directory (distinct
// segments only).
func (t *Table) Capacity() int64 {
	t.dirMu.RLock()
	defer t.dirMu.RUnlock()
	return int64(len(t.segments())) * bucketsPerSegment * slotsPerBucket
}

// LoadFactor returns occupancy.
func (t *Table) LoadFactor() float64 { return scheme.LoadFactor(t.Count(), t.Capacity()) }

type session struct {
	scheme.DeviceSession
	t *Table
}

// NewSession returns a session.
func (t *Table) NewSession() scheme.Session {
	return &session{scheme.DeviceSession{H: t.dev.NewHandle()}, t}
}

// probe visits the home bucket and its linear-probe successors, charging one
// read per bucket, calling fn for each slot until it returns true.
func probe(h *nvm.Handle, segBase int64, home int64, fn func(off int64, w3 uint64) bool) {
	for p := int64(0); p < linearProbe; p++ {
		b := (home + p) % bucketsPerSegment
		h.ReadAccess(slotOff(segBase, b, 0), bucketWords)
		for sl := 0; sl < slotsPerBucket; sl++ {
			off := slotOff(segBase, b, sl)
			if fn(off, h.Load(off+3)) {
				return
			}
		}
	}
}

// onKey runs fn on the key's slot, if its segment holds it, with the
// directory read-locked and the segment lock held (exclusive for a write;
// every transition, a read's included, is charged as an NVM write).
func (s *session) onKey(k kv.Key, exclusive bool, fn func(off int64, w3 uint64)) (found bool) {
	h1 := hashfn.Hash1(k[:])
	s.t.dirMu.RLock()
	defer s.t.dirMu.RUnlock()
	seg := s.t.segmentFor(s.H, h1)
	seg.lock.Acquire(s.H, seg.base, exclusive)
	defer seg.lock.Release(s.H, seg.base, exclusive)
	probe(s.H, seg.base, bucketIndex(h1), func(off int64, w3 uint64) bool {
		if kv.ValidOf(w3) && kv.KeyEqualsWords(k, s.H.Load(off), s.H.Load(off+1)) {
			fn(off, w3)
			found = true
		}
		return found
	})
	return found
}

// Get searches under the segment's read lock.
func (s *session) Get(k kv.Key) (v kv.Value, found bool) {
	found = s.onKey(k, scheme.Shared, func(off int64, w3 uint64) {
		v, _ = kv.UnpackValue(s.H.Load(off+2), w3)
	})
	return v, found
}

// Insert adds a record, splitting the segment (and possibly doubling the
// directory) when the probe window is full.
func (s *session) Insert(k kv.Key, v kv.Value) error {
	h1 := hashfn.Hash1(k[:])
	for attempt := 0; attempt < 64; attempt++ {
		s.t.dirMu.RLock()
		seg := s.t.segmentFor(s.H, h1)
		seg.lock.Acquire(s.H, seg.base, scheme.Exclusive)
		// Re-check the directory under the segment lock: a concurrent
		// split may have moved our hash range.
		moved := s.t.segmentFor(s.H, h1) != seg
		emptyOff, dup := int64(-1), false
		if !moved {
			probe(s.H, seg.base, bucketIndex(h1), func(off int64, w3 uint64) bool {
				if !kv.ValidOf(w3) {
					if emptyOff < 0 {
						emptyOff = off
					}
					return false
				}
				dup = kv.KeyEqualsWords(k, s.H.Load(off), s.H.Load(off+1))
				return dup
			})
			if !dup && emptyOff >= 0 {
				scheme.SlotCommit(s.H, emptyOff, k, v)
			}
		}
		seg.lock.Release(s.H, seg.base, scheme.Exclusive)
		s.t.dirMu.RUnlock()
		switch {
		case moved:
			continue
		case dup:
			return scheme.ErrExists
		case emptyOff >= 0:
			s.t.Live.Add(1)
			return nil
		}
		if err := s.t.split(s.H, h1); err != nil {
			return err
		}
	}
	return scheme.ErrFull
}

// Update rewrites in place under the segment write lock. As with the other
// in-place baselines, a multi-word value rewrite is not crash-atomic (see
// the note on levelhash.Update); CCEH's published design shares this
// property for values wider than 8 bytes.
func (s *session) Update(k kv.Key, v kv.Value) error {
	if !s.onKey(k, scheme.Exclusive, func(off int64, _ uint64) { scheme.SlotCommit(s.H, off, k, v) }) {
		return scheme.ErrNotFound
	}
	return nil
}

// Delete is lazy: the valid bit is cleared, space is reclaimed by later
// inserts.
func (s *session) Delete(k kv.Key) error {
	if !s.onKey(k, scheme.Exclusive, func(off int64, w3 uint64) { scheme.SlotClear(s.H, off, w3) }) {
		return scheme.ErrNotFound
	}
	s.t.Live.Add(-1)
	return nil
}

// split divides the segment owning h1 into two segments with local depth+1,
// doubling the directory first when the segment is already at global depth.
func (t *Table) split(h *nvm.Handle, h1 uint64) error {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()

	old := t.dir[t.dirIndex(h1)]
	if old.localDepth == t.globalDepth {
		if err := t.doubleDirectory(h); err != nil {
			return err
		}
	}
	idx := t.dirIndex(h1)
	old = t.dir[idx]

	newDepth := old.localDepth + 1
	leftBase, err := t.allocSegment(h, newDepth)
	if err != nil {
		return err
	}
	rightBase, err := t.allocSegment(h, newDepth)
	if err != nil {
		return err
	}

	// Redistribute by the newDepth-th MSB of each record's hash.
	err = scheme.Scan(h, old.base+segmentHeaderWords, bucketsPerSegment*slotsPerBucket, slotsPerBucket, func(k kv.Key, v kv.Value) error {
		kh := hashfn.Hash1(k[:])
		dst := leftBase
		if kh>>(64-newDepth)&1 == 1 {
			dst = rightBase
		}
		if !placeLinear(h, dst, kh, k, v) {
			return fmt.Errorf("%w: cceh split redistribution overflow", scheme.ErrFull)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Update every directory entry that pointed at the old segment. The
	// entries form a contiguous aligned run of length 2^(gd - oldDepth).
	dirOff := int64(t.dev.Load(t.metaOff + dirWord))
	run := int64(1) << (t.globalDepth - old.localDepth)
	start := idx &^ (run - 1)
	left := &segment{base: leftBase, localDepth: newDepth}
	right := &segment{base: rightBase, localDepth: newDepth}
	for i := int64(0); i < run; i++ {
		seg := left
		if i >= run/2 {
			seg = right
		}
		t.dir[start+i] = seg
		h.Store(dirOff+start+i, uint64(seg.base))
	}
	scheme.Persist(h, dirOff+start, run)
	return nil
}

func placeLinear(h *nvm.Handle, segBase int64, kh uint64, k kv.Key, v kv.Value) (placed bool) {
	probe(h, segBase, bucketIndex(kh), func(off int64, w3 uint64) bool {
		if !kv.ValidOf(w3) {
			scheme.SlotCommit(h, off, k, v)
			placed = true
		}
		return placed
	})
	return placed
}

// doubleDirectory allocates a directory twice the size, duplicates every
// entry, persists it, and switches the live pointer atomically.
func (t *Table) doubleDirectory(h *nvm.Handle) error {
	if t.globalDepth+1 > maxGlobalDepth {
		return fmt.Errorf("%w: directory at max depth", scheme.ErrFull)
	}
	oldN := int64(1) << t.globalDepth
	newN := oldN * 2
	newOff, err := t.dev.Alloc(h, newN, nvm.BlockWords)
	if err != nil {
		return fmt.Errorf("%w: cceh directory doubling: %v", scheme.ErrFull, err)
	}
	newDir := make([]*segment, newN)
	for i := int64(0); i < oldN; i++ {
		newDir[2*i] = t.dir[i]
		newDir[2*i+1] = t.dir[i]
		h.Store(newOff+2*i, uint64(t.dir[i].base))
		h.Store(newOff+2*i+1, uint64(t.dir[i].base))
	}
	scheme.Persist(h, newOff, newN)
	h.StorePersist(t.metaOff+dirWord, uint64(newOff))
	t.globalDepth++
	t.setState(h, uint64(t.globalDepth)|(t.dev.Load(t.metaOff+stateWord)>>16+1)<<16)
	t.dir = newDir
	return nil
}

func init() {
	register := func(name string, dramDir bool) {
		scheme.Register(name, func(dev *nvm.Device, capacityHint int64) (scheme.Store, error) {
			depth := uint8(1)
			if capacityHint > 0 {
				perSeg := int64(bucketsPerSegment * slotsPerBucket)
				// Linear probing saturates well below 100%; size for ~50%.
				for (int64(1)<<depth)*perSeg/2 < capacityHint && depth < maxGlobalDepth {
					depth++
				}
			}
			t, err := New(dev, Options{InitGlobalDepth: depth, DRAMDirectory: dramDir})
			if err != nil {
				return nil, err
			}
			t.Label = name
			return t, nil
		})
	}
	register("CCEH", false)
	// The HMEH-like variant: identical layout, directory reads served from
	// DRAM (paper §2.3's point about HMEH's lower search latency).
	register("CCEH-DRAMDIR", true)
}
