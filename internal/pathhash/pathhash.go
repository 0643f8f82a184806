// Package pathhash implements the PATH baseline: Path Hashing (Zuo & Hua,
// MSST '17) as the HDNH paper configures it — a static, write-friendly
// scheme whose collision stash is an inverted complete binary tree.
//
// The table is a leaf level of N single-record cells plus `reserved` levels
// above it; cell i at level d+1 is the shared parent of cells 2i and 2i+1 at
// level d. A key hashes to two leaf positions and may be stored in any cell
// on the two root-ward paths, so a lookup inspects at most 2*(reserved+1)
// cells — the O(log B) search cost the HDNH paper cites. There is no
// resizing: when both paths are full the insert fails (static hashing).
// The paper sets reserved = 8 for maximum load factor.
//
// Path Hashing predates fine-grained PM concurrency work; following its
// evaluation (and the poor scalability visible in Figure 14), concurrency
// control is one global reader-writer lock whose word lives in NVM, so
// every lock transition — reads included — costs an NVM write.
package pathhash

import (
	"errors"
	"fmt"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

const (
	slotWords = kv.SlotWords

	// ReservedLevels is the stash depth the paper configures.
	ReservedLevels = 8

	rootSlot  = 3
	metaWords = nvm.BlockWords
	metaMagic = uint64(0x5041544848415348) // "PATHHASH"
	magicWord = 0
	leafWord  = 1 // log2(leaf cells)
	baseWord  = 2 // table base offset
)

// Table is a Path Hashing instance.
type Table struct {
	scheme.Base
	dev      *nvm.Device
	metaOff  int64
	base     int64
	leafBits uint8
	leaves   int64
	cells    int64 // total cells across all levels

	lock scheme.NVMLock // the global lock, charged at the metadata block
}

var _ scheme.Store = (*Table)(nil)

// Options configures creation.
type Options struct {
	// LeafBits sets the leaf level to 2^LeafBits cells.
	LeafBits uint8
}

// New creates or opens a Path Hashing table.
func New(dev *nvm.Device, opts Options) (*Table, error) {
	t := &Table{Base: scheme.Base{Label: "PATH"}, dev: dev}
	h := dev.NewHandle()
	if root := dev.Root(rootSlot); root != 0 {
		t.metaOff = int64(root)
		if dev.Load(t.metaOff+magicWord) != metaMagic {
			return nil, errors.New("pathhash: metadata magic mismatch")
		}
		t.leafBits = uint8(dev.Load(t.metaOff + leafWord))
		t.base = int64(dev.Load(t.metaOff + baseWord))
		t.initGeometry()
		// One charged read per 32 cells: four media blocks at a time.
		t.Live.Store(scheme.CountValid(h, t.base, t.cells, 32))
		return t, nil
	}
	if opts.LeafBits == 0 {
		opts.LeafBits = 10
	}
	if opts.LeafBits <= ReservedLevels {
		return nil, fmt.Errorf("pathhash: leaf bits %d must exceed the %d reserved levels", opts.LeafBits, ReservedLevels)
	}
	t.leafBits = opts.LeafBits
	t.initGeometry()
	metaOff, err := dev.Alloc(h, metaWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	t.metaOff = metaOff
	base, err := dev.Alloc(h, t.cells*slotWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	t.base = base
	h.StorePersist(metaOff+leafWord, uint64(t.leafBits))
	h.StorePersist(metaOff+baseWord, uint64(base))
	h.StorePersist(metaOff+magicWord, metaMagic)
	dev.SetRoot(h, rootSlot, uint64(metaOff))
	return t, nil
}

func (t *Table) initGeometry() {
	t.leaves = 1 << t.leafBits
	// Levels d = 0..ReservedLevels, level d has leaves>>d cells.
	t.cells = 0
	for d := 0; d <= ReservedLevels; d++ {
		t.cells += t.leaves >> d
	}
}

// levelStart returns the cell index where level d begins (level 0 = leaves
// first, upper levels packed after).
func (t *Table) levelStart(d int) int64 {
	start := int64(0)
	for i := 0; i < d; i++ {
		start += t.leaves >> i
	}
	return start
}

// cellOff returns the NVM word offset of cell i at level d (i indexes
// within the level).
func (t *Table) cellOff(d int, i int64) int64 {
	return t.base + (t.levelStart(d)+i)*slotWords
}

// Capacity returns total cells.
func (t *Table) Capacity() int64 { return t.cells }

// LoadFactor returns occupancy.
func (t *Table) LoadFactor() float64 { return scheme.LoadFactor(t.Count(), t.cells) }

type session struct {
	scheme.DeviceSession
	t *Table
}

// NewSession returns a session.
func (t *Table) NewSession() scheme.Session {
	return &session{scheme.DeviceSession{H: t.dev.NewHandle()}, t}
}

// pathCells calls fn for every cell on the root-ward paths of the key's two
// leaf positions, charging one read per cell, stopping early when fn
// returns true.
func (t *Table) pathCells(h *nvm.Handle, k kv.Key, fn func(off int64, w [slotWords]uint64) bool) {
	h1, h2 := hashfn.Pair(k[:])
	p1 := int64(h1 % uint64(t.leaves))
	p2 := int64(h2 % uint64(t.leaves))
	if p2 == p1 {
		p2 = (p1 + 1) % t.leaves
	}
	visit := func(d int, i int64) bool {
		off := t.cellOff(d, i)
		return fn(off, scheme.ReadSlot(h, off))
	}
	for d := 0; d <= ReservedLevels; d++ {
		// Once the two paths merge, their shared cells are visited once.
		if visit(d, p1>>uint(d)) || p1>>uint(d) != p2>>uint(d) && visit(d, p2>>uint(d)) {
			return
		}
	}
}

// onKey walks the key's paths under the global lock, exclusive for a write
// (every transition, a read's included, is charged as an NVM write), and
// runs fn on the key's cell while the lock is held.
func (s *session) onKey(k kv.Key, exclusive bool, fn func(off int64, w [slotWords]uint64)) (found bool) {
	s.t.lock.Acquire(s.H, s.t.metaOff, exclusive)
	defer s.t.lock.Release(s.H, s.t.metaOff, exclusive)
	s.t.pathCells(s.H, k, func(off int64, w [slotWords]uint64) bool {
		found = kv.ValidOf(w[3]) && kv.KeyEqualsWords(k, w[0], w[1])
		if found {
			fn(off, w)
		}
		return found
	})
	return found
}

// Get walks both paths under the global read lock.
func (s *session) Get(k kv.Key) (v kv.Value, found bool) {
	found = s.onKey(k, scheme.Shared, func(_ int64, w [slotWords]uint64) {
		v, _ = kv.UnpackValue(w[2], w[3])
	})
	return v, found
}

// Insert stores the record in the first empty cell along either path.
// Static scheme: a full path pair means ErrFull.
func (s *session) Insert(k kv.Key, v kv.Value) error {
	s.t.lock.Acquire(s.H, s.t.metaOff, scheme.Exclusive)
	defer s.t.lock.Release(s.H, s.t.metaOff, scheme.Exclusive)
	emptyOff := int64(-1)
	dup := false
	s.t.pathCells(s.H, k, func(off int64, w [slotWords]uint64) bool {
		if !kv.ValidOf(w[3]) {
			if emptyOff < 0 {
				emptyOff = off
			}
			return false
		}
		dup = kv.KeyEqualsWords(k, w[0], w[1])
		return dup
	})
	if dup {
		return scheme.ErrExists
	}
	if emptyOff < 0 {
		return scheme.ErrFull
	}
	scheme.SlotCommit(s.H, emptyOff, k, v)
	s.t.Live.Add(1)
	return nil
}

// Update rewrites in place under the global write lock; like the other
// in-place baselines it is not crash-atomic for multi-word values (see the
// note on levelhash.Update).
func (s *session) Update(k kv.Key, v kv.Value) error {
	if !s.onKey(k, scheme.Exclusive, func(off int64, _ [slotWords]uint64) { scheme.SlotCommit(s.H, off, k, v) }) {
		return scheme.ErrNotFound
	}
	return nil
}

// Delete clears the valid bit under the global write lock.
func (s *session) Delete(k kv.Key) error {
	if !s.onKey(k, scheme.Exclusive, func(off int64, w [slotWords]uint64) { scheme.SlotClear(s.H, off, w[3]) }) {
		return scheme.ErrNotFound
	}
	s.t.Live.Add(-1)
	return nil
}

func init() {
	scheme.Register("PATH", func(dev *nvm.Device, capacityHint int64) (scheme.Store, error) {
		// Static: size the whole tree from the hint at ~50% target load
		// (leaf count >= hint, so total cells ≈ 2x hint).
		bits := uint8(ReservedLevels + 2)
		if capacityHint > 0 {
			for int64(1)<<bits < capacityHint && bits < 34 {
				bits++
			}
		}
		t, err := New(dev, Options{LeafBits: bits})
		if err != nil {
			return nil, err
		}
		return t, nil
	})
}
