// Package levelhash implements the LEVEL baseline: Level Hashing (Zuo, Hua,
// Wu — OSDI '18) as the HDNH paper configures it.
//
// Structure: two NVM-resident levels, the top with 2x the buckets of the
// bottom; every key has two candidate buckets per level (one per hash
// function). Inserts try all four candidates, then a single in-level cuckoo
// displacement, then the bottom-to-top eviction, and finally trigger a
// resize that allocates a 2x top level and rehashes the old bottom level
// into it (the old top is reused as the new bottom without rehashing).
//
// Concurrency follows the HDNH paper's description of LEVEL: slot-grained
// reader-writer locks plus a global resize lock. The lock words conceptually
// live in NVM next to their slots, so acquiring or releasing any lock —
// including a read lock — is charged as an 8-byte NVM write; this is exactly
// the bandwidth tax the HDNH paper criticises, and it is why LEVEL's search
// throughput collapses under concurrency in Figure 14(b).
//
// There is no DRAM metadata at all, so every probe during search or insert
// pays NVM read traffic — the contrast with HDNH's OCF.
package levelhash

import (
	"errors"
	"fmt"
	"sync"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

// Geometry: the original Level Hashing uses 4-slot buckets.
const (
	slotsPerBucket = 4
	slotWords      = kv.SlotWords
	bucketWords    = slotsPerBucket * slotWords
)

// Persistent metadata (root slot 1):
//
//	word 0  magic
//	word 1  state: top slot | bottom slot | generation (atomic switch)
//	words 2..7  three level descriptors (base, buckets)
const (
	metaWords    = nvm.BlockWords
	rootSlot     = 1
	metaMagic    = uint64(0x4c45564c48415348) // "LEVLHASH"
	magicWord    = 0
	stateWord    = 1
	levelBase    = 2
	numLevelDesc = 3
)

type state struct {
	top, bottom uint8
	generation  uint64
}

func (s state) pack() uint64 { return uint64(s.top) | uint64(s.bottom)<<2 | s.generation<<16 }
func unpack(w uint64) state {
	return state{top: uint8(w) & 3, bottom: uint8(w>>2) & 3, generation: w >> 16}
}

type levelArr struct {
	base    int64
	buckets int64
	locks   []scheme.NVMLock // one per slot
}

func newLevelArr(base, buckets int64) *levelArr {
	return &levelArr{base: base, buckets: buckets, locks: make([]scheme.NVMLock, buckets*slotsPerBucket)}
}

func (l *levelArr) slotWordOff(b int64, s int) int64 {
	return l.base + b*bucketWords + int64(s)*slotWords
}

// count is the valid-slot recount Open runs, one read per bucket.
func (l *levelArr) count(h *nvm.Handle) int64 {
	return scheme.CountValid(h, l.base, l.buckets*slotsPerBucket, slotsPerBucket)
}

// Table is a Level Hashing instance.
type Table struct {
	scheme.Base
	dev     *nvm.Device
	metaOff int64

	resizeMu sync.RWMutex
	top      *levelArr
	bottom   *levelArr
}

var _ scheme.Store = (*Table)(nil)

// Options configures creation.
type Options struct {
	// InitTopBuckets is the initial top-level bucket count; the bottom
	// level has half as many. Any positive value works; powers of two are
	// conventional.
	InitTopBuckets int64
}

// New creates or opens a Level Hashing table on the device.
func New(dev *nvm.Device, opts Options) (*Table, error) {
	if opts.InitTopBuckets <= 0 {
		opts.InitTopBuckets = 64
	}
	if opts.InitTopBuckets%2 != 0 {
		opts.InitTopBuckets++
	}
	t := &Table{Base: scheme.Base{Label: "LEVEL"}, dev: dev}
	h := dev.NewHandle()
	if root := dev.Root(rootSlot); root != 0 {
		t.metaOff = int64(root)
		if dev.Load(t.metaOff+magicWord) != metaMagic {
			return nil, errors.New("levelhash: metadata magic mismatch")
		}
		st := t.state()
		t.top = newLevelArr(scheme.ReadDescriptor(dev, t.descOff(st.top)))
		t.bottom = newLevelArr(scheme.ReadDescriptor(dev, t.descOff(st.bottom)))
		t.Live.Store(t.top.count(h) + t.bottom.count(h))
		return t, nil
	}
	metaOff, err := dev.Alloc(h, metaWords, nvm.BlockWords)
	if err != nil {
		return nil, fmt.Errorf("levelhash: allocating metadata: %w", err)
	}
	t.metaOff = metaOff
	topBuckets := opts.InitTopBuckets
	botBuckets := topBuckets / 2
	topBase, err := dev.Alloc(h, topBuckets*bucketWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	botBase, err := dev.Alloc(h, botBuckets*bucketWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	scheme.WriteDescriptor(h, t.descOff(0), topBase, topBuckets)
	scheme.WriteDescriptor(h, t.descOff(1), botBase, botBuckets)
	t.setState(h, state{top: 0, bottom: 1, generation: 1})
	h.StorePersist(metaOff+magicWord, metaMagic)
	dev.SetRoot(h, rootSlot, uint64(metaOff))
	t.top = newLevelArr(topBase, topBuckets)
	t.bottom = newLevelArr(botBase, botBuckets)
	return t, nil
}

func (t *Table) state() state { return unpack(t.dev.Load(t.metaOff + stateWord)) }

func (t *Table) setState(h *nvm.Handle, s state) {
	h.StorePersist(t.metaOff+stateWord, s.pack())
}

// descOff is the word offset of level descriptor i.
func (t *Table) descOff(i uint8) int64 { return t.metaOff + levelBase + 2*int64(i) }

// candidate buckets for a level: one per hash function.
func (l *levelArr) candidates(h1, h2 uint64) [2]int64 {
	b1 := int64(h1 % uint64(l.buckets))
	b2 := int64(h2 % uint64(l.buckets))
	if b2 == b1 {
		b2 = (b1 + 1) % l.buckets
	}
	return [2]int64{b1, b2}
}

// Capacity returns total slots.
func (t *Table) Capacity() int64 {
	t.resizeMu.RLock()
	defer t.resizeMu.RUnlock()
	return (t.top.buckets + t.bottom.buckets) * slotsPerBucket
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

// onKey probes the key's candidate slots (both levels, two buckets each,
// slot by slot), taking and paying for each slot's lock, exclusive for a
// write, and runs fn on the key's slot while its lock is held. Level Hashing
// has no filter, so every probe is an NVM read. The caller holds resizeMu.
func (s *session) onKey(k kv.Key, h1, h2 uint64, exclusive bool, fn func(off int64, w [slotWords]uint64)) bool {
	for _, lvl := range [2]*levelArr{s.t.top, s.t.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			for slot := 0; slot < slotsPerBucket; slot++ {
				lk, off := &lvl.locks[b*slotsPerBucket+int64(slot)], lvl.slotWordOff(b, slot)
				lk.Acquire(s.H, off, exclusive)
				w := scheme.ReadSlot(s.H, off)
				hit := kv.ValidOf(w[3]) && kv.KeyEqualsWords(k, w[0], w[1])
				if hit && fn != nil {
					fn(off, w)
				}
				lk.Release(s.H, off, exclusive)
				if hit {
					return true
				}
			}
		}
	}
	return false
}

// Get searches both levels' candidate buckets under shared slot locks.
func (s *session) Get(k kv.Key) (v kv.Value, found bool) {
	h1, h2 := hashfn.Pair(k[:])
	s.t.resizeMu.RLock()
	defer s.t.resizeMu.RUnlock()
	found = s.onKey(k, h1, h2, scheme.Shared, func(_ int64, w [slotWords]uint64) {
		v, _ = kv.UnpackValue(w[2], w[3])
	})
	return v, found
}

// Insert places a new record, using displacement and bottom-to-top eviction
// before resizing.
func (s *session) Insert(k kv.Key, v kv.Value) error {
	h1, h2 := hashfn.Pair(k[:])
	for attempt := 0; attempt < 24; attempt++ {
		s.t.resizeMu.RLock()
		if s.onKey(k, h1, h2, scheme.Shared, nil) {
			s.t.resizeMu.RUnlock()
			return scheme.ErrExists
		}
		if s.tryPlace(k, v, h1, h2) {
			s.t.Live.Add(1)
			s.t.resizeMu.RUnlock()
			return nil
		}
		gen := s.t.state().generation
		s.t.resizeMu.RUnlock()
		if err := s.t.expand(gen); err != nil {
			return err
		}
	}
	return scheme.ErrFull
}

// tryPlace attempts: empty slot in any candidate bucket; one cuckoo
// displacement in the top level; bottom-to-top eviction.
func (s *session) tryPlace(k kv.Key, v kv.Value, h1, h2 uint64) bool {
	for _, lvl := range [2]*levelArr{s.t.top, s.t.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			if s.placeInBucket(lvl, b, k, v) {
				return true
			}
		}
	}
	// One-step displacement: move an item from a top candidate to its own
	// alternate top bucket.
	if s.displace(s.t.top, h1, h2, k, v) {
		return true
	}
	// Bottom-to-top eviction: move an item from a bottom candidate up to
	// the top level to make room (the mechanism the HDNH paper calls out
	// as expensive).
	return s.displace(s.t.bottom, h1, h2, k, v)
}

func (s *session) placeInBucket(lvl *levelArr, b int64, k kv.Key, v kv.Value) bool {
	for slot := 0; slot < slotsPerBucket; slot++ {
		lk, off := &lvl.locks[b*slotsPerBucket+int64(slot)], lvl.slotWordOff(b, slot)
		lk.Acquire(s.H, off, scheme.Exclusive)
		free := !kv.ValidOf(scheme.ReadSlot(s.H, off)[3])
		if free {
			scheme.SlotCommit(s.H, off, k, v)
		}
		lk.Release(s.H, off, scheme.Exclusive)
		if free {
			return true
		}
	}
	return false
}

// displace moves one record out of srcLvl's candidate buckets to make room
// for (k, v). For the top level the record moves to its alternate top
// bucket; for the bottom level it moves up into the top level.
func (s *session) displace(srcLvl *levelArr, h1, h2 uint64, k kv.Key, v kv.Value) bool {
	dstLvl := s.t.top
	for _, b := range srcLvl.candidates(h1, h2) {
		for slot := 0; slot < slotsPerBucket; slot++ {
			lk, off := &srcLvl.locks[b*slotsPerBucket+int64(slot)], srcLvl.slotWordOff(b, slot)
			lk.Acquire(s.H, off, scheme.Exclusive)
			w := scheme.ReadSlot(s.H, off)
			moved := false
			if kv.ValidOf(w[3]) {
				vk := kv.UnpackKey(w[0], w[1])
				vv, _ := kv.UnpackValue(w[2], w[3])
				vh1, vh2 := hashfn.Pair(vk[:])
				for _, db := range dstLvl.candidates(vh1, vh2) {
					if (dstLvl != srcLvl || db != b) && s.placeInBucket(dstLvl, db, vk, vv) {
						moved = true
						break
					}
				}
			}
			if moved {
				scheme.SlotClear(s.H, off, w[3])
				// The freed slot takes the new record.
				scheme.SlotCommit(s.H, off, k, v)
			}
			lk.Release(s.H, off, scheme.Exclusive)
			if moved {
				return true
			}
		}
	}
	return false
}

// Update rewrites a record in place under its slot write lock, as Level
// Hashing does for fitting values. Note: an in-place rewrite of a 31-byte
// value spans multiple words, so a crash mid-update can tear it — a known
// limitation of in-place updates on PM that HDNH's out-of-place protocol
// avoids; the crash-consistency test matrix for this baseline therefore
// covers inserts (which are crash-atomic here) but not updates.
func (s *session) Update(k kv.Key, v kv.Value) error {
	h1, h2 := hashfn.Pair(k[:])
	s.t.resizeMu.RLock()
	defer s.t.resizeMu.RUnlock()
	if !s.onKey(k, h1, h2, scheme.Exclusive, func(off int64, _ [slotWords]uint64) {
		scheme.SlotCommit(s.H, off, k, v)
	}) {
		return scheme.ErrNotFound
	}
	return nil
}

// Delete clears the record's valid bit under its slot write lock.
func (s *session) Delete(k kv.Key) error {
	h1, h2 := hashfn.Pair(k[:])
	s.t.resizeMu.RLock()
	defer s.t.resizeMu.RUnlock()
	if !s.onKey(k, h1, h2, scheme.Exclusive, func(off int64, w [slotWords]uint64) {
		scheme.SlotClear(s.H, off, w[3])
	}) {
		return scheme.ErrNotFound
	}
	s.t.Live.Add(-1)
	return nil
}

// expand performs the level-hashing resize: a new top level with twice the
// old top's buckets is allocated, the old bottom is rehashed into it, and
// the old top becomes the new bottom. The global resize lock blocks all
// operations, which is exactly the insertion stall Figure 14(a) shows.
func (t *Table) expand(observedGen uint64) error {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	st := t.state()
	if st.generation != observedGen {
		return nil
	}
	h := t.dev.NewHandle()
	free := uint8(0)
	for free == st.top || free == st.bottom {
		free++
	}
	newBuckets := 2 * t.top.buckets
	base, err := t.dev.Alloc(h, newBuckets*bucketWords, nvm.BlockWords)
	if err != nil {
		return fmt.Errorf("%w: levelhash resize: %v", scheme.ErrFull, err)
	}
	scheme.WriteDescriptor(h, t.descOff(free), base, newBuckets)
	newTop := newLevelArr(base, newBuckets)

	// Rehash old bottom into the new top (copy, then switch).
	src := t.bottom
	err = scheme.Scan(h, src.base, src.buckets*slotsPerBucket, slotsPerBucket, func(k kv.Key, v kv.Value) error {
		c := newTop.candidates(hashfn.Pair(k[:]))
		if !scheme.PlaceFree(h, k, v, slotsPerBucket, newTop.slotWordOff(c[0], 0), newTop.slotWordOff(c[1], 0)) {
			return fmt.Errorf("%w: levelhash rehash overflow", scheme.ErrFull)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Atomic switch: new top live, old top demoted, old bottom retired.
	t.setState(h, state{top: free, bottom: st.top, generation: st.generation + 1})
	t.bottom = t.top
	t.top = newTop
	return nil
}

func init() {
	scheme.Register("LEVEL", func(dev *nvm.Device, capacityHint int64) (scheme.Store, error) {
		// Size so a hint-record load lands near 60% without resizing:
		// capacity = (top + top/2) * 4 slots.
		top := int64(64)
		if capacityHint > 0 {
			want := capacityHint * 10 / 6 / (slotsPerBucket * 3 / 2)
			for top < want {
				top *= 2
			}
		}
		t, err := New(dev, Options{InitTopBuckets: top})
		if err != nil {
			return nil, err
		}
		return t, nil
	})
}
