// Package rewo implements a REWO-style hybrid baseline (extension; the
// HDNH paper discusses Rewo [DATE '20] in §2.3 but does not benchmark it):
// a persistent table in NVM serving writes, plus a cached table in DRAM
// serving reads, managed by a **global LRU list** — exactly the design the
// paper criticises:
//
//	"LRU list consumes a lot of memory space, and LRU cannot cope with
//	 random-access workloads efficiently."
//
// The cache here is faithful to that critique: a map plus doubly-linked
// list guarded by one mutex, whose recency update runs on *every hit*. Its
// fixed capacity cannot be "dynamically adjusted" as the persistent table
// grows (the paper's other criticism), so after growth the hit rate decays.
//
// The persistent table is a two-choice, 8-slot-bucket NVM hash with
// copy-then-switch doubling and the same crash-atomic slot commit protocol
// the rest of the repository uses, so comparisons against HDNH isolate the
// *cache design*, not the persistence machinery.
package rewo

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

const (
	slotWords      = kv.SlotWords
	slotsPerBucket = 8
	bucketWords    = slotsPerBucket * slotWords
)

// Persistent metadata (root slot 4):
//
//	word 0  magic
//	word 1  state: table slot | generation
//	words 2..5  two table descriptors (base, buckets)
const (
	rootSlot  = 4
	metaWords = nvm.BlockWords
	metaMagic = uint64(0x5245574f48415348) // "REWOHASH"
	magicWord = 0
	stateWord = 1
	descBase  = 2
)

// Table is a REWO-style store.
type Table struct {
	scheme.Base
	dev     *nvm.Device
	metaOff int64

	mu      sync.RWMutex // structure lock: ops shared, resize exclusive
	base    int64
	buckets int64
	locks   []scheme.RWSpin // per-bucket locks for the persistent table (DRAM, uncharged)

	cache *lruCache
}

var _ scheme.Store = (*Table)(nil)

// lruCache is the DRAM cached table: one mutex, a map, and a recency list.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	items    map[kv.Key]*list.Element
	order    *list.List // front = most recent
}

type cacheEntry struct {
	k kv.Key
	v kv.Value
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		items:    make(map[kv.Key]*list.Element, capacity),
		order:    list.New(),
	}
}

// get returns the cached value, updating recency — the per-hit bookkeeping
// cost the HDNH paper's RAFL avoids.
func (c *lruCache) get(k kv.Key) (kv.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return kv.Value{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).v, true
}

// put inserts or refreshes an entry, evicting the global LRU tail on
// overflow.
func (c *lruCache) put(k kv.Key, v kv.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheEntry).v = v
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		tail := c.order.Back()
		if tail != nil {
			c.order.Remove(tail)
			delete(c.items, tail.Value.(*cacheEntry).k)
		}
	}
	c.items[k] = c.order.PushFront(&cacheEntry{k: k, v: v})
}

func (c *lruCache) del(k kv.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.Remove(el)
		delete(c.items, k)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Options configures creation.
type Options struct {
	// InitBuckets is the persistent table's starting bucket count.
	InitBuckets int64
	// CacheEntries fixes the cached table's capacity (Rewo's cache is not
	// dynamically adjustable; this is the point the paper makes).
	CacheEntries int
}

// New creates or opens a REWO-style table on the device.
func New(dev *nvm.Device, opts Options) (*Table, error) {
	if opts.InitBuckets <= 0 {
		opts.InitBuckets = 64
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = int(opts.InitBuckets) * slotsPerBucket / 2
	}
	t := &Table{Base: scheme.Base{Label: "REWO"}, dev: dev, cache: newLRUCache(opts.CacheEntries)}
	h := dev.NewHandle()
	if root := dev.Root(rootSlot); root != 0 {
		t.metaOff = int64(root)
		if dev.Load(t.metaOff+magicWord) != metaMagic {
			return nil, errors.New("rewo: metadata magic mismatch")
		}
		t.base, t.buckets = scheme.ReadDescriptor(dev, t.descOff(t.state()&1))
		t.locks = make([]scheme.RWSpin, t.buckets)
		t.Live.Store(scheme.CountValid(h, t.base, t.buckets*slotsPerBucket, slotsPerBucket))
		return t, nil
	}
	metaOff, err := dev.Alloc(h, metaWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	t.metaOff = metaOff
	base, err := dev.Alloc(h, opts.InitBuckets*bucketWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	t.base, t.buckets = base, opts.InitBuckets
	t.locks = make([]scheme.RWSpin, t.buckets)
	scheme.WriteDescriptor(h, t.descOff(0), base, opts.InitBuckets)
	h.StorePersist(metaOff+stateWord, 0|1<<8) // slot 0, generation 1
	h.StorePersist(metaOff+magicWord, metaMagic)
	dev.SetRoot(h, rootSlot, uint64(metaOff))
	return t, nil
}

func (t *Table) state() uint64 { return t.dev.Load(t.metaOff + stateWord) }

// descOff is the word offset of table descriptor i.
func (t *Table) descOff(i uint64) int64 { return t.metaOff + descBase + 2*int64(i) }

func (t *Table) slotOff(b int64, s int) int64 {
	return t.base + b*bucketWords + int64(s)*slotWords
}

// candidates are the key's two buckets (two-choice hashing).
func (t *Table) candidates(h1, h2 uint64) [2]int64 {
	b1 := int64(h1 % uint64(t.buckets))
	b2 := int64(h2 % uint64(t.buckets))
	if b2 == b1 {
		b2 = (b1 + 1) % t.buckets
	}
	return [2]int64{b1, b2}
}

// Capacity returns total persistent slots.
func (t *Table) Capacity() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.buckets * slotsPerBucket
}

// LoadFactor returns occupancy.
func (t *Table) LoadFactor() float64 { return scheme.LoadFactor(t.Count(), t.Capacity()) }

// CacheEntries reports current cache occupancy.
func (t *Table) CacheEntries() int { return t.cache.len() }

type session struct {
	scheme.DeviceSession
	t *Table
}

// NewSession returns a session.
func (t *Table) NewSession() scheme.Session {
	return &session{scheme.DeviceSession{H: t.dev.NewHandle()}, t}
}

// find locates the key in its two candidate buckets, reading each whole
// under its bucket lock (exclusive for a write). On success it returns the
// bucket, slot and the slot's word 3 with that bucket still locked.
func (s *session) find(k kv.Key, h1, h2 uint64, exclusive bool) (b int64, slot int, w3 uint64, ok bool) {
	for _, cb := range s.t.candidates(h1, h2) {
		lk := &s.t.locks[cb]
		if exclusive {
			lk.Lock()
		} else {
			lk.RLock()
		}
		s.H.ReadAccess(s.t.base+cb*bucketWords, bucketWords)
		for sl := 0; sl < slotsPerBucket; sl++ {
			off := s.t.slotOff(cb, sl)
			w := s.H.Load(off + 3)
			if kv.ValidOf(w) && kv.KeyEqualsWords(k, s.H.Load(off), s.H.Load(off+1)) {
				return cb, sl, w, true
			}
		}
		if exclusive {
			lk.Unlock()
		} else {
			lk.RUnlock()
		}
	}
	return 0, 0, 0, false
}

// Get serves reads from the cached table when possible; a miss reads the
// persistent table and promotes the record into the cache (evicting the
// global LRU victim).
func (s *session) Get(k kv.Key) (kv.Value, bool) {
	if v, ok := s.t.cache.get(k); ok {
		return v, true
	}
	h1, h2 := hashfn.Pair(k[:])
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	b, slot, w3, ok := s.find(k, h1, h2, false)
	if !ok {
		return kv.Value{}, false
	}
	v, _ := kv.UnpackValue(s.H.Load(s.t.slotOff(b, slot)+2), w3)
	// Promote while still holding the bucket lock: a concurrent update
	// must wait for the write lock, so its newer cache.put happens strictly
	// after this one — no stale promotion.
	s.t.cache.put(k, v)
	s.t.locks[b].RUnlock()
	return v, true
}

// Insert adds a record to the persistent table and mirrors it into the
// cache (Rewo keeps the cached table a copy of recently used items).
func (s *session) Insert(k kv.Key, v kv.Value) error {
	h1, h2 := hashfn.Pair(k[:])
	for attempt := 0; attempt < 24; attempt++ {
		s.t.mu.RLock()
		if b, _, _, dup := s.find(k, h1, h2, true); dup {
			s.t.locks[b].Unlock()
			s.t.mu.RUnlock()
			return scheme.ErrExists
		}
		placed := false
		for _, b := range s.t.candidates(h1, h2) {
			lk := &s.t.locks[b]
			lk.Lock()
			for slot := 0; slot < slotsPerBucket && !placed; slot++ {
				if off := s.t.slotOff(b, slot); !kv.ValidOf(s.H.Load(off + 3)) {
					scheme.SlotCommit(s.H, off, k, v)
					s.t.cache.put(k, v) // mirror under the bucket lock
					placed = true
				}
			}
			lk.Unlock()
			if placed {
				break
			}
		}
		if placed {
			s.t.Live.Add(1)
			s.t.mu.RUnlock()
			return nil
		}
		gen := s.t.state() >> 8
		s.t.mu.RUnlock()
		if err := s.t.grow(gen); err != nil {
			return err
		}
	}
	return scheme.ErrFull
}

// Update rewrites the record in place under its bucket lock and refreshes
// the cache. In-place multi-word rewrites are not crash-atomic (see the
// note on levelhash.Update); HDNH's stamped out-of-place protocol is the
// contrast.
func (s *session) Update(k kv.Key, v kv.Value) error {
	h1, h2 := hashfn.Pair(k[:])
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	b, slot, _, ok := s.find(k, h1, h2, true)
	if !ok {
		return scheme.ErrNotFound
	}
	scheme.SlotCommit(s.H, s.t.slotOff(b, slot), k, v)
	s.t.cache.put(k, v) // mirror under the bucket lock
	s.t.locks[b].Unlock()
	return nil
}

// Delete clears the record and removes its cache entry.
func (s *session) Delete(k kv.Key) error {
	h1, h2 := hashfn.Pair(k[:])
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	b, slot, w3, ok := s.find(k, h1, h2, true)
	if !ok {
		return scheme.ErrNotFound
	}
	scheme.SlotClear(s.H, s.t.slotOff(b, slot), w3)
	s.t.cache.del(k) // unmirror under the bucket lock
	s.t.locks[b].Unlock()
	s.t.Live.Add(-1)
	return nil
}

// grow doubles the persistent table (copy then atomic switch). The cache is
// *not* resized — Rewo's fixed cache is the limitation the HDNH paper calls
// out — so hit rates decay as the table outgrows it.
func (t *Table) grow(observedGen uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state()
	if st>>8 != observedGen {
		return nil
	}
	h := t.dev.NewHandle()
	cur := st & 1
	next := 1 - cur
	newBuckets := t.buckets * 2
	base, err := t.dev.Alloc(h, newBuckets*bucketWords, nvm.BlockWords)
	if err != nil {
		return fmt.Errorf("%w: rewo grow: %v", scheme.ErrFull, err)
	}
	scheme.WriteDescriptor(h, t.descOff(next), base, newBuckets)

	oldBase, oldBuckets := t.base, t.buckets
	t.base, t.buckets = base, newBuckets
	err = scheme.Scan(h, oldBase, oldBuckets*slotsPerBucket, slotsPerBucket, func(k kv.Key, v kv.Value) error {
		c := t.candidates(hashfn.Pair(k[:]))
		if !scheme.PlaceFree(h, k, v, slotsPerBucket, t.slotOff(c[0], 0), t.slotOff(c[1], 0)) {
			return fmt.Errorf("%w: rewo rehash overflow", scheme.ErrFull)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Atomic switch; the old region is retired.
	h.StorePersist(t.metaOff+stateWord, next|(st>>8+1)<<8)
	t.locks = make([]scheme.RWSpin, newBuckets)
	return nil
}

func init() {
	scheme.Register("REWO", func(dev *nvm.Device, capacityHint int64) (scheme.Store, error) {
		buckets := int64(64)
		if capacityHint > 0 {
			for buckets*slotsPerBucket*6/10 < capacityHint {
				buckets *= 2
			}
		}
		// Cache sized like HDNH's hot table (half the persistent slots) at
		// creation — but fixed thereafter, per Rewo's design.
		t, err := New(dev, Options{InitBuckets: buckets, CacheEntries: int(buckets * slotsPerBucket / 2)})
		if err != nil {
			return nil, err
		}
		return t, nil
	})
}
