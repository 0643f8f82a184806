package scheme

import (
	"runtime"
	"sync/atomic"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
)

// This file is the persistence protocol the four baselines (LEVEL, CCEH,
// PATH, REWO) share, so each baseline package keeps only its placement and
// its resize policy, and a comparison against HDNH cannot be skewed by one
// baseline's private copy of the protocol drifting. Every helper makes
// exactly the accounted device calls its comment names, in that order;
// internal/schemetest pins the baselines' per-operation counts and images.

// Persist makes the n words at off, already stored, durable: one write
// access, a flush of the lines they span, one fence.
func Persist(h *nvm.Handle, off, n int64) {
	h.WriteAccess(off, n)
	h.Flush(off, n)
	h.Fence()
}

// SlotCommit writes (k, v) into the slot at word off crash-atomically: words
// 0–2 (key and value) are persisted first, then word 3, which carries the
// valid bit, with one 8-byte StorePersist. A crash leaves the slot as it was
// or whole, never torn.
func SlotCommit(h *nvm.Handle, off int64, k kv.Key, v kv.Value) {
	var w [kv.SlotWords]uint64
	kv.PackRecord(w[:], k, v, kv.MetaValid)
	h.Store(off, w[0])
	h.Store(off+1, w[1])
	h.Store(off+2, w[2])
	Persist(h, off, 3)
	h.StorePersist(off+3, w[3])
}

// SlotClear deletes the record at word off with one StorePersist of its
// word 3, w3, with the valid bit cleared.
func SlotClear(h *nvm.Handle, off int64, w3 uint64) {
	h.StorePersist(off+3, kv.WithMeta(w3, 0))
}

// ReadSlot charges one read of the slot at word off and returns its words.
func ReadSlot(h *nvm.Handle, off int64) (w [kv.SlotWords]uint64) {
	h.ReadAccess(off, kv.SlotWords)
	for i := range w {
		w[i] = h.Load(off + int64(i))
	}
	return w
}

// Scan calls fn on every valid record among the n slots at word base, in
// slot order, stopping at fn's first error. It charges one read of perRead
// slots at every perRead-slot boundary: each baseline reads a bucket (or,
// for PATH, a run of cells) at a time.
func Scan(h *nvm.Handle, base, n, perRead int64, fn func(k kv.Key, v kv.Value) error) error {
	for i := int64(0); i < n; i++ {
		off := base + i*kv.SlotWords
		if i%perRead == 0 {
			h.ReadAccess(off, perRead*kv.SlotWords)
		}
		w3 := h.Load(off + 3)
		if !kv.ValidOf(w3) {
			continue
		}
		v, _ := kv.UnpackValue(h.Load(off+2), w3)
		if err := fn(kv.UnpackKey(h.Load(off), h.Load(off+1)), v); err != nil {
			return err
		}
	}
	return nil
}

// CountValid is the recount Open runs: the valid slots among the n at base,
// read as Scan reads them.
func CountValid(h *nvm.Handle, base, n, perRead int64) int64 {
	var c int64
	Scan(h, base, n, perRead, func(kv.Key, kv.Value) error { c++; return nil })
	return c
}

// PlaceFree commits (k, v) into the first free slot of the buckets whose
// word offsets it is given, perBucket slots each, reporting false when all
// are taken. The free-slot search is not charged: LEVEL's and REWO's
// copy-then-switch resizes fill a level no reader can see yet.
func PlaceFree(h *nvm.Handle, k kv.Key, v kv.Value, perBucket int, buckets ...int64) bool {
	for _, b := range buckets {
		for s := 0; s < perBucket; s++ {
			if off := b + int64(s)*kv.SlotWords; !kv.ValidOf(h.Load(off + 3)) {
				SlotCommit(h, off, k, v)
				return true
			}
		}
	}
	return false
}

// WriteDescriptor persists the (base, buckets) descriptor pair at word w.
func WriteDescriptor(h *nvm.Handle, w, base, buckets int64) {
	h.Store(w, uint64(base))
	h.Store(w+1, uint64(buckets))
	Persist(h, w, 2)
}

// ReadDescriptor loads the (base, buckets) descriptor pair at word w.
func ReadDescriptor(dev *nvm.Device, w int64) (base, buckets int64) {
	return int64(dev.Load(w)), int64(dev.Load(w + 1))
}

// RWSpin is a reader-writer spinlock that yields while it waits.
type RWSpin struct{ v atomic.Int32 }

// RLock takes the lock shared.
func (l *RWSpin) RLock() {
	for {
		v := l.v.Load()
		if v >= 0 && l.v.CompareAndSwap(v, v+1) {
			return
		}
		runtime.Gosched()
	}
}

// RUnlock drops a shared hold.
func (l *RWSpin) RUnlock() { l.v.Add(-1) }

// Lock takes the lock exclusively.
func (l *RWSpin) Lock() {
	for !l.v.CompareAndSwap(0, -1) {
		runtime.Gosched()
	}
}

// Unlock drops the exclusive hold.
func (l *RWSpin) Unlock() { l.v.Store(0) }

// Lock modes for NVMLock.
const (
	Shared    = false
	Exclusive = true
)

// NVMLock is a reader-writer spinlock whose word is modeled as living in NVM
// beside the data it guards, as Level hashing, CCEH and Path hashing keep
// theirs. Every transition, a shared acquire included, is charged to the
// acting handle as an 8-byte write and a flush of its line (no fence) at the
// word offset the caller names: the write traffic the HDNH paper holds
// against these schemes' reads.
type NVMLock struct{ spin RWSpin }

// Acquire takes the lock in the given mode, then charges the transition.
func (l *NVMLock) Acquire(h *nvm.Handle, off int64, exclusive bool) {
	if exclusive {
		l.spin.Lock()
	} else {
		l.spin.RLock()
	}
	lockCharge(h, off)
}

// Release drops a hold taken in the same mode, then charges the transition.
func (l *NVMLock) Release(h *nvm.Handle, off int64, exclusive bool) {
	if exclusive {
		l.spin.Unlock()
	} else {
		l.spin.RUnlock()
	}
	lockCharge(h, off)
}

func lockCharge(h *nvm.Handle, off int64) {
	h.WriteAccess(off, 1)
	h.Flush(off, 1)
}

// Base is the bookkeeping every baseline Store shares. Embedding it supplies
// Name, Count and Close; the baselines run no background work, so Close
// releases nothing.
type Base struct {
	// Label is the name the store reports: its package's scheme name, or
	// the name the registry opened it under.
	Label string
	// Live counts live records.
	Live atomic.Int64
}

// Name returns Label.
func (b *Base) Name() string { return b.Label }

// Count returns the live-record count.
func (b *Base) Count() int64 { return b.Live.Load() }

// Close is a no-op.
func (b *Base) Close() error { return nil }

// LoadFactor is count over capacity, 0 for a structure with no slots.
func LoadFactor(count, capacity int64) float64 {
	if capacity == 0 {
		return 0
	}
	return float64(count) / float64(capacity)
}

// DeviceSession is what every baseline session holds besides its table: its
// own device handle H, whose counters are the session's NVMStats. Embedding
// it supplies NVMStats and Close; a baseline session holds nothing in the
// store, so Close releases nothing.
type DeviceSession struct{ H *nvm.Handle }

// NVMStats returns the traffic generated through H.
func (s DeviceSession) NVMStats() nvm.Stats { return s.H.Stats() }

// Close is a no-op.
func (DeviceSession) Close() error { return nil }
