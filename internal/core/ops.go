package core

import (
	"errors"
	"math/bits"
	"runtime"
	"time"

	"hdnh/internal/flight"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// slotRef identifies one NVT slot.
type slotRef struct {
	lvl *level
	b   int64
	s   int
}

func (r slotRef) wordOff() int64 { return r.lvl.slotWord(r.b, r.s) }

// Contention-control constants for the optimistic read/write paths.
const (
	// spinYields is how many misses a waiter spends on pure Gosched before
	// it starts sleeping; short writer critical sections (a few stores)
	// almost always clear within this window.
	spinYields = 64
	// backoffMaxShift caps the exponential sleep at 2^7 µs = 128µs, so a
	// stuck writer degrades a waiter to a polite poll instead of pegging a
	// core.
	backoffMaxShift = 7
	// contendedRetryMax bounds how many whole-budget retry rounds a write
	// operation absorbs internally before surfacing ErrContended.
	contendedRetryMax = 16
)

// spinBackoff delays the attempt-th retry of some busy loop: Gosched for the
// first spinYields attempts, then exponentially growing sleeps capped at
// 2^backoffMaxShift microseconds.
func spinBackoff(attempt int) {
	if attempt < spinYields {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(1<<min(attempt-spinYields, backoffMaxShift)) * time.Microsecond)
}

// expandOutcome classifies an expansion failure for the metrics: a genuinely
// full table (ErrFull anywhere in the chain) is OutFull; anything else — a
// drain that could not conclude, an I/O-level fault — is OutError, a distinct
// outcome so capacity exhaustion and internal faults never conflate on a
// dashboard. The error itself is propagated to the caller unwrapped either
// way.
func expandOutcome(err error) obs.Outcome {
	if errors.Is(err, scheme.ErrFull) {
		return obs.OutFull
	}
	return obs.OutError
}

// helpDrainStep is the amortized-incremental-rehash contribution every write
// makes while a drain is in flight: claim at most one chunk and rehash it.
// Background workers normally finish long before writers notice, but on a
// starved scheduler this keeps the drain deterministically ahead of table
// growth — without it a tight insert loop can refill the table to its next
// trigger point while the old bottom still holds records, and those records
// would then genuinely find no slot. Must be called OUTSIDE an epoch
// critical section, and only helps tasks whose grace period has elapsed —
// touching the drain level before every pre-swap placement has landed would
// let the drain scan past a bucket that still gains a record.
//
// The wait for the grace period is deliberately blocking, not a skip: the
// "drain stays ahead of growth" guarantee holds only if no writer consumes
// new-structure slots while claimable drain work exists, and on a starved
// scheduler the goroutine that ends the grace may not run for several
// milliseconds — long enough for an unthrottled insert loop to eat every
// slot the undrained records need. A writer parked here only accelerates
// the grace (its epoch slot is idle), so the wait cannot deadlock.
func (s *session) helpDrainStep() {
	task := s.t.draining.Load()
	if task == nil || task.blocking || task.failed.Load() {
		return
	}
	select {
	case <-task.ready:
	case <-task.done:
		return
	}
	if r, lo, hi, ok := task.claim(0); ok {
		// Outside a critical section the session's own group is empty, so its
		// buffer is free to carry the chunk's moves.
		s.t.drainChunk(s.h, &s.batch.pending, task, r, lo, hi)
		s.rec.DrainHelp()
	}
}

// probeStats accumulates NVT-walk accounting over one operation, or over the
// keys of one batch: rescans (passes beyond each walk's first), accounted slot
// reads, and lock-wait spin iterations. Stack-allocated by the session paths
// and reported through the obs.Recorder in one call.
type probeStats struct {
	rescans int64
	probes  int64
	spins   int64
}

// report publishes the accounting to both recording surfaces. The flight
// tracer drops the events unless the current op is trace-sampled.
func (ps *probeStats) report(rec obs.Recorder, fl flight.Tracer) {
	rec.Probe(ps.rescans, ps.probes, ps.spins)
	fl.Probe(ps.probes, ps.rescans, ps.spins)
}

// opDone finishes one operation on both recording surfaces: the metrics
// counter/latency pair and, when the op was trace-sampled, its flight span
// (which also drives slow-op promotion).
func (s *session) opDone(op obs.Op, out obs.Outcome, start time.Time, ft int64) {
	s.rec.Op(op, out, start)
	s.fl.OpEnd(op, out, ft)
}

// lookupResult is the tri-state outcome of an NVT walk. The third state is
// the bugfix this file carries: a walk whose rescan budget exhausts is
// contended, NOT a miss — the key may exist but kept moving behind the scan,
// and reporting "absent" here is a silent false miss.
type lookupResult uint8

const (
	lookupFound lookupResult = iota
	lookupMissing
	lookupContended
)

// waitUnlocked waits until the slot's op bit clears, returning the fresh
// control word — the paper's "the read thread will wait until the slot is
// free". Writers hold slot locks only for a few stores, so the wait starts
// as pure yields (on small GOMAXPROCS the holder needs the CPU); if the lock
// still doesn't clear, the wait backs off exponentially (capped) so a stuck
// or descheduled writer degrades waiters gracefully instead of pegging a
// core. ps, when non-nil, receives the spin count.
func waitUnlocked(lvl *level, b int64, s int, ps *probeStats) uint32 {
	for spin := 0; ; spin++ {
		c := lvl.ocfLoad(b, s)
		if !ocfIsLocked(c) {
			if ps != nil {
				ps.spins += int64(spin)
			}
			return c
		}
		spinBackoff(spin)
	}
}

// hit describes a successful NVT probe.
type hit struct {
	ref  slotRef
	ctrl uint32 // OCF word at read time (for cache-fill validation)
	val  kv.Value
	w3   uint64
}

// walkMode is what a walk does with the key's slot once it finds it.
type walkMode uint8

const (
	// walkRead is the paper's lock-free read: take nothing, wait out any
	// writer lock in the way.
	walkRead walkMode = iota
	// walkPair is walkRead over the current level pair alone, never the
	// drain level: the drain's existence check, whose caller holds the
	// drain-level copy's lock, so a walk that reached it would wait on
	// itself forever (stageMove).
	walkPair
	// walkLock locks the key's slot — the one probe every write verb starts
	// with — waiting out other writers' locks. It and every mode after it
	// lock; the modes before it only read.
	walkLock
	// walkTryLock is walkLock that turns every would-block point (a locked
	// slot, a lost lock race) into an immediate lookupContended instead of
	// parking: a session that already holds staged slot locks probes this
	// way, so a fingerprint collision against one of its own locks can never
	// self-deadlock (see groupcommit.go).
	walkTryLock
)

// walk is the one NVT walk below the hot table (paper Figure 8): visit the
// candidate buckets' OCF words in DRAM, and only on a fingerprint match touch
// NVM to compare the full key. A read walk is lock-free, a version re-check
// detecting concurrent writers; a lock walk ends holding the key's slot lock,
// and the observed state is current (the lock CAS covers the whole control
// word).
//
// Movement hazard: an out-of-place update (or displacement) publishes the
// record's new slot before retiring the old one, but the new slot may sit
// in a bucket this pass already passed. Whenever a pass both misses AND
// observed a matching-fingerprint slot transition under a writer lock, or the
// key's movement counter changed, the walk rescans — the record may have
// moved behind it. A slot whose control word changes under the walk is
// re-examined in place (INTERNALS §10 argues why that needs no rescan of its
// own). The rescans are capped by Options.lookupRetryBudget (1024), each
// after a yield; exhausting it returns lookupContended, never lookupMissing.
// Caller must be inside an epoch critical section (enterCritical), or be a
// drain worker, whose levels the in-flight task pins.
func (t *Table) walk(h *nvm.Handle, k kv.Key, h1, h2 uint64, fp uint8, ps *probeStats, mode walkMode) (hit, lookupResult) {
	kw0, kw1 := k.Pack()
	for pass := 0; pass < t.opts.lookupRetryBudget; pass++ {
		if pass > 0 {
			ps.rescans++
			runtime.Gosched()
		}
		moveSnapshot := t.moveShard(h1).Load()
		if hook := t.testHookLookupPass; hook != nil {
			hook()
		}
		mayHaveMoved := false
		var lv [3]*level
		n := t.walkLevels(&lv)
		if mode == walkPair {
			n = 2
		}
		for _, lvl := range lv[:n] {
			for _, b := range lvl.candidates(h1, h2) {
				// SWAR pre-filter: one load of the bucket's packed fingerprint
				// word replaces eight scattered OCF loads. A slot that gains
				// the fingerprint after this load is missed by this pass, but
				// that is the same record-movement hazard the move-counter
				// rescan already covers (fpwSet precedes the valid publish, and
				// movers bump the shard between publish and retire).
				for m := swarMatch(lvl.fpwLoad(b), fp); m != 0; m &= m - 1 {
					s := bits.TrailingZeros64(m) >> 3
				retrySlot:
					c := lvl.ocfLoad(b, s)
					if ocfFP(c) != fp {
						continue // SWAR false positive, or the slot changed since the word load
					}
					if ocfIsLocked(c) {
						if mode == walkTryLock {
							return hit{}, lookupContended
						}
						c = waitUnlocked(lvl, b, s, ps)
						if ocfFP(c) != fp || !ocfIsValid(c) {
							mayHaveMoved = true
							continue
						}
					}
					if !ocfIsValid(c) {
						continue
					}
					off := lvl.slotWord(b, s)
					ps.probes++
					h.ReadAccess(off, slotWords)
					w0 := h.Load(off)
					w1 := h.Load(off + 1)
					w2 := h.Load(off + 2)
					w3 := h.Load(off + 3)
					if lvl.ocfLoad(b, s) != c {
						goto retrySlot // concurrent writer touched the slot
					}
					if w0 != kw0 || w1 != kw1 || !kv.ValidOf(w3) {
						continue
					}
					if mode >= walkLock && !lvl.ocfTryLock(b, s, c) {
						if mode == walkTryLock {
							return hit{}, lookupContended
						}
						goto retrySlot // a racing writer took the slot first
					}
					v, _ := kv.UnpackValue(w2, w3)
					return hit{ref: slotRef{lvl, b, s}, ctrl: c, val: v, w3: w3}, lookupFound
				}
			}
		}
		if !mayHaveMoved && t.moveShard(h1).Load() == moveSnapshot {
			return hit{}, lookupMissing
		}
	}
	return hit{}, lookupContended
}

// lockEmptySlot claims a free slot among the key's eight candidate buckets.
// prefer, when non-nil, is scanned first (updates prefer the old record's
// bucket so a crash leaves the duplicate bucket-local). Placement targets
// the current level pair, never the drain level — except transiently: a
// critical section that entered before a swap may still hold the old pair
// and place into the old bottom, which has just become the drain level.
// That is exactly what the resize grace period absorbs: the drain does not
// start scanning until every such section has exited, so the straggler's
// record is moved like any other. Returns the locked slot and the pre-lock
// control word.
func (t *Table) lockEmptySlot(h1, h2 uint64, prefer *slotRef) (slotRef, uint32, bool) {
	if prefer != nil {
		if ref, c, ok := lockEmptyIn(prefer.lvl, prefer.b); ok {
			return ref, c, true
		}
	}
	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			if prefer != nil && lvl == prefer.lvl && b == prefer.b {
				continue
			}
			if ref, c, ok := lockEmptyIn(lvl, b); ok {
				return ref, c, true
			}
		}
	}
	return slotRef{}, 0, false
}

func lockEmptyIn(lvl *level, b int64) (slotRef, uint32, bool) {
	for s := 0; s < SlotsPerBucket; s++ {
		c := lvl.ocfLoad(b, s)
		if ocfIsValid(c) || ocfIsLocked(c) {
			continue
		}
		if lvl.ocfTryLock(b, s, c) {
			return slotRef{lvl, b, s}, c, true
		}
	}
	return slotRef{}, 0, false
}

// readSlot loads a full slot with read accounting.
func readSlot(h *nvm.Handle, ref slotRef) (k kv.Key, v kv.Value, meta uint8) {
	off := ref.wordOff()
	h.ReadAccess(off, slotWords)
	w0 := h.Load(off)
	w1 := h.Load(off + 1)
	w2 := h.Load(off + 2)
	w3 := h.Load(off + 3)
	k = kv.UnpackKey(w0, w1)
	v, meta = kv.UnpackValue(w2, w3)
	return k, v, meta
}

// displaceOne relocates one record out of the key's candidate buckets to
// the record's own alternate bucket, PFHT-style (a single move, never a
// cascade). Returns true if a slot was freed. Callers run inside an epoch
// critical section (insert extension) or as drain workers (pointers pinned
// by the in-flight task).
func (t *Table) displaceOne(h *nvm.Handle, h1, h2 uint64) bool {
	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			for s := 0; s < SlotsPerBucket; s++ {
				c := lvl.ocfLoad(b, s)
				if !ocfIsValid(c) || ocfIsLocked(c) {
					continue
				}
				if !lvl.ocfTryLock(b, s, c) {
					continue
				}
				victim := slotRef{lvl, b, s}
				vk, vv, meta := readSlot(h, victim)
				if meta&metaValid == 0 {
					lvl.ocfRelease(b, s, false, 0, ocfVer(c))
					continue
				}
				vh1, vh2, vfp := hashKV(vk[:])
				dst, dc, ok := t.lockEmptySlotExcluding(vh1, vh2, victim)
				if !ok {
					lvl.ocfRelease(b, s, true, ocfFP(c), ocfVer(c))
					continue
				}
				// A move group of one: the protocol's publish-before-retire
				// order means readers racing the displacement never miss the
				// record. Nothing on this path waits for a lock, so a caller
				// with staged slots of its own (a batch mid-stage, a drain
				// worker) may run it.
				move := [1]pendingCommit{{op: opMove, h1: vh1, fp: vfp,
					newRef: dst, newC: dc, w3: writeSlotStage(h, dst, vk, vv, metaStamp(meta)+1),
					oldRef: victim, oldC: c, oldW3: packW3(vv, meta)}}
				t.commitGroup(h, move[:], nil, nil)
				return true
			}
		}
	}
	return false
}

func packW3(v kv.Value, meta uint8) uint64 {
	_, w3 := v.Pack(meta)
	return w3
}

// lockEmptySlotExcluding is lockEmptySlot skipping one position (the
// displacement victim's own slot, which is locked by the caller).
func (t *Table) lockEmptySlotExcluding(h1, h2 uint64, excl slotRef) (slotRef, uint32, bool) {
	pr := t.pair()
	for _, lvl := range [2]*level{pr.top, pr.bottom} {
		for _, b := range lvl.candidates(h1, h2) {
			for s := 0; s < SlotsPerBucket; s++ {
				if lvl == excl.lvl && b == excl.b && s == excl.s {
					continue
				}
				c := lvl.ocfLoad(b, s)
				if ocfIsValid(c) || ocfIsLocked(c) {
					continue
				}
				if lvl.ocfTryLock(b, s, c) {
					return slotRef{lvl, b, s}, c, true
				}
			}
		}
	}
	return slotRef{}, 0, false
}

// get is the paper's time-efficient read (Figure 8): hot table first, then
// OCF fingerprints, and NVM only on a fingerprint hit. A record found in the
// NVT is re-cached (validated against the observed OCF word) so hot items
// that were evicted re-enter the hot table.
//
// When the walk's rescan budget exhausts — the key kept moving behind the
// scan — get with retry waits it out with capped backoff instead of
// fabricating a miss, so a present key is never reported absent; without
// retry it reports lookupContended to the caller.
func (s *session) get(k kv.Key, h1, h2 uint64, fp uint8, retry bool) (kv.Value, lookupResult) {
	start := s.rec.Start()
	ft := s.fl.OpBegin(obs.OpGet)
	s.heat.Touch(obs.OpGet, k)
	if s.t.hot != nil {
		if v, ok := s.t.hot.get(k, h1, fp); ok {
			s.opDone(obs.OpGet, obs.OutHotHit, start, ft)
			return v, lookupFound
		}
	}
	for round := 0; ; round++ {
		s.enterCritical()
		var ps probeStats
		ht, res := s.t.walk(s.h, k, h1, h2, fp, &ps, walkRead)
		if res == lookupFound {
			s.fillHot(k, ht.val, h1, fp, ht.ref.lvl, ht.ref.b, ht.ref.s, ht.ctrl)
		}
		s.exitCritical()
		ps.report(s.rec, s.fl)
		switch res {
		case lookupFound:
			s.opDone(obs.OpGet, obs.OutNVTHit, start, ft)
			return ht.val, res
		case lookupMissing:
			s.opDone(obs.OpGet, obs.OutMiss, start, ft)
			return kv.Value{}, res
		}
		s.rec.Contended()
		if !retry {
			s.opDone(obs.OpGet, obs.OutContended, start, ft)
			return kv.Value{}, res
		}
		s.rec.GetRetry()
		spinBackoff(spinYields + round)
	}
}
