package core

import "sync/atomic"

// Epoch-based resize protection (the Dash/crossbeam idea): the old global
// reader-writer lock put every Get on one contended cache line — the RWMutex
// reader count — which became the throughput ceiling at high core counts
// long before the NVM device did. Instead, each session owns a
// cache-line-padded epoch slot. Entering an operation's critical section is
// two uncontended atomic stores (publish the observed epoch, clear it on
// exit); no cross-core write sharing happens on the hot path at all.
//
// The resize pointer-swap no longer excludes readers. It publishes the drain
// task and the new level pair (in that order — see expandLocked), bumps the
// global epoch, and then waits for a grace period: every registered slot
// idle or at an epoch >= the bumped value. The grace period exists for one
// hazard only: an in-flight critical section may still hold the OLD level
// pair and place a record into the old bottom — which is now the drain
// level. Delaying the drain start (drainTask.ready) until the grace period
// elapses guarantees every such placement happens before any drain worker
// scans the level, so the drain misses nothing. Pure readers need no grace
// at all: old levels stay allocated and internally consistent, and the
// movement-counter protocol covers records the drain moves under them.
//
// Memory-ordering argument (Go atomics are sequentially consistent): enter
// stores the slot value and then re-loads the global epoch. The resizer
// bumps the global epoch and then loads the slot. This is the classic
// store-buffering pattern — at least one side must observe the other's
// store. If the resizer's load misses the slot value, the session's re-load
// must have seen the bumped epoch, so the session re-publishes the new epoch
// and (by the same total-order reasoning applied to the level-pair store,
// which precedes the bump) observes the new level pair; it can no longer
// touch the drain level as a placement target. If instead the session's
// re-load saw the old epoch, the resizer's load sees the old slot value and
// waits the session out.
//
// Exclusive callers remain: the invariant checker and the BlockingResize
// baseline need a true stop-the-world barrier. They set the epoch gate
// (serialised by the table's fallback resizeMu), which parks new entrants,
// and wait for every slot to go idle. The same store-buffering argument
// makes the gate sound: a session that entered having missed the gate has
// already published its slot value where the gate setter's subsequent
// registry scan will find it.

// epochSlot is one session's epoch publication word, padded so two sessions
// never share a cache line (the padding is the whole point — unpadded slots
// would reintroduce exactly the false sharing the RWMutex had).
type epochSlot struct {
	val atomic.Uint64 // 0 = idle; otherwise the epoch observed at entry
	_   [120]byte
}

// registerEpochSlot hands out a slot from the table's copy-on-write
// registry, preferring a slot a closed session returned (see
// releaseEpochSlot) and growing the registry only when the free list is
// empty. Slots stay registered for the table's lifetime — grace periods keep
// scanning them lock-free — but the registry length is bounded by the peak
// number of concurrently open sessions, not by every session ever created.
func (t *Table) registerEpochSlot() *epochSlot {
	t.epochMu.Lock()
	if n := len(t.epochFree); n > 0 {
		sl := t.epochFree[n-1]
		t.epochFree[n-1] = nil
		t.epochFree = t.epochFree[:n-1]
		t.epochMu.Unlock()
		return sl
	}
	sl := &epochSlot{}
	var cur []*epochSlot
	if p := t.epochSlots.Load(); p != nil {
		cur = *p
	}
	next := make([]*epochSlot, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = sl
	t.epochSlots.Store(&next)
	t.epochMu.Unlock()
	return sl
}

// releaseEpochSlot returns a session's slot to the free list for the next
// newSession to reuse. The slot stays in the registry (removing it would
// race the lock-free grace-period scans), but it is idle — the owning
// session published 0 on its last exitCritical and will never touch it
// again — so scans skip it at the cost of one load.
func (t *Table) releaseEpochSlot(sl *epochSlot) {
	t.epochMu.Lock()
	t.epochFree = append(t.epochFree, sl)
	t.epochMu.Unlock()
}

// epochRegistryLen reports the current registry length (for the leak
// regression test: it must stay bounded by peak concurrency, not total
// sessions created).
func (t *Table) epochRegistryLen() int {
	if p := t.epochSlots.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// EpochSlotsLive reports how many epoch slots are currently owned by open
// sessions (registered minus free-listed) — the number of sessions created
// and not yet Closed. Serving layers assert this hits their baseline on
// shutdown: a parked-but-never-Closed session pool shows up here as a
// nonzero residue while the store goes down.
func (t *Table) EpochSlotsLive() int {
	t.epochMu.Lock()
	defer t.epochMu.Unlock()
	n := 0
	if p := t.epochSlots.Load(); p != nil {
		n = len(*p)
	}
	return n - len(t.epochFree)
}

// enterCritical begins an operation's resize-protected section: publish the
// current epoch in the session's slot, park if an exclusive barrier is up,
// and re-check the epoch so a swap racing the entry is never missed. On the
// uncontended path this is two atomic stores and two loads of
// mostly-read-shared words — no read-modify-write on any shared line.
func (s *session) enterCritical() {
	t := s.t
	e := t.epochGlobal.Load()
	for {
		s.ep.val.Store(e)
		if t.epochGate.Load() != 0 {
			// An exclusive section (invariant check, blocking resize) wants
			// the table quiesced: step back out and wait it out.
			s.ep.val.Store(0)
			for i := 0; t.epochGate.Load() != 0; i++ {
				spinBackoff(i)
			}
			e = t.epochGlobal.Load()
			continue
		}
		e2 := t.epochGlobal.Load()
		if e2 == e {
			return
		}
		e = e2 // a swap happened between the load and the publish; re-publish
	}
}

// exitCritical ends the section. One store to a line only this session
// writes.
func (s *session) exitCritical() {
	s.ep.val.Store(0)
}

// waitGrace blocks until every registered slot is idle or at an epoch >=
// target. Sessions registered after the registry snapshot are safe to skip:
// registration precedes entry in program order, so a session missing from a
// post-bump snapshot can only enter at the bumped epoch or later.
func (t *Table) waitGrace(target uint64) {
	p := t.epochSlots.Load()
	if p == nil {
		return
	}
	for _, sl := range *p {
		for i := 0; ; i++ {
			v := sl.val.Load()
			if v == 0 || v >= target {
				break
			}
			spinBackoff(i)
		}
	}
}

// epochExclude raises the gate and waits for every session to leave its
// critical section — the stop-the-world barrier for the invariant checker
// and the BlockingResize baseline. Callers must hold resizeMu (which
// serialises gate users) and must pair with epochRelease.
func (t *Table) epochExclude() {
	t.epochGate.Store(1)
	if p := t.epochSlots.Load(); p != nil {
		for _, sl := range *p {
			for i := 0; sl.val.Load() != 0; i++ {
				spinBackoff(i)
			}
		}
	}
}

// epochRelease drops the gate raised by epochExclude.
func (t *Table) epochRelease() {
	t.epochGate.Store(0)
}
