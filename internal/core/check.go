package core

import (
	"fmt"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
)

// CheckInvariants audits the table's full cross-structure consistency and
// returns every violation found (nil means healthy). It is meant for tests,
// crash-recovery validation, and the hdnhinspect tool — it takes the resize
// lock exclusively and scans everything, so do not call it on a hot path.
//
// Invariants checked:
//
//  1. OCF ↔ NVT agreement: every valid OCF entry has a committed NVT record
//     whose fingerprint matches, and every committed NVT record has a valid
//     OCF entry. No OCF entry is left writer-locked.
//  2. Placement: every record lives in one of its key's candidate buckets.
//  3. Uniqueness: no key is committed in two slots.
//  4. Count: the live counter equals the number of committed records.
//  5. Hot table coherence: every cached entry matches the NVT's current
//     value for its key (entries for absent keys or stale values are
//     violations).
func (t *Table) CheckInvariants() []error {
	// Let any in-flight incremental rehash settle first: mid-drain the
	// audit's quiescence assumptions (no slot locks held, stable count)
	// do not hold. A failed drain returns immediately with its level still
	// installed; the audit then covers it as a third level. The wait and the
	// lock acquisition race a fresh expansion (drain workers are not epoch
	// participants, so the gate alone cannot stop them) — loop until the
	// table is observed drained-or-failed with the mutator lock held. The
	// recovery sweep goes first: the audit reads every segment's OCF.
	t.waitSwept()
	for {
		t.waitDrain()
		t.resizeMu.Lock()
		if task := t.draining.Load(); task == nil || task.failed.Load() {
			break
		}
		t.resizeMu.Unlock()
	}
	defer t.resizeMu.Unlock()
	// Park every session: the audit reads slot words non-atomically with
	// respect to the commit protocol and counts live records against the
	// counter, neither of which tolerates concurrent ops.
	t.epochExclude()
	defer t.epochRelease()

	var errs []error
	h := t.dev.NewHandle()
	seen := make(map[kv.Key]slotRef)
	var live int64

	var lv [3]*level
	for li, lvl := range lv[:t.walkLevels(&lv)] {
		for b := int64(0); b < lvl.buckets(); b++ {
			for s := 0; s < SlotsPerBucket; s++ {
				c := lvl.ocfLoad(b, s)
				ref := slotRef{lvl, b, s}
				off := ref.wordOff()
				w3 := h.Load(off + 3)
				nvtValid := kv.ValidOf(w3)

				if ocfIsLocked(c) {
					errs = append(errs, fmt.Errorf("level %d bucket %d slot %d: OCF entry left locked", li, b, s))
				}
				if ocfIsValid(c) != nvtValid {
					errs = append(errs, fmt.Errorf("level %d bucket %d slot %d: OCF valid=%v but NVT valid=%v", li, b, s, ocfIsValid(c), nvtValid))
					continue
				}
				// SWAR word coherence: the packed fingerprint byte must mirror
				// the OCF entry (fp when valid, 0 when empty) or the probe
				// pre-filter could fabricate misses.
				wantFPW := uint8(0)
				if ocfIsValid(c) {
					wantFPW = ocfFP(c)
				}
				if got := uint8(lvl.fpwLoad(b) >> (uint(s) * 8)); got != wantFPW {
					errs = append(errs, fmt.Errorf("level %d bucket %d slot %d: SWAR fingerprint byte %#x, want %#x", li, b, s, got, wantFPW))
				}
				if !nvtValid {
					continue
				}
				live++
				k := kv.UnpackKey(h.Load(off), h.Load(off+1))
				h1, h2, fp := hashKV(k[:])
				if ocfFP(c) != fp {
					errs = append(errs, fmt.Errorf("level %d bucket %d slot %d: OCF fingerprint %#x, key hashes to %#x", li, b, s, ocfFP(c), fp))
				}
				inCandidates := false
				for _, cb := range lvl.candidates(h1, h2) {
					if cb == b {
						inCandidates = true
						break
					}
				}
				if !inCandidates {
					errs = append(errs, fmt.Errorf("level %d bucket %d slot %d: key %q not in its candidate buckets", li, b, s, k.String()))
				}
				if prev, dup := seen[k]; dup {
					errs = append(errs, fmt.Errorf("key %q committed twice: level-base %d bucket %d slot %d and level-base %d bucket %d slot %d",
						k.String(), prev.lvl.base, prev.b, prev.s, lvl.base, b, s))
				} else {
					seen[k] = ref
				}
			}
		}
	}

	if got := t.count.Load(); got != live {
		errs = append(errs, fmt.Errorf("count %d but %d committed records", got, live))
	}

	if t.hot != nil {
		errs = append(errs, t.checkHotCoherence(h, seen)...)
	}
	return errs
}

// checkHotCoherence verifies every cache entry against the authoritative
// NVT state. Caller holds the resize lock exclusively.
func (t *Table) checkHotCoherence(hh interface {
	Load(int64) uint64
}, nvt map[kv.Key]slotRef) []error {
	var errs []error
	hp := t.hot.pair()
	for li, l := range [2]*hotLevel{hp.top, hp.bottom} {
		for idx := int64(0); idx < int64(len(l.ctrl)); idx++ {
			c := l.loadCtrl(idx)
			if c&hotValid == 0 {
				continue
			}
			var w [slotWords]uint64
			l.loadSlot(idx, &w)
			k := kv.UnpackKey(w[0], w[1])
			v, _ := kv.UnpackValue(w[2], w[3])
			ref, exists := nvt[k]
			if !exists {
				errs = append(errs, fmt.Errorf("hot level %d: phantom cache entry for absent key %q", li, k.String()))
				continue
			}
			off := ref.wordOff()
			nw2 := hh.Load(off + 2)
			nw3 := hh.Load(off + 3)
			nv, _ := kv.UnpackValue(nw2, nw3)
			if nv != v {
				errs = append(errs, fmt.Errorf("hot level %d: stale cache for key %q (cached %q, NVT %q)", li, k.String(), v.String(), nv.String()))
			}
			// Placement: the entry must sit in the key's hot bucket.
			h1 := hashfn.Hash1(k[:])
			if want := l.bucket(h1); idx/int64(l.slotsPer) != want {
				errs = append(errs, fmt.Errorf("hot level %d: key %q cached in bucket %d, hashes to %d", li, k.String(), idx/int64(l.slotsPer), want))
			}
		}
	}
	return errs
}
