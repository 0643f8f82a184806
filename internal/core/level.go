package core

import (
	"sync/atomic"

	"hdnh/internal/hashfn"
)

// level is the in-DRAM view of one NVT level: the NVM base address plus the
// level's OCF — one control word per slot — and the packed per-bucket SWAR
// fingerprint words the probe loops use to find candidate slots with one
// load instead of SlotsPerBucket scattered uint32 loads.
type level struct {
	base     int64 // NVM word offset of the first bucket
	segments int64
	m        int64    // buckets per segment
	ocf      []uint32 // one control word per slot, indexed bucket*8+slot
	fpw      []uint64 // one packed fingerprint word per bucket (8 fp bytes)
}

func newLevel(base, segments, m int64) *level {
	return &level{
		base:     base,
		segments: segments,
		m:        m,
		ocf:      make([]uint32, segments*m*SlotsPerBucket),
		fpw:      make([]uint64, segments*m),
	}
}

func (l *level) buckets() int64 { return l.segments * l.m }
func (l *level) slots() int64   { return l.buckets() * SlotsPerBucket }

// bucketWord returns the NVM word offset of global bucket b.
func (l *level) bucketWord(b int64) int64 { return l.base + b*BucketWords }

// slotWord returns the NVM word offset of slot s in global bucket b.
func (l *level) slotWord(b int64, s int) int64 {
	return l.base + b*BucketWords + int64(s)*slotWords
}

// words returns the NVM footprint of the level.
func (l *level) words() int64 { return l.buckets() * BucketWords }

// OCF control word layout (the paper's 2-byte OCF entry: bitmap bit, opmap
// bit, 6-bit version, 1-byte fingerprint — widened to an atomic uint32):
//
//	bit 0      valid (the paper's bitmap bit)
//	bit 1      op: slot locked by a writer (the paper's opmap bit)
//	bits 2..7  version, 6 bits, bumped on every writer unlock
//	bits 8..15 fingerprint
const (
	ocfValid    = uint32(1) << 0
	ocfOp       = uint32(1) << 1
	ocfVerShift = 2
	ocfVerMask  = uint32(0x3f) << ocfVerShift
	ocfFPShift  = 8
	ocfFPMask   = uint32(0xff) << ocfFPShift
)

func ocfWord(valid bool, fp uint8, ver uint32) uint32 {
	w := ver<<ocfVerShift&ocfVerMask | uint32(fp)<<ocfFPShift
	if valid {
		w |= ocfValid
	}
	return w
}

func ocfVer(w uint32) uint32    { return (w & ocfVerMask) >> ocfVerShift }
func ocfFP(w uint32) uint8      { return uint8(w >> ocfFPShift) }
func ocfIsValid(w uint32) bool  { return w&ocfValid != 0 }
func ocfIsLocked(w uint32) bool { return w&ocfOp != 0 }

// ocfLoad atomically reads the control word for slot s of bucket b.
func (l *level) ocfLoad(b int64, s int) uint32 {
	return atomic.LoadUint32(&l.ocf[b*SlotsPerBucket+int64(s)])
}

// ocfTryLock attempts to CAS the observed control word old (which must be
// unlocked) to its locked form. All NVT slot writes happen with the lock
// held, which is what makes the lock-free reader's version check sound.
func (l *level) ocfTryLock(b int64, s int, old uint32) bool {
	return atomic.CompareAndSwapUint32(&l.ocf[b*SlotsPerBucket+int64(s)], old, old|ocfOp)
}

// ocfRelease publishes the slot's new state: op cleared, version bumped.
// A plain store is safe because only the lock holder may write the word
// while op is set (readers only ever CAS hot bits in the hot table, not
// here). The SWAR fingerprint byte is maintained alongside, on BOTH paths
// strictly before the word store. For a valid release that is the
// no-false-negative rule: a probe that can see the valid OCF entry can see
// the byte. For an invalid release the early clear can make a probe skip a
// slot the OCF still shows valid — but a releaser only gets here once the
// retirement is durable and any replacement copy is already published (the
// publish-before-retire order of §4, with the movement counter bumped in
// between), so a skipping probe observes the committed post-retire state.
// The order is also what makes slot reuse safe: the word store is the
// handoff, and nothing may follow it — a trailing fpwSet would race the
// next locker of the slot, whose own release could be clobbered by our
// late clear (a valid slot with a zero byte is invisible to the SWAR
// pre-filter: a lost key). Sequential consistency of the atomics makes the
// argument: a new locker's CAS observes our store, so its fpwSet is
// ordered after ours.
func (l *level) ocfRelease(b int64, s int, valid bool, fp uint8, prevVer uint32) {
	if valid {
		l.fpwSet(b, s, fp)
		atomic.StoreUint32(&l.ocf[b*SlotsPerBucket+int64(s)], ocfWord(true, fp, prevVer+1))
		return
	}
	l.fpwSet(b, s, 0)
	atomic.StoreUint32(&l.ocf[b*SlotsPerBucket+int64(s)], ocfWord(false, 0, prevVer+1))
}

// ocfAnnounce publishes fp on a slot the caller has locked empty, leaving it
// locked and invalid: from here on a probe for any key with this fingerprint
// waits on the slot (or reports contention) instead of walking past it. That
// is how an in-flight insert becomes visible to a second writer of the same
// key (see session.stage). SWAR byte before the word store, as in ocfRelease.
func (l *level) ocfAnnounce(b int64, s int, fp uint8, locked uint32) {
	l.fpwSet(b, s, fp)
	atomic.StoreUint32(&l.ocf[b*SlotsPerBucket+int64(s)], ocfWord(false, fp, ocfVer(locked))|ocfOp)
}

// fpwLoad reads bucket b's packed fingerprint word.
func (l *level) fpwLoad(b int64) uint64 { return atomic.LoadUint64(&l.fpw[b]) }

// fpwSet writes slot s's fingerprint byte in bucket b's packed word. CAS
// loop: the per-slot OCF lock does not cover the bucket-shared word, so
// concurrent writers of sibling slots compose through the CAS.
func (l *level) fpwSet(b int64, s int, fp uint8) {
	addr := &l.fpw[b]
	shift := uint(s) * 8
	for {
		old := atomic.LoadUint64(addr)
		nw := old&^(uint64(0xff)<<shift) | uint64(fp)<<shift
		if nw == old || atomic.CompareAndSwapUint64(addr, old, nw) {
			return
		}
	}
}

// SWAR lane constants for the packed fingerprint words.
const (
	fpwLanes = 0x0101010101010101
	fpwHigh  = 0x8080808080808080
)

// swarMatch returns a mask with bit 8s+7 set for every slot s whose packed
// fingerprint byte MAY equal fp (the classic haszero trick on w XOR
// broadcast(fp)). No false negatives: a lane equal to fp XORs to zero and
// is always flagged, borrow-in or not. False positives are possible (a lane
// 0x01 above a zero lane inherits its borrow) and harmless — every
// candidate is re-verified against the authoritative OCF word. Iterate with
// bits.TrailingZeros64(m)>>3 and m &= m-1: each lane carries exactly one
// marker bit.
func swarMatch(w uint64, fp uint8) uint64 {
	x := w ^ (fpwLanes * uint64(fp))
	return (x - fpwLanes) &^ x & fpwHigh
}

// candidates computes the paper's candidate buckets in this level: the two
// hash functions pick two candidate segments, and two bucket choices inside
// each segment (the "2-cuckoo" strategy) give four candidate buckets per
// level. Returned indexes are global bucket numbers and deduplicated in a
// deterministic way so probing never visits a bucket twice.
func (l *level) candidates(h1, h2 uint64) [4]int64 {
	seg1 := int64(h1 % uint64(l.segments))
	seg2 := int64(h2 % uint64(l.segments))
	m := uint64(l.m)
	segs := [4]int64{seg1, seg1, seg2, seg2}
	bs := [4]int64{
		int64(h1 >> 32 % m),
		int64(h1 >> 48 % m),
		int64(h2 >> 32 % m),
		int64(h2 >> 48 % m),
	}
	c := [4]int64{
		segs[0]*l.m + bs[0],
		segs[1]*l.m + bs[1],
		segs[2]*l.m + bs[2],
		segs[3]*l.m + bs[3],
	}
	// Fast path: the hash bits almost always pick four distinct buckets
	// already, and this function sits on every probe of the read path.
	if c[0] != c[1] && c[0] != c[2] && c[0] != c[3] &&
		c[1] != c[2] && c[1] != c[3] && c[2] != c[3] {
		return c
	}
	for i := 0; i < 4; i++ {
		// Distinctify by linear probing within the segment. Whenever the
		// geometry allows four distinct buckets (m >= 4, or m >= 2 across
		// two segments) this terminates with no duplicates; degenerate
		// geometries keep (harmless, merely redundant) duplicates.
		for tries := int64(0); tries < l.m; tries++ {
			dup := false
			for j := 0; j < i; j++ {
				if c[j] == c[i] {
					dup = true
					break
				}
			}
			if !dup {
				break
			}
			bs[i] = (bs[i] + 1) % l.m
			c[i] = segs[i]*l.m + bs[i]
		}
	}
	return c
}

// hashKV returns both hashes plus the fingerprint for key bytes.
func hashKV(key []byte) (h1, h2 uint64, fp uint8) {
	h1, h2 = hashfn.Pair(key)
	return h1, h2, hashfn.Fingerprint(h1)
}
