package core

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"hdnh/internal/hashfn"
)

// level is the in-DRAM view of one NVT level: the NVM base address plus the
// level's OCF — one control word per slot — and the packed per-bucket SWAR
// fingerprint words the probe loops use to find candidate slots with one
// load instead of SlotsPerBucket scattered uint32 loads. Both live in
// chunks that appear on their first store (see chunked): a level starts as
// its two pointer arrays, so creating, growing or reopening a table zeroes
// no DRAM index.
type level struct {
	base     int64 // NVM word offset of the first bucket
	segments int64
	m        int64           // buckets per segment
	shift    uint            // log2 of the buckets a chunk holds
	mask     int64           // 1<<shift - 1
	ocf      chunked[uint32] // SlotsPerBucket control words per bucket
	fpw      chunked[uint64] // one packed fingerprint word per bucket
}

// chunkShift caps a chunk at 512 buckets, so a large level is made of few
// allocations; smaller levels get smaller chunks (chunkShiftFor). A chunk
// always holds a power of two of buckets, so locating a bucket's chunk is a
// shift and a mask.
const chunkShift = 9

// chunkShiftFor is the log2 of the buckets a chunk of a level of buckets
// buckets holds: the largest power of two up to 1<<max that divides the
// level, so the chunks tile it exactly and a level whose every chunk exists
// holds what a flat array would, whatever its size.
func chunkShiftFor(buckets int64, max uint) uint {
	return min(uint(bits.TrailingZeros64(uint64(buckets))), max)
}

func newLevel(base, segments, m int64) *level {
	buckets := segments * m
	shift := chunkShiftFor(buckets, chunkShift)
	return &level{
		base:     base,
		segments: segments,
		m:        m,
		shift:    shift,
		mask:     1<<shift - 1,
		ocf:      newChunked[uint32](buckets>>shift, SlotsPerBucket<<shift),
		fpw:      newChunked[uint64](buckets>>shift, 1<<shift),
	}
}

// chunked is an array of T held in chunks of n elements, one pointer per
// chunk. A chunk is created on the first store into it (own): made zeroed,
// installed with one CAS, and the loser of a race adopts the winner's.
// Nothing is stored into a chunk before it is installed, and an installed
// pointer never changes, so a reader that loads nil has seen every element
// of the chunk as it was before any store: zero, what a fresh flat array
// would hold (INTERNALS §7). T must hold no pointer. A chunk is a plain
// make([]T, n) kept by its first element's address, which unsafe.Slice
// turns back into the slice: the chunk length is the level's, not a
// constant, yet a load is one pointer and no header.
type chunked[T any] struct {
	ptrs []atomic.Pointer[T]
	n    uint32 // elements per chunk
}

func newChunked[T any](chunks, n int64) chunked[T] {
	return chunked[T]{ptrs: make([]atomic.Pointer[T], chunks), n: uint32(n)}
}

// load returns chunk i, or nil while it does not exist.
func (c *chunked[T]) load(i int64) []T {
	if p := c.ptrs[i].Load(); p != nil {
		return unsafe.Slice(p, c.n)
	}
	return nil
}

// own returns chunk i, creating it first if it does not exist yet: every
// store into a chunked array goes through it.
func (c *chunked[T]) own(i int64) []T {
	if p := c.ptrs[i].Load(); p != nil {
		return unsafe.Slice(p, c.n)
	}
	return c.create(i)
}

// create makes chunk i and installs it, or adopts the chunk a racing
// creator installed first.
//
//go:noinline
func (c *chunked[T]) create(i int64) []T {
	p := &make([]T, c.n)[0]
	if !c.ptrs[i].CompareAndSwap(nil, p) {
		p = c.ptrs[i].Load()
	}
	return unsafe.Slice(p, c.n)
}

// bytes is what the array holds in DRAM: its pointers, and each chunk that
// exists.
func (c *chunked[T]) bytes() int64 {
	var zero T
	n := int64(len(c.ptrs)) * int64(unsafe.Sizeof(c.ptrs[0]))
	for i := range c.ptrs {
		if c.ptrs[i].Load() != nil {
			n += int64(c.n) * int64(unsafe.Sizeof(zero))
		}
	}
	return n
}

// dramBytes is what the level holds in DRAM: its pointer arrays and the
// chunks that exist.
func (l *level) dramBytes() int64 { return l.ocf.bytes() + l.fpw.bytes() }

// chunkOf splits global bucket b into its chunk and its offset there.
func (l *level) chunkOf(b int64) (chunk, off int64) { return b >> (l.shift & 63), b & l.mask }

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

// ocfLoad atomically reads the control word for slot s of bucket b: zero
// while its chunk does not exist.
func (l *level) ocfLoad(b int64, s int) uint32 {
	i, off := l.chunkOf(b)
	if c := l.ocf.load(i); c != nil {
		return atomic.LoadUint32(&c[off*SlotsPerBucket+int64(s)])
	}
	return 0
}

// ocfAddr is the address of slot s of bucket b's control word, in a chunk
// that exists.
func (l *level) ocfAddr(b int64, s int) *uint32 {
	i, off := l.chunkOf(b)
	return &l.ocf.own(i)[off*SlotsPerBucket+int64(s)]
}

// fpwAddr is the address of bucket b's packed fingerprint word, in a chunk
// that exists.
func (l *level) fpwAddr(b int64) *uint64 {
	i, off := l.chunkOf(b)
	return &l.fpw.own(i)[off]
}

// ocfTryLock attempts to CAS the observed control word old (which must be
// unlocked) to its locked form. All NVT slot writes happen with the lock
// held, which is what makes the lock-free reader's version check sound.
func (l *level) ocfTryLock(b int64, s int, old uint32) bool {
	return atomic.CompareAndSwapUint32(l.ocfAddr(b, s), old, old|ocfOp)
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
		atomic.StoreUint32(l.ocfAddr(b, s), ocfWord(true, fp, prevVer+1))
		return
	}
	l.fpwSet(b, s, 0)
	atomic.StoreUint32(l.ocfAddr(b, s), ocfWord(false, 0, prevVer+1))
}

// ocfAnnounce publishes fp on a slot the caller has locked empty, leaving it
// locked and invalid: from here on a probe for any key with this fingerprint
// waits on the slot (or reports contention) instead of walking past it. That
// is how an in-flight insert becomes visible to a second writer of the same
// key (see session.stage). SWAR byte before the word store, as in ocfRelease.
func (l *level) ocfAnnounce(b int64, s int, fp uint8, locked uint32) {
	l.fpwSet(b, s, fp)
	atomic.StoreUint32(l.ocfAddr(b, s), ocfWord(false, fp, ocfVer(locked))|ocfOp)
}

// fpwLoad reads bucket b's packed fingerprint word: zero while its chunk
// does not exist.
func (l *level) fpwLoad(b int64) uint64 {
	i, off := l.chunkOf(b)
	if c := l.fpw.load(i); c != nil {
		return atomic.LoadUint64(&c[off])
	}
	return 0
}

// fpwSet writes slot s's fingerprint byte in bucket b's packed word. CAS
// loop: the per-slot OCF lock does not cover the bucket-shared word, so
// concurrent writers of sibling slots compose through the CAS.
func (l *level) fpwSet(b int64, s int, fp uint8) {
	addr := l.fpwAddr(b)
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
