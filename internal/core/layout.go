package core

import (
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
)

// NVT geometry. A bucket is one 256-byte NVM block holding eight 32-byte
// slots; there is no bucket header — each slot carries its own meta byte
// (valid bit + commit stamp) in the top byte of its final word, so an 8-byte
// atomic store commits a record (see internal/kv).
const (
	// SlotsPerBucket is the paper's slot count for non-volatile buckets.
	SlotsPerBucket = 8
	// slotWords is words per slot (from the kv record format).
	slotWords = kv.SlotWords
	// BucketWords is words per bucket: exactly one NVM block.
	BucketWords = SlotsPerBucket * slotWords
)

// Slot meta byte layout (top byte of w3): bit 0 is the persisted valid bit
// (the paper's per-slot bitmap backup); bits 1..6 are a 6-bit commit stamp
// that orders the two versions a crashed out-of-place update can leave
// behind, so recovery keeps the newer one.
const (
	metaValid     = kv.MetaValid
	metaStampMask = 0x3f
	metaStampBits = 6
)

func packMeta(valid bool, stamp uint8) uint8 {
	m := (stamp & metaStampMask) << 1
	if valid {
		m |= metaValid
	}
	return m
}

func metaStamp(meta uint8) uint8 { return (meta >> 1) & metaStampMask }

// stampNewer reports whether stamp a is newer than b in mod-64 arithmetic.
func stampNewer(a, b uint8) bool {
	return (a-b)&metaStampMask != 0 && (a-b)&metaStampMask < 1<<(metaStampBits-1)
}

// Persistent metadata block. Root slot 0 of the device points at it.
//
//	word 0       magic
//	word 1       state: levelNumber | role indexes | generation (atomic)
//	words 2..7   three level descriptors: (base ptr, segment count) x 3
//	word 8       segmentBuckets (m)
//	word 9       unused, zero
//	word 10      clean-shutdown flag
//	word 11      drain range count R for the parallel rehash (0 = no drain
//	             layout persisted)
//	words 12..27 per-range drain progress: buckets durably rehashed from the
//	             start of range i (i < R ≤ MaxDrainRanges)
const (
	metaWords = nvm.BlockWords

	metaMagicWord    = 0
	metaStateWord    = 1
	metaLevelBase    = 2 // descriptor i at words 2+2i, 3+2i
	metaMWord        = 8
	metaCleanWord    = 10
	metaDrainRanges  = 11
	metaDrainBase    = 12
	rootSlot         = 0
	tableMagic       = uint64(0x48444e48544f504c) // "HDNHTOPL"
	numLevelSlots    = 3
	levelSlotUnused  = 3
	levelNumStable   = 1
	levelNumRequest  = 2 // paper's "2": new level requested, not yet switched
	levelNumRehash   = 3 // paper's "3": rehashing in progress
	stateLevelShift  = 0
	stateTopShift    = 8
	stateBottomShift = 10
	stateDrainShift  = 12
	stateGenShift    = 16
)

// MaxDrainRanges bounds how many disjoint bucket ranges (and hence parallel
// drain workers) one rehash may persist progress for: the meta block has 16
// progress words (12..27).
const MaxDrainRanges = 16

// tableState is the decoded form of the atomic state word. levelNumber
// follows the paper: 1 stable, 2 new level requested, 3 rehashing. top,
// bottom and drain are level-descriptor slot indexes (0..2, 3 = unused);
// during levelNumRequest drain names the slot the new level will occupy.
type tableState struct {
	levelNumber uint8
	top         uint8
	bottom      uint8
	drain       uint8
	generation  uint64
}

func (s tableState) pack() uint64 {
	return uint64(s.levelNumber)<<stateLevelShift |
		uint64(s.top)<<stateTopShift |
		uint64(s.bottom)<<stateBottomShift |
		uint64(s.drain)<<stateDrainShift |
		s.generation<<stateGenShift
}

func unpackState(w uint64) tableState {
	return tableState{
		levelNumber: uint8(w >> stateLevelShift),
		top:         uint8(w>>stateTopShift) & 3,
		bottom:      uint8(w>>stateBottomShift) & 3,
		drain:       uint8(w>>stateDrainShift) & 3,
		generation:  w >> stateGenShift,
	}
}

// levelDescriptor reads descriptor slot i from the meta block.
func (t *Table) levelDescriptor(i uint8) (base, segments int64) {
	base = int64(t.dev.Load(t.metaOff + metaLevelBase + 2*int64(i)))
	segments = int64(t.dev.Load(t.metaOff + metaLevelBase + 2*int64(i) + 1))
	return base, segments
}

// writeLevelDescriptor durably stores descriptor slot i.
func (t *Table) writeLevelDescriptor(h *nvm.Handle, i uint8, base, segments int64) {
	w := t.metaOff + metaLevelBase + 2*int64(i)
	h.Store(w, uint64(base))
	h.Store(w+1, uint64(segments))
	h.WriteAccess(w, 2)
	h.Flush(w, 2)
	h.Fence()
}
