// Package vlog is a segmented, crash-safe value log on the emulated NVM
// device — the key-value separation the paper's reference list points at
// (WiscKey [19]): HDNH's fixed 15-byte slots hold a log address while the
// log holds values of any size.
//
// The data region is split into fixed-size segments so space can be
// reclaimed online: bigkv's GC copies the live records out of a cold
// segment and recycles it in place, keeping the log's device footprint
// bounded forever (the old design rolled the whole log into a freshly
// allocated region, leaking address space on the bump allocator every
// time).
//
// Record layout (word-aligned, within one segment):
//
//	word 0      header: length (32 bits) | checksum (32 bits)
//	words 1..2  the 16-byte key
//	words 3..n  payload, zero-padded to a word boundary
//
// The key rides in every record so (a) the GC can ask the index whether a
// record it walks past is still referenced and (b) a reader holding a stale
// address into a recycled-and-reused segment detects the mismatch instead
// of returning another key's bytes. The checksum covers key and payload and
// is computed in DRAM from the bytes in hand — never by re-reading NVM.
//
// Recovery reads no record beyond the active segment's unsynced tail: the
// owner rebuilds the liveness counters from the pointers its index holds
// (AddLive per pointer, Covers to reject a dangling one).
//
// Append protocol: payload and key words are written and flushed first,
// then the header word is persisted last (8-byte atomic commit). A torn
// append therefore leaves a zero or garbage header that fails validation
// and is treated as the end of the segment during recovery scans.
//
// Segment lifecycle: FREE → ACTIVE (appends go here) → SEALED (full) →
// FREEING (being zeroed) → FREE. Every transition is a single 8-byte
// persist, ordered so a crash image holds at most one ACTIVE segment.
// Recycling zeroes the data words before re-marking the segment FREE, so
// a recovery scan of a reused segment stops at the zero headers instead
// of resurrecting dead records; a crash mid-zero leaves the segment
// FREEING and Open simply zeroes it again.
package vlog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hdnh/internal/flight"
	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
)

// Meta layout (at the log's base):
//
//	word 0      magic
//	word 1      segment size in words (fixed at creation)
//	word 2      segment count (fixed at creation)
//	word 3      reserved
//	word 4+2i   segment i state (SegState)
//	word 5+2i   segment i durable head (lazily persisted append cursor;
//	            exact once the segment seals)
//
// Data segments start at base+metaWords, rounded up to a block boundary.
const (
	logMagic = uint64(0x48444e48534c4f47) // "HDNHSLOG"

	magicWord    = 0
	segWordsWord = 1
	numSegsWord  = 2

	segMetaBase = 4

	// recordHeaderWords is the per-record overhead: the commit header plus
	// the two key words.
	recordHeaderWords = 3

	// headSyncInterval bounds how much of the active segment a recovery
	// scan must re-verify: the durable head is persisted at least this
	// often.
	headSyncInterval = 1024

	// MinSegmentWords keeps segments large enough to hold a record and
	// small enough bookkeeping to matter.
	MinSegmentWords = 16

	// zeroChunkWords is the flush granularity while zeroing a segment.
	zeroChunkWords = 512
)

// SegState is a segment's durable lifecycle state.
type SegState uint8

// Segment states. The zero value is SegFree so a freshly allocated
// (all-zero) region starts with every segment free.
const (
	SegFree    SegState = 0
	SegActive  SegState = 1
	SegSealed  SegState = 2
	SegFreeing SegState = 3
)

// String returns the state name.
func (s SegState) String() string {
	switch s {
	case SegFree:
		return "free"
	case SegActive:
		return "active"
	case SegSealed:
		return "sealed"
	case SegFreeing:
		return "freeing"
	default:
		return fmt.Sprintf("SegState(%d)", uint8(s))
	}
}

// ErrCorrupt reports a failed record validation on read: a bad length, a
// checksum mismatch, or a key mismatch. Callers holding an address read
// from an index should re-read the index — the record may simply have
// been moved by GC and its segment recycled.
var ErrCorrupt = errors.New("vlog: corrupt record")

// ErrLogFull reports an append that found no free segment to activate.
var ErrLogFull = errors.New("vlog: log full")

// ErrSegmentLive reports a Recycle of a segment that still has live words.
var ErrSegmentLive = errors.New("vlog: segment has live records")

// Log is a segmented value log. Appends and Recycle are safe for
// concurrent use; reads are lock-free.
type Log struct {
	dev       *nvm.Device
	base      int64
	segWords  int64
	numSegs   int64
	metaWords int64

	mu        sync.Mutex
	active    int64 // index of the ACTIVE segment, -1 if none
	head      int64 // append cursor within the active segment
	sinceSync int64
	free      []int64
	nfree     atomic.Int64 // len(free), stored under mu, read lock-free
	state     []SegState
	used      []int64 // appended words per segment (exact; DRAM)

	// live counts the words of records an index still references, one
	// counter per segment. Append increments its destination optimistically;
	// whoever makes a record unreferenced calls AddLive with the negative
	// count (see bigkv's accounting protocol). Atomic so index operations
	// never take the log mutex.
	live []atomic.Int64

	appended atomic.Int64 // lifetime appended words, user + GC copies
	recycles atomic.Int64 // segments recycled back to the free list

	// fl traces segment lifecycle transitions; flight.Nop until the owner
	// installs a real tracer via SetTracer. Guarded by mu on the mutating
	// paths that emit (roll, SealActive, Recycle).
	fl flight.Tracer
}

// SetTracer installs the flight tracer segment state transitions are traced
// into. Call before the log sees traffic; the default is the no-op tracer.
func (l *Log) SetTracer(fl flight.Tracer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fl == nil {
		fl = flight.Nop{}
	}
	l.fl = fl
}

// Create allocates a log of numSegs segments of segWords data words each.
func Create(dev *nvm.Device, h *nvm.Handle, segWords, numSegs int64) (*Log, error) {
	if segWords < MinSegmentWords {
		return nil, fmt.Errorf("vlog: segment size %d words (min %d)", segWords, MinSegmentWords)
	}
	if numSegs < 2 {
		return nil, fmt.Errorf("vlog: %d segments (min 2: one active, one in GC reserve)", numSegs)
	}
	meta := blockRound(segMetaBase + 2*numSegs)
	base, err := dev.Alloc(h, meta+numSegs*segWords, nvm.BlockWords)
	if err != nil {
		return nil, err
	}
	l := newLog(dev, base, segWords, numSegs, meta)
	// A fresh allocation is all zero, so every segment is already durably
	// FREE with head 0; persisting the geometry and then the magic commits
	// the log.
	h.StorePersist(base+segWordsWord, uint64(segWords))
	h.StorePersist(base+numSegsWord, uint64(numSegs))
	h.StorePersist(base+magicWord, logMagic)
	for seg := numSegs - 1; seg >= 0; seg-- {
		l.free = append(l.free, seg)
	}
	l.nfree.Store(numSegs)
	return l, nil
}

func newLog(dev *nvm.Device, base, segWords, numSegs, metaWords int64) *Log {
	return &Log{
		dev:       dev,
		base:      base,
		segWords:  segWords,
		numSegs:   numSegs,
		metaWords: metaWords,
		active:    -1,
		state:     make([]SegState, numSegs),
		used:      make([]int64, numSegs),
		live:      make([]atomic.Int64, numSegs),
		fl:        flight.Nop{},
	}
}

// Open recovers a log created at base. Sealed segments trust their durable
// head; the active segment (at most one can exist in any crash image) is
// re-scanned forward from its durable head over committed records; a
// segment caught mid-recycle (FREEING) is zeroed again — the zeroing is
// idempotent — and returned to the free list. Liveness counters start at
// zero; the owner rebuilds them by scanning records against its index.
func Open(dev *nvm.Device, h *nvm.Handle, base int64) (*Log, error) {
	if dev.Load(base+magicWord) != logMagic {
		return nil, errors.New("vlog: bad magic")
	}
	segWords := int64(dev.Load(base + segWordsWord))
	numSegs := int64(dev.Load(base + numSegsWord))
	if segWords < MinSegmentWords || numSegs < 2 {
		return nil, fmt.Errorf("vlog: corrupt geometry: %d segments x %d words", numSegs, segWords)
	}
	l := newLog(dev, base, segWords, numSegs, blockRound(segMetaBase+2*numSegs))
	for seg := int64(0); seg < numSegs; seg++ {
		h.ReadAccess(l.segStateOff(seg), 2)
		st := SegState(dev.Load(l.segStateOff(seg)))
		head := int64(dev.Load(l.segHeadOff(seg)))
		if head < 0 || head > segWords {
			return nil, fmt.Errorf("vlog: segment %d: corrupt durable head %d", seg, head)
		}
		switch st {
		case SegFree:
			l.free = append(l.free, seg)
		case SegFreeing:
			// Crashed mid-recycle. The durable head may already be reset, so
			// ignore it and zero the whole segment again.
			l.zeroSegment(h, seg, segWords)
			h.StorePersist(l.segHeadOff(seg), 0)
			h.StorePersist(l.segStateOff(seg), uint64(SegFree))
			l.state[seg] = SegFree
			l.free = append(l.free, seg)
		case SegSealed:
			l.state[seg] = SegSealed
			l.used[seg] = head
		case SegActive:
			if l.active >= 0 {
				return nil, fmt.Errorf("vlog: segments %d and %d both active", l.active, seg)
			}
			// The durable head lags the true head by at most headSyncInterval;
			// scan forward over committed records to find the end.
			end := head
			l.scanFrom(h, seg, head, func(_, words int64, _ kv.Key, _ []byte) bool {
				end += words
				return true
			})
			l.state[seg] = SegActive
			l.active = seg
			l.head = end
			l.used[seg] = end
		default:
			return nil, fmt.Errorf("vlog: segment %d: corrupt state %d", seg, uint8(st))
		}
	}
	l.nfree.Store(int64(len(l.free)))
	return l, nil
}

// Base returns the log's device offset (store it in a root).
func (l *Log) Base() int64 { return l.base }

// SegmentWords returns the data words per segment.
func (l *Log) SegmentWords() int64 { return l.segWords }

// Segments returns the segment count.
func (l *Log) Segments() int64 { return l.numSegs }

// Capacity returns the total data capacity in words.
func (l *Log) Capacity() int64 { return l.numSegs * l.segWords }

// FreeSegments returns the number of segments on the free list. Lock-free:
// callers poll it after every append.
func (l *Log) FreeSegments() int { return int(l.nfree.Load()) }

// State returns segment seg's lifecycle state.
func (l *Log) State(seg int64) SegState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state[seg]
}

// SegUsed returns the words appended into segment seg.
func (l *Log) SegUsed(seg int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used[seg]
}

// SegLive returns segment seg's live-word count.
func (l *Log) SegLive(seg int64) int64 { return l.live[seg].Load() }

// AddLive adjusts the live-word counter of the segment containing addr.
// The owner calls this with the record's word count when an index entry
// starts or stops referencing the record at addr.
func (l *Log) AddLive(addr, delta int64) { l.live[addr/l.segWords].Add(delta) }

// Covers reports whether words [addr, addr+words) lie inside the appended
// part of a SEALED or ACTIVE segment — what a pointer to a committed record
// satisfies and a dangling one does not.
func (l *Log) Covers(addr, words int64) bool {
	if addr < 0 || addr >= l.Capacity() || words < recordHeaderWords {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state[addr/l.segWords]
	return (st == SegSealed || st == SegActive) && addr%l.segWords+words <= l.used[addr/l.segWords]
}

// LiveWords returns the total live words across all segments.
func (l *Log) LiveWords() int64 {
	var sum int64
	for i := range l.live {
		sum += l.live[i].Load()
	}
	return sum
}

// UsedWords returns the total words appended into sealed and active
// segments (recycled segments drop out).
func (l *Log) UsedWords() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum int64
	for _, u := range l.used {
		sum += u
	}
	return sum
}

// AppendedWords returns the lifetime appended word count (user appends
// plus GC copies; recycling does not subtract).
func (l *Log) AppendedWords() int64 { return l.appended.Load() }

// Recycles returns how many segments have been recycled to the free list.
func (l *Log) Recycles() int64 { return l.recycles.Load() }

func (l *Log) segStateOff(seg int64) int64 { return l.base + segMetaBase + 2*seg }
func (l *Log) segHeadOff(seg int64) int64  { return l.base + segMetaBase + 2*seg + 1 }
func (l *Log) dataOff(addr int64) int64    { return l.base + l.metaWords + addr }

func blockRound(words int64) int64 {
	if r := words % nvm.BlockWords; r != 0 {
		words += nvm.BlockWords - r
	}
	return words
}

func payloadWords(length int64) int64 { return (length + 7) / 8 }

// RecordWords returns the total words a value of the given byte length
// occupies in the log, header and key included.
func RecordWords(length int) int64 { return recordHeaderWords + payloadWords(int64(length)) }

// Checksum is the record checksum over key and payload, computed in DRAM
// from the bytes in hand.
func Checksum(key kv.Key, value []byte) uint32 {
	return uint32(hashfn.Sum64(hashfn.Sum64(0xC5C5, key[:]), value))
}

// Append durably stores a record for key and returns its address (the
// record's word offset within the data region, which fits in 8 bytes and
// can live in an HDNH slot value) and its total word count. Append keeps
// one free segment in reserve for the GC's relocation copies; when only
// the reserve is left it returns ErrLogFull — run a GC pass and retry.
func (l *Log) Append(h *nvm.Handle, key kv.Key, value []byte) (addr, words int64, err error) {
	return l.append(h, key, value, 1)
}

// AppendGC is Append for the GC's relocation copies: it may activate the
// reserved last free segment, so space reclamation can always proceed.
func (l *Log) AppendGC(h *nvm.Handle, key kv.Key, value []byte) (addr, words int64, err error) {
	return l.append(h, key, value, 0)
}

func (l *Log) append(h *nvm.Handle, key kv.Key, value []byte, reserve int) (int64, int64, error) {
	if len(value) == 0 {
		return 0, 0, errors.New("vlog: empty value")
	}
	length := int64(len(value))
	words := recordHeaderWords + payloadWords(length)
	if words > l.segWords {
		return 0, 0, fmt.Errorf("vlog: value needs %d words, segment holds %d", words, l.segWords)
	}

	// The mutex is held across the whole append so committed records form a
	// contiguous prefix of the active segment: if appends could commit out
	// of order, a crash in an earlier (still uncommitted) record would hide
	// later committed ones from Open's forward scan.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active < 0 || l.head+words > l.segWords {
		if err := l.roll(h, reserve); err != nil {
			return 0, 0, err
		}
	}
	seg, inSeg := l.active, l.head
	addr := seg*l.segWords + inSeg
	off := l.dataOff(addr)

	// Key and payload first...
	l.dev.Store(off+1, wordOf(key[0:8]))
	l.dev.Store(off+2, wordOf(key[8:16]))
	for i := int64(0); i < payloadWords(length); i++ {
		var w uint64
		for b := 0; b < 8; b++ {
			if idx := i*8 + int64(b); idx < length {
				w |= uint64(value[idx]) << (8 * b)
			}
		}
		l.dev.Store(off+recordHeaderWords+i, w)
	}
	h.WriteAccess(off+1, words-1)
	h.Flush(off+1, words-1)
	h.Fence()
	// ...then the committing header. The checksum comes from the bytes in
	// hand — re-reading the payload from NVM would charge phantom read
	// traffic to every append.
	h.StorePersist(off, uint64(length)<<32|uint64(Checksum(key, value)))

	l.head += words
	l.used[seg] = l.head
	l.live[seg].Add(words)
	l.appended.Add(words)
	l.sinceSync += words
	if l.sinceSync >= headSyncInterval {
		l.sinceSync = 0
		h.StorePersist(l.segHeadOff(seg), uint64(l.head))
	}
	return addr, words, nil
}

// BatchRecord is one record of an AppendBatch call. Key and Value are
// inputs; Addr and Words are outputs, valid for the records AppendBatch
// reports committed.
type BatchRecord struct {
	Key   kv.Key
	Value []byte
	Addr  int64
	Words int64
}

// AppendBatch durably stores the records as one or more contiguous runs of
// the active segment, one payload flush barrier per run instead of one per
// record. Records are committed strictly in order; n is how many committed
// and runs how many flush runs they took. A partial batch (n < len(recs))
// only happens with a non-nil error (ErrLogFull once the free-list reserve
// is reached); the committed prefix is durable and usable.
//
// Crash ordering within a run: every record's key and payload words are
// stored, then one staged barrier+fence covers the whole run, then the
// committing headers are staged (one line write-back per header line) and
// drained behind a second barrier+fence. A crash during the header burst
// can leave any subset of the headers durable, not just a prefix — but the
// whole batch acknowledges together only after AppendBatch returns, so
// Open's forward scan stopping at the first zero header can only drop
// records that were never acknowledged, and it never misreads one: a line
// persists atomically and anything past the first gap is unreachable.
// Liveness and durable-head accounting match per-record Append exactly.
func (l *Log) AppendBatch(h *nvm.Handle, recs []BatchRecord) (n, runs int, err error) {
	for i := range recs {
		if len(recs[i].Value) == 0 {
			return 0, 0, errors.New("vlog: empty value")
		}
		w := recordHeaderWords + payloadWords(int64(len(recs[i].Value)))
		if w > l.segWords {
			return 0, 0, fmt.Errorf("vlog: value needs %d words, segment holds %d", w, l.segWords)
		}
		recs[i].Words = w
	}

	// The mutex spans the whole batch for the same reason append holds it:
	// committed records must form a contiguous prefix of the active segment.
	l.mu.Lock()
	defer l.mu.Unlock()
	for n < len(recs) {
		if l.active < 0 || l.head+recs[n].Words > l.segWords {
			if rerr := l.roll(h, 1); rerr != nil {
				return n, runs, rerr
			}
		}
		// Greedily extend the run over every record that still fits in the
		// active segment; the next iteration rolls and starts a new run.
		end, fit := n, l.head
		for end < len(recs) && fit+recs[end].Words <= l.segWords {
			fit += recs[end].Words
			end++
		}
		l.appendRun(h, recs[n:end])
		n = end
		runs++
	}
	return n, runs, nil
}

// appendRun commits records into the active segment as one flush run.
// Called with the mutex held; every record is known to fit.
func (l *Log) appendRun(h *nvm.Handle, run []BatchRecord) {
	seg := l.active
	runStart := l.head
	inSeg := runStart
	for i := range run {
		rec := &run[i]
		rec.Addr = seg*l.segWords + inSeg
		off := l.dataOff(rec.Addr)
		length := int64(len(rec.Value))
		l.dev.Store(off+1, wordOf(rec.Key[0:8]))
		l.dev.Store(off+2, wordOf(rec.Key[8:16]))
		for w := int64(0); w < payloadWords(length); w++ {
			var word uint64
			for b := 0; b < 8; b++ {
				if idx := w*8 + int64(b); idx < length {
					word |= uint64(rec.Value[idx]) << (8 * b)
				}
			}
			l.dev.Store(off+recordHeaderWords+w, word)
		}
		h.WriteAccess(off+1, rec.Words-1)
		inSeg += rec.Words
	}
	// One barrier makes every key and payload word of the run durable. The
	// range spans the (still zero) header words too, which is harmless: the
	// persisted image already holds zeroes there.
	runOff := l.dataOff(seg*l.segWords + runStart)
	h.StageFlush(runOff, inSeg-runStart)
	h.FlushBarrier()
	h.Fence()

	// Commit headers as one staged burst: store all of them, write back each
	// header line once (lines sharing headers coalesce), and drain behind a
	// single barrier+fence. Durability of any subset of headers is safe —
	// see AppendBatch: the batch acknowledges as a whole, so a scan stopping
	// at the first zero header only loses unacknowledged records.
	for i := 0; i < len(run); {
		line := l.dataOff(run[i].Addr) / nvm.CachelineWords
		j := i
		for j < len(run) && l.dataOff(run[j].Addr)/nvm.CachelineWords == line {
			rec := &run[j]
			off := l.dataOff(rec.Addr)
			l.dev.Store(off, uint64(len(rec.Value))<<32|uint64(Checksum(rec.Key, rec.Value)))
			h.WriteAccess(off, 1)
			j++
		}
		h.StageFlush(l.dataOff(run[i].Addr), 1)
		i = j
	}
	h.FlushBarrier()
	h.Fence()

	words := inSeg - runStart
	l.head = inSeg
	l.used[seg] = l.head
	l.live[seg].Add(words)
	l.appended.Add(words)
	l.sinceSync += words
	if l.sinceSync >= headSyncInterval {
		l.sinceSync = 0
		h.StorePersist(l.segHeadOff(seg), uint64(l.head))
	}
}

// roll seals the active segment (if any) and activates a free one. Called
// with the mutex held. The free-list check comes first so a failed roll
// leaves the active segment intact for smaller records.
func (l *Log) roll(h *nvm.Handle, reserve int) error {
	if len(l.free) <= reserve {
		return fmt.Errorf("%w: %d free segments (reserve %d)", ErrLogFull, len(l.free), reserve)
	}
	if l.active >= 0 {
		h.StorePersist(l.segHeadOff(l.active), uint64(l.head))
		h.StorePersist(l.segStateOff(l.active), uint64(SegSealed))
		l.state[l.active] = SegSealed
		l.fl.VLogSeg(uint8(SegSealed), l.active)
		l.active = -1
		l.head = 0
	}
	seg := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	l.nfree.Store(int64(len(l.free)))
	// Head resets before the state flips: a crash between the two leaves
	// the segment FREE with head 0, and sealing strictly precedes the next
	// activation, so any crash image holds at most one ACTIVE segment.
	h.StorePersist(l.segHeadOff(seg), 0)
	h.StorePersist(l.segStateOff(seg), uint64(SegActive))
	l.state[seg] = SegActive
	l.fl.VLogSeg(uint8(SegActive), seg)
	l.active = seg
	l.head = 0
	l.used[seg] = 0
	return nil
}

// SealActive seals the active segment so no further appends land in it.
// The next append activates a fresh segment. Mostly useful for
// deterministic GC tests; appends seal organically when a segment fills.
func (l *Log) SealActive(h *nvm.Handle) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active < 0 {
		return
	}
	h.StorePersist(l.segHeadOff(l.active), uint64(l.head))
	h.StorePersist(l.segStateOff(l.active), uint64(SegSealed))
	l.state[l.active] = SegSealed
	l.fl.VLogSeg(uint8(SegSealed), l.active)
	l.active = -1
	l.head = 0
	l.sinceSync = 0
}

// Read returns the key and value of the record at addr. An ErrCorrupt
// result for an address read from an index usually means the GC moved the
// record and recycled its segment between the index read and this call;
// re-read the index entry and retry before treating it as data loss.
func (l *Log) Read(h *nvm.Handle, addr int64) (kv.Key, []byte, error) {
	var key kv.Key
	if addr < 0 || addr >= l.Capacity() {
		return key, nil, fmt.Errorf("vlog: address %d out of range", addr)
	}
	inSeg := addr % l.segWords
	off := l.dataOff(addr)
	hdr := l.dev.Load(off)
	length := int64(hdr >> 32)
	if length <= 0 || inSeg+recordHeaderWords+payloadWords(length) > l.segWords {
		h.ReadAccess(off, 1)
		return key, nil, fmt.Errorf("%w: bad length %d at %d", ErrCorrupt, length, addr)
	}
	words := payloadWords(length)
	// One access for the whole record, charged once its extent is known: the
	// header's block is paid for once, not again with the key behind it.
	h.ReadAccess(off, recordHeaderWords+words)
	copyWordBytes(key[0:8], l.dev.Load(off+1))
	copyWordBytes(key[8:16], l.dev.Load(off+2))
	out := make([]byte, length)
	for i := int64(0); i < words; i++ {
		w := l.dev.Load(off + recordHeaderWords + i)
		for b := 0; b < 8; b++ {
			if idx := i*8 + int64(b); idx < length {
				out[idx] = byte(w >> (8 * b))
			}
		}
	}
	if Checksum(key, out) != uint32(hdr) {
		return key, nil, fmt.Errorf("%w: checksum mismatch at %d", ErrCorrupt, addr)
	}
	return key, out, nil
}

// ScanSegment walks the committed records of segment seg in append order,
// calling fn with each record's address, total word count, key, and
// value. fn returning false stops the walk. The segment should be SEALED
// (its records are then immutable); scanning the active segment sees the
// prefix committed before the call.
func (l *Log) ScanSegment(h *nvm.Handle, seg int64, fn func(addr, words int64, key kv.Key, value []byte) bool) {
	l.scanFrom(h, seg, 0, fn)
}

// scanFrom walks valid records of segment seg starting at the in-segment
// offset start; the first zero or invalid header is the end.
func (l *Log) scanFrom(h *nvm.Handle, seg, start int64, fn func(addr, words int64, key kv.Key, value []byte) bool) {
	inSeg := start
	for inSeg+recordHeaderWords <= l.segWords {
		addr := seg*l.segWords + inSeg
		key, value, err := l.Read(h, addr)
		if err != nil {
			return
		}
		words := recordHeaderWords + payloadWords(int64(len(value)))
		if !fn(addr, words, key, value) {
			return
		}
		inSeg += words
	}
}

// Recycle returns a fully dead SEALED segment to the free list: it marks
// the segment FREEING, zeroes its data words, and re-marks it FREE — in
// that durable order, so a crash at any point either leaves the segment
// reclaimable as-is (still SEALED, still fully dead) or mid-zero
// (FREEING, zeroed again on Open). Zeroing before reuse is what lets a
// recovery scan of the reused segment stop at the end of the new records
// instead of walking into stale committed ones.
func (l *Log) Recycle(h *nvm.Handle, seg int64) error {
	l.mu.Lock()
	if seg < 0 || seg >= l.numSegs {
		l.mu.Unlock()
		return fmt.Errorf("vlog: segment %d out of range", seg)
	}
	if l.state[seg] != SegSealed {
		l.mu.Unlock()
		return fmt.Errorf("vlog: recycling %s segment %d", l.state[seg], seg)
	}
	if live := l.live[seg].Load(); live != 0 {
		l.mu.Unlock()
		return fmt.Errorf("%w: segment %d, %d words", ErrSegmentLive, seg, live)
	}
	h.StorePersist(l.segStateOff(seg), uint64(SegFreeing))
	l.state[seg] = SegFreeing
	l.fl.VLogSeg(uint8(SegFreeing), seg)
	end := l.used[seg]
	l.mu.Unlock()

	// Zero outside the mutex: appends cannot target a FREEING segment, and
	// a racing reader holding a stale address fails its checksum and
	// re-reads its index.
	l.zeroSegment(h, seg, end)

	l.mu.Lock()
	defer l.mu.Unlock()
	h.StorePersist(l.segHeadOff(seg), 0)
	h.StorePersist(l.segStateOff(seg), uint64(SegFree))
	l.state[seg] = SegFree
	l.fl.VLogSeg(uint8(SegFree), seg)
	l.used[seg] = 0
	l.free = append(l.free, seg)
	l.nfree.Store(int64(len(l.free)))
	l.recycles.Add(1)
	return nil
}

// zeroSegment zeroes the first end data words of segment seg and flushes
// them, fencing before return so the zeroes are durably ordered before
// any later state persist.
func (l *Log) zeroSegment(h *nvm.Handle, seg, end int64) {
	off := l.dataOff(seg * l.segWords)
	for chunk := int64(0); chunk < end; chunk += zeroChunkWords {
		n := int64(zeroChunkWords)
		if chunk+n > end {
			n = end - chunk
		}
		for i := int64(0); i < n; i++ {
			l.dev.Store(off+chunk+i, 0)
		}
		h.WriteAccess(off+chunk, n)
		h.Flush(off+chunk, n)
	}
	h.Fence()
}

// Sync persists the active segment's append cursor so the next Open's
// scan starts here.
func (l *Log) Sync(h *nvm.Handle) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active < 0 {
		return
	}
	l.sinceSync = 0
	h.StorePersist(l.segHeadOff(l.active), uint64(l.head))
}

func wordOf(b []byte) uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w |= uint64(b[i]) << (8 * i)
	}
	return w
}

func copyWordBytes(dst []byte, w uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(w >> (8 * i))
	}
}
