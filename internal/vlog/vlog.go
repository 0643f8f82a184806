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
// Append protocol: an append takes the log mutex only to reserve its words
// in the active segment (Reserve). With no lock held it stores the key and
// payload words and stages their lines; one barrier makes them durable; then
// Publish stores the header word last (8-byte atomic commit), drains it
// behind a second barrier, and acknowledges in reservation order: it waits
// until every earlier reservation has been acknowledged, does the segment
// bookkeeping and returns. Append and AppendBatch run the body barrier
// themselves; a caller of Reserve and Publish supplies it (bigkv's logged
// writes, whose index slot words share it). Headers may become durable out
// of order, but the acknowledged records — the only ones a caller ever holds
// an address of — are a contiguous prefix of the segment whose headers all
// read valid. A torn or unacknowledged append leaves a zero or garbage
// header that fails validation and is treated as the end of the segment
// during recovery scans; whatever valid record lies beyond it was never
// acknowledged, so nothing references it (docs/INTERNALS.md §9 has the full
// argument).
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
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
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

	// zeroChunkWords is the staged write-back granularity while zeroing a
	// segment (one persist call per chunk; one barrier for them all).
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

	// mu guards reservation and the segment lifecycle: which segment is
	// active, how much of it is reserved, the free list. No device wait
	// happens under it except roll's four state persists (see roll).
	mu     sync.Mutex
	active int64 // index of the ACTIVE segment, -1 if none
	head   int64 // reservation cursor within the active segment
	free   []int64
	nfree  atomic.Int64    // len(free), stored under mu, read lock-free
	state  []atomic.Uint32 // SegState per segment, stored under mu, read lock-free

	// frontier is the log address up to which the active segment's
	// reservations are acknowledged. The append whose reservation starts
	// there owns it — and with it used[active] and sinceSync — until it
	// stores its own end; roll, SealActive and Sync take over only once
	// frontier has caught up with head, under mu, when no owner is left.
	frontier  atomic.Int64
	sinceSync int64          // acknowledged words since the last durable head sync
	used      []atomic.Int64 // acknowledged words per segment (exact; DRAM)
	ackWaits  atomic.Int64   // appends that found an earlier reservation still unacknowledged

	// live counts the words of records an index still references, one
	// counter per segment. Append increments its destination optimistically;
	// whoever makes a record unreferenced calls AddLive with the negative
	// count (see bigkv's accounting protocol). Atomic so index operations
	// never take the log mutex.
	live []atomic.Int64
	// liveBits holds one bit per data word, set where a record counted in
	// live starts: the collector walks a victim's set bits and so reads its
	// live records only. Set and cleared together with live.
	liveBits []atomic.Uint64

	appended atomic.Int64 // lifetime appended words, user + GC copies
	recycles atomic.Int64 // segments recycled back to the free list

	// hook is the test seam of SetAppendHook; nil outside tests.
	hook func(stage AppendStage, addr int64)

	// fl traces segment lifecycle transitions; nil (no tracing) until the
	// owner installs a handle via SetTracer. Guarded by mu on the mutating
	// paths that emit (roll, SealActive, Recycle).
	fl *flight.Handle
}

// SetTracer installs the flight handle segment state transitions are traced
// into. Call before the log sees traffic; the default, nil, traces nothing.
func (l *Log) SetTracer(fl *flight.Handle) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fl = fl
}

// AppendStage names a point inside an append for SetAppendHook.
type AppendStage uint8

// The stages of one append (or one AppendBatch run, or one Reserve+Publish
// run), in the order it passes them; none is reached with the log mutex
// held. StagePayloadDurable is Publish's entry: for a Reserve caller, after
// its own barrier.
const (
	StageReserved       AppendStage = iota // words reserved, nothing stored yet
	StagePayloadDurable                    // key and payload flushed and fenced, header still zero
	StageHeaderDurable                     // header persisted, not yet acknowledged
)

// SetAppendHook installs a test seam: fn runs on the appending goroutine at
// every stage of every append, with the address the append reserved, and may
// block there to hold the append at that stage. Call before the log sees
// traffic; production code never sets it.
func (l *Log) SetAppendHook(fn func(stage AppendStage, addr int64)) { l.hook = fn }

func (l *Log) atStage(stage AppendStage, addr int64) {
	if l.hook != nil {
		l.hook(stage, addr)
	}
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
		state:     make([]atomic.Uint32, numSegs),
		used:      make([]atomic.Int64, numSegs),
		live:      make([]atomic.Int64, numSegs),
		liveBits:  make([]atomic.Uint64, (numSegs*segWords+63)/64),
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
			l.free = append(l.free, seg)
		case SegSealed:
			l.setState(seg, SegSealed)
			l.used[seg].Store(head)
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
			l.setState(seg, SegActive)
			l.active = seg
			l.head = end
			l.used[seg].Store(end)
			l.frontier.Store(seg*segWords + end)
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

// GCTrigger is the free-segment count at or below which a log of segments
// segments needs its collector: an eighth of the log, and never fewer than
// two, so a small log starts reclaiming before its last spare is gone. The
// bigkv collector runs while a log is at or under it, and the health rule
// vlog_free_low reads degraded there.
func GCTrigger(segments int64) int64 { return max(2, segments/8) }

// State returns segment seg's lifecycle state. Lock-free, like SegUsed and
// SegLive: the collector reads all three for every segment on every pass.
func (l *Log) State(seg int64) SegState { return SegState(l.state[seg].Load()) }

// setState records a lifecycle transition in DRAM. Called with the mutex held
// (or from Open, before the log is shared).
func (l *Log) setState(seg int64, st SegState) { l.state[seg].Store(uint32(st)) }

// SegUsed returns the acknowledged words appended into segment seg.
func (l *Log) SegUsed(seg int64) int64 { return l.used[seg].Load() }

// SegLive returns segment seg's live-word count.
func (l *Log) SegLive(seg int64) int64 { return l.live[seg].Load() }

// AddLive adjusts the liveness of the record that starts at addr: a positive
// delta (its word count) when an index entry starts referencing it, the
// negative when the last one stops. The record's liveness bit follows the
// sign, then the segment's live-word counter moves by delta: at zero the
// segment may be recycled and addr reused, and its new record's bit set.
func (l *Log) AddLive(addr, delta int64) {
	if delta > 0 {
		l.setLiveBit(addr)
	} else {
		l.clearLiveBit(addr)
	}
	l.live[addr/l.segWords].Add(delta)
}

// setLiveBit and clearLiveBit are CAS loops because go.mod's go 1.22 has no
// atomic Or/And; neighbouring records share a bitmap word.
func (l *Log) setLiveBit(addr int64) {
	w, bit := &l.liveBits[addr/64], uint64(1)<<(addr%64)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (l *Log) clearLiveBit(addr int64) {
	w, bit := &l.liveBits[addr/64], uint64(1)<<(addr%64)
	for {
		old := w.Load()
		if old&bit == 0 || w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// VisitLive calls fn with the address of every record of segment seg whose
// liveness bit is set, in address order; fn returning false stops the walk.
// Bits cleared while the walk runs may or may not be seen: a caller that
// needs to know a record is still referenced asks its index.
func (l *Log) VisitLive(seg int64, fn func(addr int64) bool) {
	lo, hi := seg*l.segWords, (seg+1)*l.segWords
	for w := lo / 64; w*64 < hi; w++ {
		for set := l.liveBits[w].Load(); set != 0; set &= set - 1 {
			addr := w*64 + int64(bits.TrailingZeros64(set))
			if addr < lo || addr >= hi {
				continue // a segment size off the 64-word grid shares this bitmap word
			}
			if !fn(addr) {
				return
			}
		}
	}
}

// AckWaits returns how many appends, having persisted their own record,
// found an earlier reservation still unacknowledged and had to wait for it.
func (l *Log) AckWaits() int64 { return l.ackWaits.Load() }

// Extent is a snapshot of where a log's records lie: per segment, the words
// appended into it if it is SEALED or ACTIVE, else 0.
type Extent struct {
	segWords int64
	used     []int64
}

// Appended snapshots the log's appended records. bigkv takes it when it
// opens a store, so the pointers its recovery sweep checks later are judged
// against the log as recovered, not as the appends since have grown it.
func (l *Log) Appended() Extent {
	e := Extent{segWords: l.segWords, used: make([]int64, l.numSegs)}
	for seg := range e.used {
		if st := l.State(int64(seg)); st == SegSealed || st == SegActive {
			e.used[seg] = l.used[seg].Load()
		}
	}
	return e
}

// Covers reports whether words [addr, addr+words) lie inside the appended
// part of a SEALED or ACTIVE segment — what a pointer to a committed record
// satisfies and a dangling one does not.
func (e Extent) Covers(addr, words int64) bool {
	if addr < 0 || addr >= e.segWords*int64(len(e.used)) || words < recordHeaderWords {
		return false
	}
	return addr%e.segWords+words <= e.used[addr/e.segWords]
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
	var sum int64
	for i := range l.used {
		sum += l.used[i].Load()
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
// can live in an HDNH slot value) and its total word count: an AppendBatch
// of one. Append keeps one free segment in reserve for the GC's relocation
// copies; when only the reserve is left, or the GC has taken it, it returns
// ErrLogFull — run a GC pass and retry.
func (l *Log) Append(h *nvm.Handle, key kv.Key, value []byte) (addr, words int64, err error) {
	rec := [1]BatchRecord{{Key: key, Value: value}}
	if _, _, err := l.AppendBatch(h, rec[:]); err != nil {
		return 0, 0, err
	}
	return rec[0].Addr, rec[0].Words, nil
}

// BatchRecord is one record of an AppendBatch or Reserve call.
// Key and Value are inputs; Addr and Words are outputs, valid for the
// records the call reports reserved or committed.
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
// Each run is Reserve, then one barrier+fence that makes every key and
// payload word of the run durable, then Publish. A crash during Publish's
// header burst can leave any subset of the headers durable, not just a
// prefix — but the whole run acknowledges together only after its barrier,
// so Open's forward scan stopping at the first zero header can only drop
// records that were never acknowledged, and it never misreads one: a line
// persists atomically and anything past the first gap is unreachable.
// Liveness and durable-head accounting match per-record Append exactly.
func (l *Log) AppendBatch(h *nvm.Handle, recs []BatchRecord) (n, runs int, err error) {
	if err := l.check(recs); err != nil {
		return 0, 0, err
	}
	for n < len(recs) {
		k, err := l.reserve(h, recs[n:], 1)
		if err != nil {
			return n, runs, err
		}
		h.FlushBarrier()
		h.Fence()
		l.Publish(h, recs[n:n+k])
		n += k
		runs++
	}
	return n, runs, nil
}

// check validates every record and sets its Words.
func (l *Log) check(recs []BatchRecord) error {
	for i := range recs {
		if len(recs[i].Value) == 0 {
			return errors.New("vlog: empty value")
		}
		w := RecordWords(len(recs[i].Value))
		if w > l.segWords {
			return fmt.Errorf("vlog: value needs %d words, segment holds %d", w, l.segWords)
		}
		recs[i].Words = w
	}
	return nil
}

// Reserve is the first half of an append whose barriers the caller owns —
// bigkv's logged writes, which commit their record and their index slot
// through one barrier train. It reserves the longest prefix of recs that
// fits the active segment as one contiguous run (rolling to a fresh segment
// when not even the first record fits), stores each reserved record's key
// and payload words and stages their lines on h, and returns how many it
// reserved. Nothing is durable yet: the caller's next FlushBarrier+Fence
// makes the bodies durable, and Publish then commits the run. Only the GC's
// relocation copies (gc) may take the last free segment, so that space
// reclamation can always proceed; like Append, a user reservation leaves it
// in reserve, and reserves nothing while the GC holds it (ErrLogFull).
//
// Every reservation must reach Publish — the segment's acknowledged prefix
// cannot pass an unpublished run — and the caller must not wait on anything
// that can wait on this log in between: not on another reservation of its
// own (Reserve again before Publish, which could roll and so wait for this
// very run), and not on a lock another appender may hold while it waits for
// this run's acknowledgment.
func (l *Log) Reserve(h *nvm.Handle, recs []BatchRecord, gc bool) (int, error) {
	if err := l.check(recs); err != nil {
		return 0, err
	}
	if gc {
		return l.reserve(h, recs, 0)
	}
	return l.reserve(h, recs, 1)
}

// reserve is Reserve over checked records (Words set) that leaves reserve
// free segments, 1 for users and 0 for the GC (INTERNALS §9). It takes the
// mutex only to claim the words: the stores and every device wait happen
// outside it, so concurrent appenders (and the collector) overlap them.
func (l *Log) reserve(h *nvm.Handle, recs []BatchRecord, reserve int) (int, error) {
	l.mu.Lock()
	rolls := l.active < 0 || l.head+recs[0].Words > l.segWords
	if free := len(l.free); free < reserve || rolls && free <= reserve {
		l.mu.Unlock()
		return 0, fmt.Errorf("%w: %d free segments (reserve %d)", ErrLogFull, free, reserve)
	}
	if rolls {
		l.roll(h)
	}
	// Greedily extend the run over every record that still fits in the
	// active segment; the caller's next call rolls and starts a new run.
	n, fit := 0, l.head
	for n < len(recs) && fit+recs[n].Words <= l.segWords {
		fit += recs[n].Words
		n++
	}
	addr := l.active*l.segWords + l.head
	l.head = fit
	l.mu.Unlock()
	l.atStage(StageReserved, addr)

	next := addr
	for i := range recs[:n] {
		rec := &recs[i]
		rec.Addr = next
		off := l.dataOff(rec.Addr)
		l.storeBody(off, rec.Key, rec.Value)
		h.WriteAccess(off+1, rec.Words-1)
		next += rec.Words
	}
	// One staged write-back covers the run's key and payload words. The range
	// spans the (still zero) headers behind the first record too, which is
	// harmless: the persisted image already holds zeroes there.
	h.StageFlush(l.dataOff(addr)+1, next-addr-1)
	return n, nil
}

// Publish commits a run Reserve returned, once the caller's barrier has made
// its bodies durable: the committing headers go out as one staged burst —
// every header stored, each header line written back once (lines sharing
// headers coalesce) — drained behind a single barrier+fence, and the run is
// then acknowledged in reservation order. The checksums come from the bytes
// in hand: re-reading the payload from NVM would charge phantom read traffic
// to every append.
func (l *Log) Publish(h *nvm.Handle, run []BatchRecord) {
	addr := run[0].Addr
	l.atStage(StagePayloadDurable, addr)
	for i := 0; i < len(run); {
		line := l.dataOff(run[i].Addr) / nvm.CachelineWords
		j := i
		for j < len(run) && l.dataOff(run[j].Addr)/nvm.CachelineWords == line {
			rec := &run[j]
			off := l.dataOff(rec.Addr)
			l.dev.Store(off, headerWord(rec.Key, rec.Value))
			h.WriteAccess(off, 1)
			j++
		}
		h.StageFlush(l.dataOff(run[i].Addr), 1)
		i = j
	}
	h.FlushBarrier()
	h.Fence()
	l.atStage(StageHeaderDurable, addr)

	for i := range run {
		l.setLiveBit(run[i].Addr)
	}
	last := &run[len(run)-1]
	l.acknowledge(h, addr, last.Addr+last.Words-addr)
}

// acknowledge publishes the reservation [addr, addr+words), whose records are
// durable, once every earlier reservation of the segment is published: only
// then may the caller hand the addresses out. Keeping the acknowledged
// records a contiguous prefix is what lets Open's forward scan — which stops
// at the first header that does not validate — find every record an index
// can point at. The wait yields: at GOMAXPROCS 1 the goroutine waited on
// needs this P to finish.
func (l *Log) acknowledge(h *nvm.Handle, addr, words int64) {
	if l.frontier.Load() != addr {
		l.ackWaits.Add(1)
		for l.frontier.Load() != addr {
			runtime.Gosched()
		}
	}
	// Sole owner of the frontier from here to the Store below.
	seg, end := addr/l.segWords, addr%l.segWords+words
	l.used[seg].Store(end)
	l.live[seg].Add(words)
	l.appended.Add(words)
	l.sinceSync += words
	if l.sinceSync >= headSyncInterval {
		l.sinceSync = 0
		h.StorePersist(l.segHeadOff(seg), uint64(end))
	}
	l.frontier.Store(addr + words)
}

// drain waits until every reservation of the active segment is acknowledged.
// Called with the mutex held, so no new reservation can start; the appends
// waited on finish without it.
func (l *Log) drain() {
	for head := l.active*l.segWords + l.head; l.frontier.Load() != head; {
		runtime.Gosched()
	}
}

// storeBody stores a record's key and payload words behind the header word
// at device offset off: whole words straight from the value, the tail bytes
// zero-padded.
func (l *Log) storeBody(off int64, key kv.Key, value []byte) {
	l.dev.Store(off+1, binary.LittleEndian.Uint64(key[0:8]))
	l.dev.Store(off+2, binary.LittleEndian.Uint64(key[8:16]))
	off += recordHeaderWords
	for ; len(value) >= 8; value, off = value[8:], off+1 {
		l.dev.Store(off, binary.LittleEndian.Uint64(value))
	}
	if len(value) > 0 {
		var tail [8]byte
		copy(tail[:], value)
		l.dev.Store(off, binary.LittleEndian.Uint64(tail[:]))
	}
}

func headerWord(key kv.Key, value []byte) uint64 {
	return uint64(len(value))<<32 | uint64(Checksum(key, value))
}

// roll seals the active segment (if any) and activates a free one. Called
// with the mutex held and the free list checked by reserve, so a refused
// roll leaves the active segment intact for smaller records.
//
// Its persists are the only device waits left under the mutex, and they
// have to be: a reservation in the new segment may only exist once ACTIVE is
// durable — an append there could otherwise be acknowledged and indexed while
// a crash still recovers the segment as FREE — and ACTIVE may only follow
// the old segment's SEALED, so that no crash image holds two active
// segments. Between the two there is no segment to reserve in, so nothing
// is gained by letting go. It is four persists per segment, not per record.
func (l *Log) roll(h *nvm.Handle) {
	if l.active >= 0 {
		l.seal(h)
	}
	seg := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	l.nfree.Store(int64(len(l.free)))
	// Head resets before the state flips: a crash between the two leaves
	// the segment FREE with head 0, and sealing strictly precedes the next
	// activation, so any crash image holds at most one ACTIVE segment.
	h.StorePersist(l.segHeadOff(seg), 0)
	h.StorePersist(l.segStateOff(seg), uint64(SegActive))
	l.setState(seg, SegActive)
	l.fl.VLogSeg(uint8(SegActive), seg)
	l.active = seg
	l.head = 0
	l.used[seg].Store(0)
	l.frontier.Store(seg * l.segWords)
}

// seal waits out the reservations in flight — a SEALED segment never holds
// an unacknowledged record, so its durable head is exact and its records
// are a gapless run — and seals the active segment. Called with the mutex
// held and a segment active.
func (l *Log) seal(h *nvm.Handle) {
	l.drain()
	h.StorePersist(l.segHeadOff(l.active), uint64(l.head))
	h.StorePersist(l.segStateOff(l.active), uint64(SegSealed))
	l.setState(l.active, SegSealed)
	l.fl.VLogSeg(uint8(SegSealed), l.active)
	l.active = -1
	l.head = 0
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
	l.seal(h)
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
	// One access for the whole record, charged once its extent is known: the
	// header's block is paid for once, not again with the key behind it.
	h.ReadAccess(off, recordHeaderWords+payloadWords(length))
	binary.LittleEndian.PutUint64(key[0:8], l.dev.Load(off+1))
	binary.LittleEndian.PutUint64(key[8:16], l.dev.Load(off+2))
	out := make([]byte, length)
	off += recordHeaderWords
	rest := out
	for ; len(rest) >= 8; rest, off = rest[8:], off+1 {
		binary.LittleEndian.PutUint64(rest, l.dev.Load(off))
	}
	if len(rest) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], l.dev.Load(off))
		copy(rest, tail[:])
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
// prefix committed before the call. It reads every record the segment ever
// held: the collector walks VisitLive instead, and this is the reference
// walker tests check it against.
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
		words := RecordWords(len(value))
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
//
// The mutex covers only the two DRAM transitions, since every append's
// reservation queues behind it. None of Recycle's persists needs it: once
// the DRAM state reads FREEING the segment is this caller's alone — no
// append targets a segment off the free list, a second Recycle is refused —
// and the FREE persist is ordered before any reactivation because the
// segment joins the free list, under the mutex, only after it.
func (l *Log) Recycle(h *nvm.Handle, seg int64) error {
	if seg < 0 || seg >= l.numSegs {
		return fmt.Errorf("vlog: segment %d out of range", seg)
	}
	l.mu.Lock()
	if st := l.State(seg); st != SegSealed {
		l.mu.Unlock()
		return fmt.Errorf("vlog: recycling %s segment %d", st, seg)
	}
	if live := l.live[seg].Load(); live != 0 {
		l.mu.Unlock()
		return fmt.Errorf("%w: segment %d, %d words", ErrSegmentLive, seg, live)
	}
	l.setState(seg, SegFreeing)
	l.fl.VLogSeg(uint8(SegFreeing), seg)
	l.mu.Unlock()

	// A racing reader holding a stale address fails its checksum and
	// re-reads its index.
	h.StorePersist(l.segStateOff(seg), uint64(SegFreeing))
	l.zeroSegment(h, seg, l.used[seg].Load())
	h.StorePersist(l.segHeadOff(seg), 0)
	h.StorePersist(l.segStateOff(seg), uint64(SegFree))

	l.mu.Lock()
	defer l.mu.Unlock()
	l.setState(seg, SegFree)
	l.fl.VLogSeg(uint8(SegFree), seg)
	l.used[seg].Store(0)
	l.free = append(l.free, seg)
	l.nfree.Store(int64(len(l.free)))
	l.recycles.Add(1)
	return nil
}

// zeroSegment zeroes the first end data words of segment seg, staging each
// chunk's write-back as it goes, and drains them all behind one barrier:
// the zeroes are durably ordered before any later state persist, and a
// recycle waits on the device once, not once per chunk.
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
		h.StageFlush(off+chunk, n)
	}
	if h.FlushBarrier() {
		h.Fence()
	}
}

// Sync persists the active segment's append cursor so the next Open's
// scan starts here. It waits out the appends in flight first: the durable
// head may never pass an unacknowledged record.
func (l *Log) Sync(h *nvm.Handle) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active < 0 {
		return
	}
	l.drain()
	l.sinceSync = 0
	h.StorePersist(l.segHeadOff(l.active), uint64(l.head))
}
