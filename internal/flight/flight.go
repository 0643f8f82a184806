// Package flight is HDNH's flight recorder: a lock-free, allocation-free
// trace of typed events flowing through a running table. Where internal/obs
// answers "how many and how fast in aggregate", flight answers "in what
// order, and attributed to what" — which GC phase overlapped which drain
// chunk, and which rescans and lock spins made one p999 Get slow.
//
// Each handle (one per session, plus shared handles for the table's
// background machinery, the GC worker, and the value log) owns a
// cache-line-padded ring of fixed-size events. Writers never block and never
// allocate: a slot is claimed with one atomic add and published with a
// seqlock-style two-phase commit, so readers snapshotting a live ring skip
// torn slots instead of locking writers out. The recording surface is
// *Handle, mirroring obs.Handle: a table without a Recorder holds a nil
// handle, whose methods do nothing (see docs/OBSERVABILITY.md, "Disabled
// observers").
//
// On top of the raw rings:
//
//   - Slow-op capture: when an op's end-to-begin latency crosses
//     Config.SlowOpThreshold, the op's event window is promoted into a small
//     retained buffer, so the tail is explained even after the ring wraps.
//   - Export: Snapshot gathers every ring into a Dump; WriteChromeTrace
//     renders it as Chrome trace-event JSON loadable in Perfetto /
//     chrome://tracing, and WriteText as a human-readable log.
package flight

import (
	"sort"
	"sync"
	"time"

	"hdnh/internal/nvm"
	"hdnh/internal/obs"
)

// Kind enumerates the typed events a ring can hold.
type Kind uint8

const (
	// KindOpBegin marks a sampled operation starting; A is the obs.Op.
	KindOpBegin Kind = iota
	// KindOpEnd closes a sampled operation. A is the obs.Op, B the
	// obs.Outcome; Args[0] is the duration in nanoseconds and Args[1..3]
	// pack the op's NVM traffic (reads, writes, flushes/fences — see
	// PackAccess/UnpackAccess).
	KindOpEnd
	// KindProbe counts the NVT slot reads one lookup walk issued (Args[0]).
	KindProbe
	// KindRescan counts movement-hazard rescan passes beyond a walk's first
	// (Args[0]).
	KindRescan
	// KindLockSpin counts waitUnlocked backoff iterations on locked OCF
	// words (Args[0]).
	KindLockSpin
	// KindHotFill marks a hot-table fill attempt; A is 1 when the OCF
	// validation rejected it.
	KindHotFill
	// KindHotEvict marks a hot-table replacement eviction.
	KindHotEvict
	// KindDrainChunk spans one incremental-resize drain chunk: Args[0] is
	// the duration in nanoseconds, Args[1] buckets covered, Args[2] records
	// moved.
	KindDrainChunk
	// KindResizeSwap spans the exclusive-lock pointer swap of an expansion:
	// Args[0] duration, Args[1] the generation being left.
	KindResizeSwap
	// KindResizeDone spans a whole expansion, swap through drain
	// completion: Args[0] duration, Args[1] the completed generation.
	KindResizeDone
	// KindGCPhase spans one phase of a value-log GC pass. A is the GCPhase,
	// Args[0] the duration, Args[1] the victim segment, Args[2] a
	// phase-specific amount (records scanned / words copied / rewrites /
	// segments freed).
	KindGCPhase
	// KindVLogSeg marks a value-log segment lifecycle transition. A is the
	// new vlog state byte, Args[0] the segment index.
	KindVLogSeg
	// KindRecoveryStep spans one phase of crash recovery. A is the
	// RecoveryStep, Args[0] the duration, Args[1] a step-specific count.
	KindRecoveryStep
	// KindGroupCommit spans one grouped write commit: Args[0] is the
	// duration in nanoseconds, Args[1] the keys committed.
	KindGroupCommit

	numKinds
)

// String returns a short stable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindOpBegin:
		return "op-begin"
	case KindOpEnd:
		return "op-end"
	case KindProbe:
		return "probe"
	case KindRescan:
		return "rescan"
	case KindLockSpin:
		return "lock-spin"
	case KindHotFill:
		return "hot-fill"
	case KindHotEvict:
		return "hot-evict"
	case KindDrainChunk:
		return "drain-chunk"
	case KindResizeSwap:
		return "resize-swap"
	case KindResizeDone:
		return "resize"
	case KindGCPhase:
		return "gc-phase"
	case KindVLogSeg:
		return "vlog-seg"
	case KindRecoveryStep:
		return "recovery"
	case KindGroupCommit:
		return "group-commit"
	default:
		return "unknown"
	}
}

// GCPhase enumerates the phases of one value-log GC pass: visit the victim's
// live records (read each and ask the index whether it is still referenced;
// the span's count is the records visited), copy-and-persist them into the
// active segment, rewrite the index pointers, recycle the victim. The first
// three interleave per record and are reported as one span each per pass.
type GCPhase uint8

const (
	GCCopy GCPhase = iota
	GCPersist
	GCRewrite
	GCRecycle
	numGCPhases
)

// String returns the phase name used in exported span names ("gc-<phase>").
func (p GCPhase) String() string {
	switch p {
	case GCCopy:
		return "copy"
	case GCPersist:
		return "persist"
	case GCRewrite:
		return "rewrite"
	case GCRecycle:
		return "recycle"
	default:
		return "unknown"
	}
}

// RecoveryStep enumerates the phases of Table.recover.
type RecoveryStep uint8

const (
	RecReplay RecoveryStep = iota
	RecOCF
	RecDrain
	RecDedup
	recHot // decode-only: saved dumps may hold it, nothing records it
	// RecScan is the last traversal when recovery ran it whole before
	// serving; decode-only since the sweep replaced it.
	RecScan
	// RecSweep is recovery's last traversal, run behind the open table: OCF
	// and SWAR words, count, hot table and visitor, segment by segment. Its
	// duration runs from the start of recovery to the last segment built.
	// Appended, so saved dumps still decode.
	RecSweep
	numRecoverySteps
)

// String returns the step name used in exported span names ("recovery-<step>").
func (s RecoveryStep) String() string {
	switch s {
	case RecReplay:
		return "replay"
	case RecOCF:
		return "ocf-rebuild"
	case RecDrain:
		return "drain-resume"
	case RecDedup:
		return "dedup"
	case recHot:
		return "hot-rebuild"
	case RecScan:
		return "scan"
	case RecSweep:
		return "sweep"
	default:
		return "unknown"
	}
}

// Event is one decoded ring entry. TS is nanoseconds since the Recorder's
// epoch; Ring identifies the handle that recorded it (see Dump.Rings).
type Event struct {
	TS   int64
	Ring uint32
	Kind Kind
	A    uint8
	B    uint16
	Args [4]uint64
}

// PackAccess packs an (accesses, words) NVM counter pair into one event arg.
// Both halves saturate at 32 bits — per-op deltas are tiny, and a saturated
// value still reads as "huge", which is the signal that matters.
func PackAccess(accesses, words uint64) uint64 {
	if accesses > 0xFFFFFFFF {
		accesses = 0xFFFFFFFF
	}
	if words > 0xFFFFFFFF {
		words = 0xFFFFFFFF
	}
	return accesses<<32 | words
}

// UnpackAccess splits a PackAccess value back into (accesses, words).
func UnpackAccess(v uint64) (accesses, words uint64) {
	return v >> 32, v & 0xFFFFFFFF
}

// Config tunes a Recorder. The zero value picks defaults.
type Config struct {
	// RingEvents is each handle's ring capacity, rounded up to a power of
	// two. 0 picks DefaultRingEvents. Memory cost is 48 bytes per event per
	// handle.
	RingEvents int
	// SampleEvery traces one in N operations per handle; 0 or 1 traces every
	// op. Background events (drain chunks, GC phases, segment transitions,
	// recovery steps, hot fills/evictions) are always recorded.
	SampleEvery uint64
	// SlowOpThreshold promotes any traced op at least this slow into the
	// retained slow-op buffer. 0 picks DefaultSlowOpThreshold; negative
	// disables promotion.
	SlowOpThreshold time.Duration
	// SlowOpKeep bounds the retained slow-op buffer (oldest dropped first).
	// 0 picks DefaultSlowOpKeep.
	SlowOpKeep int
}

const (
	// DefaultRingEvents keeps a handle's ring under 200 KiB while holding
	// the last few thousand events — minutes of background activity, or the
	// trailing window of a busy session.
	DefaultRingEvents = 4096
	// DefaultSlowOpThreshold: 1ms is ~three orders of magnitude over a hot
	// hit, so anything promoted is a genuine tail event.
	DefaultSlowOpThreshold = time.Millisecond
	// DefaultSlowOpKeep bounds slow-op memory; each entry retains at most
	// one ring's window.
	DefaultSlowOpKeep = 32
)

// SlowOp is one retained slow operation: the op, its outcome and latency,
// and the event window the op produced (rescans, spins, probes, and any
// background events that landed in the same ring meanwhile).
type SlowOp struct {
	Op     obs.Op
	Out    obs.Outcome
	Ring   uint32
	Start  int64 // ns since the Recorder epoch
	Dur    int64 // ns
	Events []Event
}

// Recorder owns the rings and the retained slow-op buffer. Create one with
// New, hand it to core.Options.Flight, and read it with Snapshot. A nil
// *Recorder is valid everywhere and hands out nil handles.
type Recorder struct {
	ringEvents int
	sample     uint64
	slowNs     int64 // -1 disables promotion
	slowKeep   int
	epoch      time.Time

	mu    sync.Mutex
	rings []*ring

	slowMu   sync.Mutex
	slow     []SlowOp
	slowNext int
	slowSeen uint64
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	if cfg.RingEvents <= 0 {
		cfg.RingEvents = DefaultRingEvents
	}
	n := 1
	for n < cfg.RingEvents {
		n <<= 1
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	slowNs := cfg.SlowOpThreshold.Nanoseconds()
	if cfg.SlowOpThreshold == 0 {
		slowNs = DefaultSlowOpThreshold.Nanoseconds()
	} else if cfg.SlowOpThreshold < 0 {
		slowNs = -1
	}
	if cfg.SlowOpKeep <= 0 {
		cfg.SlowOpKeep = DefaultSlowOpKeep
	}
	return &Recorder{
		ringEvents: n,
		sample:     cfg.SampleEvery,
		slowNs:     slowNs,
		slowKeep:   cfg.SlowOpKeep,
		epoch:      time.Now(),
	}
}

// now returns nanoseconds since the recorder epoch on the monotonic clock.
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Handle returns a handle recording into a fresh labelled ring. Sessions get
// their own handle (the sampling and slow-op state is single-goroutine);
// shared handles (the table's background ring, the GC worker, the value log)
// are safe for concurrent event emission — only OpBegin/OpEnd require a
// single goroutine. A nil Recorder returns nil.
func (r *Recorder) Handle(label string) *Handle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	rg := newRing(uint32(len(r.rings)), label, r.ringEvents)
	r.rings = append(r.rings, rg)
	r.mu.Unlock()
	return &Handle{r: r, rg: rg}
}

// SlowOps returns a copy of the retained slow-op buffer, oldest first.
func (r *Recorder) SlowOps() []SlowOp {
	if r == nil {
		return nil
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	out := make([]SlowOp, 0, len(r.slow))
	// The buffer is a ring once full: slowNext points at the oldest entry.
	for i := 0; i < len(r.slow); i++ {
		out = append(out, r.slow[(r.slowNext+i)%len(r.slow)])
	}
	return out
}

// SlowOpsSeen returns the total number of promotions, including those the
// bounded buffer has since dropped.
func (r *Recorder) SlowOpsSeen() uint64 {
	if r == nil {
		return 0
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	return r.slowSeen
}

func (r *Recorder) retain(so SlowOp) {
	r.slowMu.Lock()
	r.slowSeen++
	if len(r.slow) < r.slowKeep {
		r.slow = append(r.slow, so)
	} else {
		r.slow[r.slowNext] = so
		r.slowNext = (r.slowNext + 1) % r.slowKeep
	}
	r.slowMu.Unlock()
}

// Handle is the recording surface the core paths call. Every method is safe
// on a nil *Handle and does nothing there.
type Handle struct {
	r  *Recorder
	rg *ring
	h  *nvm.Handle

	// Session-local op state; OpBegin/OpEnd/Probe must stay on one
	// goroutine (sessions already are).
	n       uint64
	inOp    bool
	opBegin int64
	opFrom  uint64
	nvmBase nvm.Stats
}

// BindNVM attaches the session's device handle so traced ops can record
// their per-op NVM traffic deltas as span args.
func (h *Handle) BindNVM(nh *nvm.Handle) {
	if h != nil {
		h.h = nh
	}
}

// OpBegin opens an operation span when this op is trace-sampled and returns
// its begin timestamp token (0 when the op is not sampled). Callers pass the
// token to OpEnd unchanged.
func (h *Handle) OpBegin(op obs.Op) int64 {
	if h == nil {
		return 0
	}
	h.n++
	if h.r.sample > 1 && h.n%h.r.sample != 0 {
		h.inOp = false
		return 0
	}
	now := h.r.now()
	h.inOp = true
	h.opBegin = now
	h.opFrom = h.rg.pos.Load()
	if h.h != nil {
		h.nvmBase = h.h.Stats()
	}
	h.rg.emit(now, KindOpBegin, uint8(op), 0, 0, 0, 0, 0)
	return now
}

// OpEnd closes the span OpBegin opened and returns the op's duration in ns
// (0 when untraced), promoting a slow op's event window to the slow-op
// buffer. A handle has one open span: once a later OpBegin took it over (a
// write group) or an earlier end closed it, OpEnd only returns the duration.
func (h *Handle) OpEnd(op obs.Op, out obs.Outcome, begin int64) int64 {
	if begin == 0 || h == nil {
		return 0
	}
	now := h.r.now()
	dur := now - begin
	if !h.inOp {
		return dur
	}
	h.inOp = false
	var reads, writes, persists uint64
	if h.h != nil {
		d := h.h.Stats().Sub(h.nvmBase)
		reads = PackAccess(d.ReadAccesses, d.ReadWords)
		writes = PackAccess(d.WriteAccesses, d.WriteWords)
		persists = PackAccess(d.Flushes, d.Fences)
	}
	h.rg.emit(now, KindOpEnd, uint8(op), uint16(out), uint64(dur), reads, writes, persists)
	if h.r.slowNs >= 0 && dur >= h.r.slowNs {
		h.r.retain(SlowOp{
			Op:     op,
			Out:    out,
			Ring:   h.rg.id,
			Start:  begin,
			Dur:    dur,
			Events: h.rg.snapshotFrom(h.opFrom),
		})
	}
	return dur
}

// Probe records one NVT walk's probe/rescan/spin counts as point events
// inside the current op span. Outside a sampled op it is a no-op.
func (h *Handle) Probe(probes, rescans, spins int64) {
	if h == nil || !h.inOp {
		return
	}
	now := h.r.now()
	if probes > 0 {
		h.rg.emit(now, KindProbe, 0, 0, uint64(probes), 0, 0, 0)
	}
	if rescans > 0 {
		h.rg.emit(now, KindRescan, 0, 0, uint64(rescans), 0, 0, 0)
	}
	if spins > 0 {
		h.rg.emit(now, KindLockSpin, 0, 0, uint64(spins), 0, 0, 0)
	}
}

// event stamps and emits one event outside any op span.
func (h *Handle) event(k Kind, a uint8, a0, a1, a2 uint64) {
	if h != nil {
		h.rg.emit(h.r.now(), k, a, 0, a0, a1, a2, 0)
	}
}

// HotFill records a hot-table fill attempt (rejected when OCF validation
// turned it away).
func (h *Handle) HotFill(rejected bool) {
	var a uint8
	if rejected {
		a = 1
	}
	h.event(KindHotFill, a, 0, 0, 0)
}

// HotEvict records one hot-table replacement eviction.
func (h *Handle) HotEvict() { h.event(KindHotEvict, 0, 0, 0, 0) }

// DrainChunk records one completed incremental-resize drain chunk.
func (h *Handle) DrainChunk(buckets, moved int64, d time.Duration) {
	h.event(KindDrainChunk, 0, uint64(d.Nanoseconds()), uint64(buckets), uint64(moved))
}

// ResizeSwap records the exclusive-lock pointer-swap window of an expansion
// leaving the given generation.
func (h *Handle) ResizeSwap(generation uint64, d time.Duration) {
	h.event(KindResizeSwap, 0, uint64(d.Nanoseconds()), generation, 0)
}

// ResizeDone records a completed expansion (swap through drain end).
func (h *Handle) ResizeDone(generation uint64, d time.Duration) {
	h.event(KindResizeDone, 0, uint64(d.Nanoseconds()), generation, 0)
}

// GCPhase records one timed phase of a value-log GC pass over seg.
func (h *Handle) GCPhase(phase GCPhase, seg int64, d time.Duration, amount int64) {
	h.event(KindGCPhase, uint8(phase), uint64(d.Nanoseconds()), uint64(seg), uint64(amount))
}

// VLogSeg records a value-log segment lifecycle transition to state (the
// vlog package's on-device state byte).
func (h *Handle) VLogSeg(state uint8, seg int64) { h.event(KindVLogSeg, state, uint64(seg), 0, 0) }

// RecoveryStep records one timed phase of crash recovery.
func (h *Handle) RecoveryStep(step RecoveryStep, d time.Duration, count int64) {
	h.event(KindRecoveryStep, uint8(step), uint64(d.Nanoseconds()), uint64(count), 0)
}

// GroupCommit records one grouped write commit of keys records.
func (h *Handle) GroupCommit(keys int64, d time.Duration) {
	h.event(KindGroupCommit, 0, uint64(d.Nanoseconds()), uint64(keys), 0)
}

// RingInfo labels one ring in a Dump.
type RingInfo struct {
	ID    uint32
	Label string
}

// Dump is a gathered trace: ring labels, every readable event sorted by
// timestamp, and the retained slow ops.
type Dump struct {
	Rings  []RingInfo
	Events []Event
	Slow   []SlowOp
}

// Snapshot gathers every ring and the slow-op buffer into a Dump. It is safe
// to call while writers are recording; torn slots are skipped.
func (r *Recorder) Snapshot() Dump {
	if r == nil {
		return Dump{}
	}
	r.mu.Lock()
	rings := make([]*ring, len(r.rings))
	copy(rings, r.rings)
	r.mu.Unlock()

	var d Dump
	for _, rg := range rings {
		d.Rings = append(d.Rings, RingInfo{ID: rg.id, Label: rg.label})
		d.Events = append(d.Events, rg.snapshotFrom(0)...)
	}
	sort.SliceStable(d.Events, func(i, j int) bool { return d.Events[i].TS < d.Events[j].TS })
	d.Slow = r.SlowOps()
	return d
}
