package nvm

import "time"

// Handle is a per-worker view of a Device. Each goroutine that touches the
// device should own its own Handle: accounting counters are handle-local
// (padded, unshared) and are merged on demand, so hot paths never contend on
// shared statistics.
//
// Accounting is explicit and separate from data movement: call ReadAccess /
// WriteAccess / Flush / Fence around groups of Load/Store calls, mirroring
// how a persistent data structure reasons about cache lines and media blocks.
type Handle struct {
	dev *Device
	s   Stats

	emulate      bool
	readLatency  time.Duration
	writeLatency time.Duration
	fenceLatency time.Duration

	// Staged-flush state (see StageFlush/FlushBarrier): lines awaiting the
	// next barrier and the per-line bandwidth drain cost.
	stagedLines int64
	drainPerLn  time.Duration
	_           [8]byte // keep handles from sharing cache lines in slices
}

// NewHandle returns a fresh handle on the device.
func (d *Device) NewHandle() *Handle {
	h := &Handle{
		dev:          d,
		emulate:      d.cfg.Mode == ModeEmulate,
		readLatency:  d.cfg.ReadLatency,
		writeLatency: d.cfg.WriteLatency,
		fenceLatency: d.cfg.FenceLatency,
	}
	if d.cfg.WriteBandwidth > 0 {
		h.drainPerLn = time.Duration(float64(time.Second) * CachelineBytes / float64(d.cfg.WriteBandwidth))
	}
	return h
}

// Device returns the underlying device.
func (h *Handle) Device() *Device { return h.dev }

// Stats returns a copy of the handle's accumulated statistics.
func (h *Handle) Stats() Stats { return h.s }

// ResetStats zeroes the handle's counters.
func (h *Handle) ResetStats() { h.s = Stats{} }

// blocksSpanned returns how many 256-byte media blocks the word range
// [w, w+n) touches.
func blocksSpanned(w, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (w+n-1)/BlockWords - w/BlockWords + 1
}

// linesSpanned returns how many 64-byte cache lines the word range
// [w, w+n) touches.
func linesSpanned(w, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (w+n-1)/CachelineWords - w/CachelineWords + 1
}

// ReadAccess accounts one logical read of n words starting at word w: the
// media blocks spanned are charged read latency and read bandwidth. Call it
// once per bucket/slot probe, before or after the constituent Loads.
func (h *Handle) ReadAccess(w, n int64) {
	blocks := blocksSpanned(w, n)
	h.s.ReadAccesses++
	h.s.ReadWords += uint64(n)
	h.s.MediaBlockReads += uint64(blocks)
	d := time.Duration(blocks) * h.readLatency
	h.s.ModeledNanos += uint64(d.Nanoseconds())
	if h.emulate {
		if h.dev.readBW != nil {
			h.dev.readBW.consume(blocks * BlockBytes)
		}
		spinWait(d)
	}
}

// WriteAccess accounts one logical write of n words starting at word w.
// Writes are cheap until flushed; only byte counters move here.
func (h *Handle) WriteAccess(w, n int64) {
	h.s.WriteAccesses++
	h.s.WriteWords += uint64(n)
}

// Flush persists the cache lines covering words [w, w+n): in strict mode the
// lines are copied to the persisted image; in emulate mode the write latency
// and write bandwidth are charged. Equivalent to CLWB on each line. A Fence
// is still required for ordering.
func (h *Handle) Flush(w, n int64) {
	lines := linesSpanned(w, n)
	h.s.Flushes += uint64(lines)
	h.dev.totalFlushes.Add(1)
	h.dev.recordWear(w, n)
	d := time.Duration(lines) * h.writeLatency
	h.s.ModeledNanos += uint64(d.Nanoseconds())
	switch h.dev.cfg.Mode {
	case ModeStrict:
		h.dev.persistLines(w, n)
	case ModeEmulate:
		if h.dev.writeBW != nil {
			h.dev.writeBW.consume(lines * CachelineBytes)
		}
		spinWait(d)
	}
}

// StageFlush queues the cache lines covering words [w, w+n) behind the next
// FlushBarrier: the CLWBs are issued (in strict mode the lines land in the
// persisted image immediately, exactly as Flush), but the latency cost is
// deferred. CLWB is non-blocking — a burst of line write-backs overlaps in
// the memory subsystem and is only waited on at the ordering point — so a
// group of staged lines costs one write latency plus the bandwidth drain of
// the lines behind the first at the barrier, not one serialized latency per
// line. Wear, line counters, and crash-point accounting are identical to
// Flush.
func (h *Handle) StageFlush(w, n int64) {
	lines := linesSpanned(w, n)
	h.s.Flushes += uint64(lines)
	h.dev.recordWear(w, n)
	h.stagedLines += lines
	if h.dev.cfg.Mode == ModeStrict {
		h.dev.persistLines(w, n)
	}
}

// FlushBarrier drains every line staged since the previous barrier: one
// write latency (the first CLWB's completion the subsequent fence waits on,
// its own transfer included — a one-line barrier is charged what a one-line
// Flush is) plus the bandwidth cost of each further line. A no-op when
// nothing is staged, reported as false: there is then nothing for a Fence to
// order, so the caller may skip it. Otherwise a Fence is still required for
// ordering, as after Flush.
func (h *Handle) FlushBarrier() bool {
	lines := h.stagedLines
	if lines == 0 {
		return false
	}
	h.stagedLines = 0
	h.dev.totalFlushes.Add(1)
	d := h.writeLatency + time.Duration(lines-1)*h.drainPerLn
	h.s.ModeledNanos += uint64(d.Nanoseconds())
	if h.emulate {
		if h.dev.writeBW != nil {
			h.dev.writeBW.consume(lines * CachelineBytes)
		}
		spinWait(h.writeLatency)
	}
	return true
}

// Fence accounts an SFENCE ordering point.
func (h *Handle) Fence() {
	h.s.Fences++
	h.s.ModeledNanos += uint64(h.fenceLatency.Nanoseconds())
	if h.emulate {
		spinWait(h.fenceLatency)
	}
}

// Load reads one word with no accounting (see ReadAccess).
func (h *Handle) Load(w int64) uint64 { return h.dev.Load(w) }

// Store writes one word with no accounting (see WriteAccess/Flush).
func (h *Handle) Store(w int64, v uint64) { h.dev.Store(w, v) }

// CAS compares-and-swaps one word.
func (h *Handle) CAS(w int64, old, new uint64) bool { return h.dev.CAS(w, old, new) }

// ReadWords performs an accounted read of n words into dst.
func (h *Handle) ReadWords(w int64, dst []uint64) {
	h.ReadAccess(w, int64(len(dst)))
	for i := range dst {
		dst[i] = h.dev.Load(w + int64(i))
	}
}

// WriteWords performs an accounted write of src at word w (not yet flushed).
func (h *Handle) WriteWords(w int64, src []uint64) {
	h.WriteAccess(w, int64(len(src)))
	for i, v := range src {
		h.dev.Store(w+int64(i), v)
	}
}

// StorePersist stores one word, flushes its line, and fences: the canonical
// 8-byte atomic durable write used for commit records and metadata.
func (h *Handle) StorePersist(w int64, v uint64) {
	h.dev.Store(w, v)
	h.WriteAccess(w, 1)
	h.Flush(w, 1)
	h.Fence()
}
