package core

import (
	"sync"

	"hdnh/internal/kv"
	"hdnh/internal/rng"
)

// The synchronous write mechanism (paper §3.4): every write operation is
// split between the foreground thread — which persists the record in the
// non-volatile table and updates the OCF — and a background writer that
// mirrors the change into the hot table. The two halves meet on a
// per-request sync_write_signal, so the DRAM copy overlaps the NVM write.
//
// Ordering rules that keep the cache coherent:
//
//   - Every write enqueues its mirror while it still holds the key's slot
//     locks — before drainPending publishes or retires anything — so two
//     writers of one key enqueue in the order they commit. Enqueued after
//     the unlock, the later writer's mirror could overtake the earlier
//     one's: a stale, or for a delete a resurrected, cache entry.
//   - Inserts enqueue before the NVT write (full overlap; the key is fresh,
//     so nothing can race it).
//   - Updates and deletes enqueue after their commit words are durable, so
//     the cache never shows a value a crash could take back; any cache fill
//     validated against the pre-commit OCF word is rejected, because the old
//     slot is locked by then and retires with a version bump.
//   - Search-path fills (hotOpFill) carry the OCF control word the reader
//     observed and are re-validated when applied.
//
// Requests for one key always route to the same writer, so same-key cache
// mutations apply in enqueue order.

// Hot request opcodes.
const (
	hotOpPut uint8 = iota
	hotOpDel
	hotOpFill
)

// hotRequest is one unit of background hot-table work.
type hotRequest struct {
	op   uint8
	fp   uint8
	key  kv.Key
	val  kv.Value
	h1   uint64
	done chan struct{} // the sync_write_signal; nil for fire-and-forget fills

	// Fill validation source (hotOpFill only).
	src       *level
	srcBucket int64
	srcSlot   int
	srcCtrl   uint32

	// group, when non-nil, carries a grouped write's coalesced mirrors for
	// this writer; the scalar fields above are ignored and the writer
	// applies the members in order before signalling done once.
	group []hotMirror
}

// hotMirror is one captured hot-table mutation of a grouped write. A chunk
// of MultiPut/MultiDelete records its mirrors instead of dispatching them
// one by one; dispatchHotMirrors then ships each writer its members as a
// single hotRequest, replacing N channel round-trips with one per writer.
type hotMirror struct {
	op  uint8
	fp  uint8
	key kv.Key
	val kv.Value
	h1  uint64
}

// writerPool runs the background writer goroutines.
type writerPool struct {
	t     *Table
	chans []chan hotRequest
	wg    sync.WaitGroup

	// mu guards the stop/dispatch race: Close used to close the channels
	// while a concurrent session op was mid-send, panicking the sender.
	// dispatch holds mu shared around the send; stop flips stopped under the
	// exclusive lock before closing, so every in-flight send either lands
	// before the close or observes stopped and falls back inline.
	mu      sync.RWMutex
	stopped bool
}

func newWriterPool(t *Table, n int) *writerPool {
	p := &writerPool{t: t, chans: make([]chan hotRequest, n)}
	for i := range p.chans {
		p.chans[i] = make(chan hotRequest, 128)
		p.wg.Add(1)
		go p.run(i)
	}
	return p
}

func (p *writerPool) run(i int) {
	defer p.wg.Done()
	r := rng.New(p.t.opts.Seed ^ uint64(0xb06e<<16) ^ uint64(i))
	rec := p.t.recorderHandle() // each writer owns a shard-bound recorder
	for req := range p.chans[i] {
		if req.group != nil {
			for _, m := range req.group {
				p.apply(hotRequest{op: m.op, fp: m.fp, key: m.key, val: m.val, h1: m.h1}, r)
				rec.BGApply()
			}
		} else {
			p.apply(req, r)
			rec.BGApply()
		}
		if req.done != nil {
			req.done <- struct{}{}
		}
	}
}

func (p *writerPool) apply(req hotRequest, r *rng.Xorshift128) {
	switch req.op {
	case hotOpPut:
		p.t.hot.put(req.key, req.val, req.h1, req.fp, r)
	case hotOpDel:
		p.t.hot.del(req.key, req.h1, req.fp)
	case hotOpFill:
		p.t.hot.fill(req.key, req.val, req.h1, req.fp, req.src, req.srcBucket, req.srcSlot, req.srcCtrl, r)
	}
}

// dispatch hands the request to its writer; same key → same writer → FIFO.
// It reports false once the pool has stopped — the caller then applies the
// request inline instead of panicking on a closed channel. Holding the
// shared lock across a send that blocks on a full channel is safe: stop
// closes only after taking the lock exclusively, and the writers keep
// consuming until then.
func (p *writerPool) dispatch(req hotRequest) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.stopped {
		return false
	}
	p.chans[req.h1>>16%uint64(len(p.chans))] <- req
	return true
}

// writerFor returns the writer index a key's mutations route to. Grouped
// writes bucket mirrors with it so a coalesced request lands on the same
// writer the per-key path would have used, preserving same-key FIFO order.
func (p *writerPool) writerFor(h1 uint64) int {
	return int(h1 >> 16 % uint64(len(p.chans)))
}

// dispatchTo hands a pre-routed request to writer w under the same
// stop/dispatch protocol as dispatch.
func (p *writerPool) dispatchTo(w int, req hotRequest) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.stopped {
		return false
	}
	p.chans[w] <- req
	return true
}

// stop drains and joins the writers. Safe against concurrent dispatchers:
// they either complete their send before the close or see stopped.
func (p *writerPool) stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()
	for _, ch := range p.chans {
		close(ch)
	}
	p.wg.Wait()
}

// beginHotWrite starts the background half of a write; it returns whether a
// completion wait is owed. With sync writes off (or no hot table) the DRAM
// update is applied inline and no wait is owed.
func (s *Session) beginHotWrite(op uint8, k kv.Key, v kv.Value, h1 uint64, fp uint8) bool {
	t := s.t
	if t.hot == nil {
		return false
	}
	if s.capturing {
		// A grouped write is in flight: record the mirror instead of
		// dispatching it. drainPending ships the group's mirrors together,
		// so no wait is owed here.
		s.batch.mirrors = append(s.batch.mirrors, hotMirror{op: op, fp: fp, key: k, val: v, h1: h1})
		return false
	}
	if t.pool != nil && t.pool.dispatch(hotRequest{op: op, fp: fp, key: k, val: v, h1: h1, done: s.done}) {
		return true
	}
	// No pool, or the pool already stopped (an op racing Close): inline.
	switch op {
	case hotOpPut:
		t.hot.put(k, v, h1, fp, s.rng)
	case hotOpDel:
		t.hot.del(k, h1, fp)
	}
	return false
}

// waitHotWrite blocks until the background writer raises the
// sync_write_signal.
func (s *Session) waitHotWrite(owed bool) {
	if owed {
		<-s.done
	}
}

// dispatchHotMirrors ships the mirrors a grouped chunk captured: one
// coalesced request per background writer. Routing by writerFor keeps every
// key on the writer the per-key path would use, and per-writer slices
// preserve capture order, so duplicate keys within a batch still apply
// last-write-wins. Returns how many writer requests it dispatched (0 when
// everything applied inline): the caller owes one receive on s.done for
// each, and surfaces the count as the group's coalescing factor.
func (s *Session) dispatchHotMirrors() int {
	bs := &s.batch
	if len(bs.mirrors) == 0 {
		return 0
	}
	pool := s.t.pool
	if pool == nil {
		for i := range bs.mirrors {
			s.applyMirrorInline(&bs.mirrors[i])
		}
		bs.mirrors = bs.mirrors[:0]
		return 0
	}
	nw := len(pool.chans)
	if len(bs.byWriter) != nw {
		bs.byWriter = make([][]hotMirror, nw)
	}
	for w := range bs.byWriter {
		bs.byWriter[w] = bs.byWriter[w][:0]
	}
	for i := range bs.mirrors {
		w := pool.writerFor(bs.mirrors[i].h1)
		bs.byWriter[w] = append(bs.byWriter[w], bs.mirrors[i])
	}
	bs.mirrors = bs.mirrors[:0]
	owed := 0
	for w := range bs.byWriter {
		if len(bs.byWriter[w]) == 0 {
			continue
		}
		if pool.dispatchTo(w, hotRequest{group: bs.byWriter[w], done: s.done}) {
			owed++
		} else {
			// Pool stopped under us (an op racing Close): apply inline.
			for i := range bs.byWriter[w] {
				s.applyMirrorInline(&bs.byWriter[w][i])
			}
		}
	}
	return owed
}

func (s *Session) applyMirrorInline(m *hotMirror) {
	switch m.op {
	case hotOpPut:
		s.t.hot.put(m.key, m.val, m.h1, m.fp, s.rng)
	case hotOpDel:
		s.t.hot.del(m.key, m.h1, m.fp)
	}
}

// fillHot re-caches a record found in the NVT by a search, validated
// against the OCF word the search observed. Fire-and-forget: searches never
// wait on the cache.
func (s *Session) fillHot(k kv.Key, v kv.Value, h1 uint64, fp uint8, src *level, b int64, slot int, ctrl uint32) {
	t := s.t
	if t.hot == nil {
		return
	}
	if t.pool != nil && t.pool.dispatch(hotRequest{
		op: hotOpFill, fp: fp, key: k, val: v, h1: h1,
		src: src, srcBucket: b, srcSlot: slot, srcCtrl: ctrl,
	}) {
		return
	}
	t.hot.fill(k, v, h1, fp, src, b, slot, ctrl, s.rng)
}
