package core

import (
	"runtime"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// The write protocol. Every NVT slot write — Insert, Update, Delete, Put,
// each key of MultiPut/MultiDelete, and every record a drain or a
// displacement relocates — commits through the one staged group protocol
// below; a single-key write (and a displacement) is a group of one.
//
//	phase A (stage, per key)
//	        a write: one lock walk decides it (insert, out-of-place
//	        update, delete, or a verdict that writes nothing); a move: the
//	        mover locks the record's slot and a free destination. Store
//	        key+value words into the new slot, stage their lines
//	        out-of-line records (once every slot of the group is locked):
//	        reserve the group's records in the session's RecordLog, store
//	        and stage their bodies, then store and stage the slot words
//	        that point at them
//	phase B  barrier — every staged key/value word and record body durable
//	phase B′ (groups with records) store and stage the records' headers,
//	        barrier; acknowledge the records in reservation order
//	phase C  store every commit word (valid bit for inserts/updates/moves,
//	         cleared bit for deletes), stage, barrier; then mirror the
//	         updates and deletes into the hot table (syncwrite.go)
//	phase D  store the old-slot clears of updates and moves, stage them (a
//	         line that neighbouring moves share, once), barrier; then, key
//	         by key, publish the new slot in the OCF, bump the movement
//	         counter of an update or move, release the old slot and close
//	         the op
//
// A barrier is FlushBarrier+Fence, and a phase that staged nothing skips
// both: with no write-back issued since the previous fence there is nothing
// to order. A lone insert therefore pays two barriers, a lone update or move
// three, a lone delete one — the paper's per-key protocol exactly — while a
// group of n pays the same two, three or one for all n keys together. A
// group with out-of-line records pays one more, B′, for all its records: a
// logged insert three, a logged update four. A move whose record is already
// committed in the new structure (a resumed drain) stages nothing and only
// clears its source: one barrier.
//
// Crash ordering (the only such argument in this package; INTERNALS §2 has
// the long form): a commit word is stored only after its key/value words are
// fence-durable (B precedes C) and after the record it points at, if any, is
// durable whole and acknowledged (B′ precedes C: the body at B, the header
// at B′), an update's or move's old slot is cleared
// only after the new copy is durable (C precedes D), a record becomes
// visible only after its commit word and — if it replaces one — the old
// copy's clear are durable (D's barrier precedes the publishes), the old
// slot leaves the OCF only after that too, and a delete's absence is visible
// only after its clear is durable. A crash between C and D's barrier leaves
// both copies durable, and recovery keeps the newer stamp — or, for a move,
// whose copies are identical, finds the new one and only clears the source.
//
// Locking: every staged slot (the old record's and the new one's) stays
// locked from phase A until phase D, so the exchange guarantee holds — the
// displaced value read in phase A is the one this write replaces. That is
// also why only an EMPTY group may probe with blocking waits: a session
// parked on a locked slot cannot tell a foreign lock from one of its own
// staged ones, and its own never release until it drains. A solo write
// stages into an empty group, so it waits like the paper's writer does; the
// batch loop stages with walkTryLock, and a key that would block drains the
// group and reruns as a solo write. That covers a key the group has already
// staged, too: its slot is locked under its fingerprint (an insert's is
// announced, see stage), so the duplicate's probe reports contention, the
// first write commits, and the second sees it. The pending group never
// crosses an exitCritical: level pointers referenced by staged slots stay
// pinned. A drain worker's group is the exception that may wait while it
// holds staged locks; INTERNALS §6 argues why that cannot deadlock.
//
// Records: a group reserves its out-of-line records only after every one of
// its slots is locked, and nothing from the reservation to the
// acknowledgment waits on a slot lock — the acknowledgment itself waits for
// every earlier reservation of the log, whose owners are past their own
// locking for the same reason, so the wait chain always ends. A group
// reserves once per train: when its records do not all fit the log's
// active segment, the ones that fit commit first and the rest reserve again
// afterwards (a reservation that rolls the log waits for every earlier
// acknowledgment, its own group's included). A reservation that fails —
// the log is full — releases the slots of the writes it could not place
// untouched and closes them with the error, so a caller that helps the
// log's collector does so holding nothing.

// writeVerb is what a write asks of the one probe every verb starts with.
type writeVerb uint8

const (
	verbPut    writeVerb = iota // upsert: update when present, insert when absent
	verbInsert                  // scheme.ErrExists when present
	verbUpdate                  // scheme.ErrNotFound when absent, ErrConflict on an expect mismatch
	verbDelete                  // scheme.ErrNotFound when absent
)

// nominalOp is the op a verb's span opens as and its inconclusive failures
// (contended, full) are counted under. An upsert's kind is unknown until its
// probe concludes; it is filed as an update until then.
var nominalOp = [...]obs.Op{verbPut: obs.OpUpdate, verbInsert: obs.OpInsert, verbUpdate: obs.OpUpdate, verbDelete: obs.OpDelete}

// RecordLog is where a session's writes keep values too large for a slot —
// bigkv's value log. Such a write carries its value as a record; the log
// stores it, and the slot gets the value Reserve returns, a pointer to it.
// The record commits through the write's own barrier train (see the
// protocol above), not through barriers of its own:
//
//	Reserve  called in phase A, once every slot of the group is locked:
//	         claim space for a prefix of recs (at least one record unless it
//	         fails), store each claimed record's body, stage its lines on h,
//	         set its Slot, and return how many it claimed. The records left
//	         over are offered to the next call.
//	Publish  called after phase B made the bodies durable, with the prefix
//	         Reserve claimed: store and stage the headers, drain them behind
//	         one barrier (B′), and acknowledge the records in reservation
//	         order. Phase C's commit words follow.
//
// A session's RecordLog is bound per shard (RouterSession.SetRecordLog) and
// used by one goroutine at a time, so it may keep scratch between the two
// calls.
type RecordLog interface {
	Reserve(h *nvm.Handle, recs []Record) (int, error)
	Publish(h *nvm.Handle, recs []Record)
}

// Record is one write's out-of-line record as a RecordLog sees it.
type Record struct {
	Key     kv.Key
	Payload []byte
	Slot    kv.Value // set by Reserve: the slot value that points at the record
}

// writeOp is one write request plus its open op's mark, carried from
// beginWrite through every stage attempt to the op's end.
type writeOp struct {
	verb   writeVerb
	k      kv.Key
	v      kv.Value  // new value; zero for deletes and until a record is reserved
	rec    []byte    // out-of-line record (see RecordLog); nil for a slot-sized value
	expect *kv.Value // verbUpdate only: replace only while the value equals *expect
	h1, h2 uint64
	fp     uint8
	op     obs.Op // nominalOp[verb]
	out    int32  // the write's index in its batch's verdicts, -1 for a lone write
	m      mark
}

func (s *session) beginWrite(verb writeVerb, k kv.Key, v kv.Value, rec []byte, expect *kv.Value, h1, h2 uint64, fp uint8) writeOp {
	op := nominalOp[verb]
	return writeOp{verb: verb, k: k, v: v, rec: rec, expect: expect, h1: h1, h2: h2, fp: fp,
		op: op, out: -1, m: s.begin(op)}
}

// opMove is the pendingCommit kind of a relocated record (drain,
// displacement): an update's phases under the record's own value, with no
// hot mirror (the value does not change), no count change and no op to close.
// It never reaches an observer.
const opMove = obs.NumOps

// pendingCommit is one staged write: the slots it holds locked, the commit
// word to store in phase C, and the op bookkeeping to close in phase D.
type pendingCommit struct {
	op     obs.Op // OpInsert, OpUpdate or OpDelete — what the probe made of the verb — or opMove
	k      kv.Key
	v      kv.Value // new value; zero for deletes, and for a record until it is reserved
	rec    []byte   // out-of-line record; its slot words are stored once it is reserved
	newRef slotRef  // staged slot (inserts/updates/moves; lvl nil for a move that only clears)
	newC   uint32   // its pre-lock control word
	w3     uint64   // commit word for the staged slot
	oldRef slotRef  // displaced slot (updates/deletes/moves)
	oldC   uint32
	oldW3  uint64
	h1     uint64
	fp     uint8
	out    int32 // writeOp.out
	m      mark
}

// release unlocks the slot with the given validity, bumping the version of
// the control word c the lock was taken over.
func (r slotRef) release(valid bool, fp uint8, c uint32) {
	r.lvl.ocfRelease(r.b, r.s, valid, fp, ocfVer(c))
}

// writeSlotStage stores a record's key and value words into the locked slot
// and queues their lines behind the handle's next FlushBarrier. The final
// word — value tail, valid bit and stamp — is returned for commitGroup to
// store after that barrier's fence. The slot stays locked and unpublished.
func writeSlotStage(h *nvm.Handle, ref slotRef, k kv.Key, v kv.Value, stamp uint8) uint64 {
	off := ref.wordOff()
	var w [slotWords]uint64
	kv.PackRecord(w[:], k, v, packMeta(true, stamp))
	h.Store(off, w[0])
	h.Store(off+1, w[1])
	h.Store(off+2, w[2])
	h.WriteAccess(off, 3)
	h.StageFlush(off, 3)
	return w[3]
}

// storeClear stores the clear of a committed slot's valid bit and returns
// the word's offset; the caller stages its line.
func storeClear(h *nvm.Handle, ref slotRef, w3 uint64) int64 {
	off := ref.wordOff() + 3
	h.Store(off, kv.WithMeta(w3, packMeta(false, metaStamp(kv.MetaOf(w3)))))
	h.WriteAccess(off, 1)
	return off
}

// stageClear stages the clear of a committed slot's valid bit behind the
// next FlushBarrier.
func stageClear(h *nvm.Handle, ref slotRef, w3 uint64) {
	h.StageFlush(storeClear(h, ref, w3), 1)
}

// settle closes an op that ends without staging a write — its probe's
// verdict, or a failure — and returns err.
func (s *session) settle(w *writeOp, op obs.Op, out obs.Outcome, err error) error {
	s.end(op, out, w.k, w.m)
	return err
}

// enqueue adds a staged write to the pending group.
func (s *session) enqueue(w *writeOp, p pendingCommit) {
	p.k, p.v, p.rec, p.h1, p.fp, p.out, p.m = w.k, w.v, w.rec, w.h1, w.fp, w.out, w.m
	s.batch.pending = append(s.batch.pending, p)
}

// stage is phase A for one key: probe once, and either stage the write the
// verb asks for into the pending group (nil error; its slots stay locked
// until drainPending) or conclude without one. old/hadOld carry the value
// the probe found, with the exchange guarantee when the write staged. The
// errors:
//
//	scheme.ErrExists, ErrNotFound, ErrConflict — the verdict; the op is closed
//	scheme.ErrContended — inconclusive probe (or, with walkTryLock, a slot
//	        that would block); nothing held, retry
//	errNeedResize — no free slot in the candidate set; nothing held; hadOld
//	        says whether it was an update (often transient) or an insert
//
// Caller must be inside an epoch critical section. mode is walkLock or
// walkTryLock; walkLock requires an empty pending group.
func (s *session) stage(w *writeOp, mode walkMode) (old kv.Value, hadOld bool, err error) {
	if mode == walkLock && len(s.batch.pending) != 0 {
		panic("core: blocking probe while holding staged slot locks")
	}
	moves := s.t.moveShard(w.h1)
	seen := moves.Load()
	var ps probeStats
	cur, res := s.t.walk(s.h, w.k, w.h1, w.h2, w.fp, &ps, mode)
	s.o.probes(&ps)
	switch res {
	case lookupContended:
		return kv.Value{}, false, scheme.ErrContended
	case lookupMissing:
		if w.verb == verbUpdate || w.verb == verbDelete {
			return kv.Value{}, false, s.settle(w, w.op, obs.OutNotFound, scheme.ErrNotFound)
		}
		// Conclusive miss — the walk completed a full quiescent pass —
		// which is the insert's duplicate check. Inserting without it could
		// plant a second copy of a live key.
		ref, c, ok := s.t.lockEmptySlot(w.h1, w.h2, nil)
		// Displacement makes room — but not while a drain is in flight: it
		// packs the new levels toward 100% without ever calling expand, the
		// only place an insert waits for the drain, and the records still in
		// the drain level need those slots.
		if !ok && s.t.opts.DisplaceOnInsert && !s.t.Resizing() && s.t.displaceOne(s.h, w.h1, w.h2) {
			ref, c, ok = s.t.lockEmptySlot(w.h1, w.h2, nil)
		}
		if !ok {
			return kv.Value{}, false, errNeedResize
		}
		// Two writers inserting the same fresh key both get here: neither
		// probe could see the other's slot. The key's movement counter picks
		// one. Announce the slot under the key's fingerprint, then bump the
		// counter: unchanged since before the probe means no other insert
		// (or move) in this shard went by, so nobody else holds a slot for
		// this key; and whoever samples the counter after our bump probes
		// after our announce, finds this slot, and waits on it. A changed
		// counter may be the other inserter — give the slot back and
		// re-probe.
		ref.lvl.ocfAnnounce(ref.b, ref.s, w.fp, c)
		if moves.Add(1) != seen+1 {
			ref.release(false, 0, c)
			return kv.Value{}, false, scheme.ErrContended
		}
		// The hot mirror goes in first, where the paper starts it (§3.4):
		// the key is fresh and its slot announced, so nothing can race it.
		// A record's value is not known until it is reserved; its insert
		// mirrors after phase C, like an update.
		p := pendingCommit{op: obs.OpInsert, newRef: ref, newC: c}
		if w.rec == nil {
			s.mirrorPut(w.k, w.v, w.h1, w.fp)
			p.w3 = writeSlotStage(s.h, ref, w.k, w.v, 1)
		}
		s.enqueue(w, p)
		return kv.Value{}, false, nil
	}
	// Found: cur's slot is locked and cur.val is current.
	switch {
	case w.verb == verbInsert:
		cur.ref.release(true, w.fp, cur.ctrl)
		return cur.val, true, s.settle(w, obs.OpInsert, obs.OutExists, scheme.ErrExists)
	case w.expect != nil && cur.val != *w.expect:
		// Conditional update, wrong current value: put the slot back
		// untouched and report the value that won.
		cur.ref.release(true, w.fp, cur.ctrl)
		return cur.val, true, s.settle(w, obs.OpUpdate, obs.OutConflict, scheme.ErrConflict)
	case w.verb == verbDelete:
		s.enqueue(w, pendingCommit{op: obs.OpDelete, oldRef: cur.ref, oldC: cur.ctrl, oldW3: cur.w3})
		return cur.val, true, nil
	}
	// Out-of-place update (paper Figure 10): the new copy goes into a free
	// slot, preferring the old record's own bucket so a crash leaves the
	// duplicate bucket-local — but only while that bucket is in the current
	// structure: a record found in the drain level must move to top/bottom,
	// never back into the level being emptied.
	pr := s.t.pair()
	prefer := &cur.ref
	if cur.ref.lvl != pr.top && cur.ref.lvl != pr.bottom {
		prefer = nil
	}
	ref, c, ok := s.t.lockEmptySlot(w.h1, w.h2, prefer)
	if !ok {
		cur.ref.release(true, w.fp, cur.ctrl) // put the old slot back untouched
		return kv.Value{}, true, errNeedResize
	}
	p := pendingCommit{op: obs.OpUpdate, newRef: ref, newC: c,
		oldRef: cur.ref, oldC: cur.ctrl, oldW3: cur.w3}
	if w.rec == nil {
		p.w3 = writeSlotStage(s.h, ref, w.k, w.v, p.stamp())
	}
	s.enqueue(w, p)
	return cur.val, true, nil
}

// stamp is the stamp of the record a write stages: 1 for an insert, one past
// the displaced record's for an update.
func (p *pendingCommit) stamp() uint8 {
	if p.op == obs.OpInsert {
		return 1
	}
	return metaStamp(kv.MetaOf(p.oldW3)) + 1
}

// drainPending commits the session's staged group and closes each op. Must
// run inside the critical section the stages ran in. A group with records
// commits in one train per reservation (see stageRecords). A write whose
// record found the log full is closed with the error instead, which is
// stored in errs at the write's batch index (when errs is non-nil) and
// returned.
func (s *session) drainPending(errs []error) error {
	g := s.batch.pending
	var err error
	for len(g) > 0 {
		n, run, rerr := s.stageRecords(g)
		s.t.commitGroup(s.h, g[:n], s, run)
		g = g[n:]
		if rerr != nil {
			for i := range g {
				s.abandon(&g[i], rerr, errs)
			}
			g, err = nil, rerr
		}
	}
	s.batch.pending = s.batch.pending[:0]
	return err
}

// stageRecords finishes phase A for a group whose slots are all locked: it
// reserves the group's out-of-line records in one call to the session's
// RecordLog, and stores and stages the slot words of every write whose
// record was reserved. The entries ready to commit move to the front —
// g[:n]; run is their reserved records, for commitGroup to publish — and
// the writes whose records did not fit wait behind them for the next train,
// or, with a non-nil error, to be abandoned.
func (s *session) stageRecords(g []pendingCommit) (n int, run []Record, err error) {
	bs := &s.batch
	recs := bs.recs[:0]
	for i := range g {
		if g[i].rec != nil {
			recs = append(recs, Record{Key: g[i].k, Payload: g[i].rec})
		}
	}
	bs.recs = recs
	if len(recs) == 0 {
		return len(g), nil, nil
	}
	if s.rlog == nil {
		panic("core: an out-of-line record on a session with no RecordLog")
	}
	reserved, err := s.rlog.Reserve(s.h, recs)
	r := 0
	for i := range g {
		if p := &g[i]; p.rec != nil {
			if r == reserved {
				break
			}
			p.v = recs[r].Slot
			p.w3 = writeSlotStage(s.h, p.newRef, p.k, p.v, p.stamp())
			r++
		}
	}
	if reserved == len(recs) {
		return len(g), recs, nil
	}
	// Some records wait for the next train: their writes move behind the
	// ready ones, each side keeping its order.
	later := bs.later[:0]
	r = 0
	for i := range g {
		p := &g[i]
		if p.rec != nil {
			if r == reserved {
				later = append(later, *p)
				continue
			}
			r++
		}
		g[n] = *p
		n++
	}
	copy(g[n:], later)
	bs.later = later
	return n, recs[:reserved], err
}

// abandon releases a staged write whose record could not be reserved — its
// slots go back untouched — and closes it with err.
func (s *session) abandon(p *pendingCommit, err error, errs []error) {
	p.newRef.release(false, 0, p.newC)
	if p.op == obs.OpUpdate {
		p.oldRef.release(true, p.fp, p.oldC)
	}
	s.end(p.op, obs.OutError, p.k, p.m)
	if errs != nil && p.out >= 0 {
		errs[p.out] = err
	}
}

// commitGroup runs phases B-D over a staged group (see the protocol at the
// top of the file) on the handle its phase A staged through. s is the
// session whose writes these are — it applies their hot mirrors, closes
// their ops and publishes run, the group's reserved records — and nil for a
// record mover, whose entries are all opMove.
func (t *Table) commitGroup(h *nvm.Handle, group []pendingCommit, s *session, run []Record) {
	if len(group) == 0 {
		return
	}

	// Phase B: every staged key/value word and record body becomes durable at
	// once. (A group of deletes staged none.)
	if h.FlushBarrier() {
		h.Fence()
	}

	// Phase B′: the records' headers, behind their own barrier, then their
	// acknowledgment — after which a commit word may point at them.
	if len(run) != 0 {
		s.rlog.Publish(h, run)
	}

	// Phase C: store and stage every commit word, then one barrier. Commit
	// words only land after B's fence, so no slot can be durable-valid with
	// non-durable contents. A move with nothing staged waits for phase D.
	for i := range group {
		p := &group[i]
		switch {
		case p.op == obs.OpDelete:
			stageClear(h, p.oldRef, p.oldW3)
		case p.newRef.lvl != nil:
			off := p.newRef.wordOff() + 3
			h.Store(off, p.w3)
			h.WriteAccess(off, 1)
			h.StageFlush(off, 1)
		}
	}
	if h.FlushBarrier() {
		h.Fence()
	}

	// Hot mirrors are applied here, in staging order: after C, so what they
	// cache is durable, and before D unlocks anything, so the next writer of
	// any of these keys mirrors after us (see syncwrite.go). Inserts of
	// slot-sized values applied theirs at stage time.
	for i := range group {
		p := &group[i]
		switch {
		case p.op == obs.OpUpdate, p.op == obs.OpInsert && p.rec != nil:
			s.mirrorPut(p.k, p.v, p.h1, p.fp)
		case p.op == obs.OpDelete:
			s.mirrorDel(p.k, p.h1, p.fp)
		}
	}

	// Phase D, first half: the old slots of updates and moves are cleared
	// durably while nothing of the group is visible yet. The slots a drain
	// clears are neighbours — two to a cache line — so a move whose line the
	// entry before it has staged does not stage it again, and every clear is
	// stored before any line is staged: a line staged between two of its
	// stores would be written back without the second. An update's clear is
	// staged on its own, as it always was (its neighbours in a batch are
	// rarely its neighbours in the table).
	for i := range group {
		if p := &group[i]; p.op == obs.OpUpdate || p.op == opMove {
			storeClear(h, p.oldRef, p.oldW3)
		}
	}
	last := int64(-1)
	for i := range group {
		p := &group[i]
		if p.op != obs.OpUpdate && p.op != opMove {
			continue
		}
		off := p.oldRef.wordOff() + 3
		line := off / nvm.CachelineWords
		if p.op == opMove && line == last {
			continue
		}
		h.StageFlush(off, 1)
		last = line
	}
	if h.FlushBarrier() { // only updates and moves staged a clear
		h.Fence()
	}

	// Second half: publish, retire, close. A new slot enters the OCF only
	// now, with its commit word durable and — for an update or move — the old
	// copy durably gone: a delete that found the new copy any earlier could
	// be acknowledged while a crash would still bring the old one back. The
	// new copy is published BEFORE the old slot is released — a reader that
	// already passed the new slot's bucket waits on the old slot's lock and
	// must still find the key somewhere when that lock releases — and the
	// move is signalled while both are visible: a reader that misses
	// re-checks the counter and rescans (see Table.moves).
	for i := range group {
		p := &group[i]
		if p.newRef.lvl != nil {
			p.newRef.release(true, p.fp, p.newC)
		}
		switch p.op {
		case obs.OpInsert:
			t.count.Add(1)
		case obs.OpUpdate, opMove:
			t.moveShard(p.h1).Add(1)
			p.oldRef.release(false, 0, p.oldC)
		case obs.OpDelete:
			p.oldRef.release(false, 0, p.oldC)
			t.count.Add(-1)
		}
		if p.op != opMove {
			s.end(p.op, obs.OutOK, p.k, p.m)
		}
	}
}

// writeSolo runs one write to completion as a group of one: stage with
// blocking probes (the pending group is empty), drain, and absorb what a
// single attempt cannot — an inconclusive probe retries with capped backoff
// up to contendedRetryMax rounds before surfacing ErrContended (ErrNotFound
// and ErrExists are returned only after a conclusive scan), and a full
// candidate set expands the table, up to maxExpansions doublings,
// before surfacing ErrFull. Must be called outside any critical section.
func (s *session) writeSolo(w *writeOp) (kv.Value, bool, error) {
	transientRetries, contendedRounds := 0, 0
	for attempt := 0; attempt <= s.t.opts.maxExpansions; attempt++ {
		s.helpDrainStep()
		s.enterCritical()
		old, hadOld, err := s.stage(w, walkLock)
		switch err {
		case nil:
			err = s.drainPending(nil)
			s.exitCritical()
			if err != nil {
				return kv.Value{}, false, err
			}
			return old, hadOld, nil
		case scheme.ErrContended:
			s.exitCritical()
			s.o.rec.Contended()
			if contendedRounds < contendedRetryMax {
				contendedRounds++
				attempt--
				spinBackoff(spinYields + contendedRounds)
				continue
			}
			return kv.Value{}, false, s.settle(w, w.op, obs.OutContended, err)
		case errNeedResize:
			gen := s.t.state().generation
			lf := s.t.LoadFactor()
			s.exitCritical()
			// An update's full candidate set at moderate load is usually
			// transient — concurrent updaters of nearby (skewed) keys each
			// hold one extra slot mid-move. Retry before paying for an
			// expansion, which would stall every thread for a full rehash.
			if hadOld && lf < 0.85 && transientRetries < 8 {
				transientRetries++
				attempt--
				runtime.Gosched()
				continue
			}
			if err := s.t.expand(gen); err != nil {
				return kv.Value{}, false, s.settle(w, w.op, expandOutcome(err), err)
			}
		default: // the probe's verdict; stage closed the op
			s.exitCritical()
			return old, hadOld, err
		}
	}
	return kv.Value{}, false, s.settle(w, w.op, obs.OutFull, scheme.ErrFull)
}

// writeHashed is the single-key write entry: the router hashes the key once
// to pick the shard and passes h1/h2/fp on.
func (s *session) writeHashed(verb writeVerb, k kv.Key, v kv.Value, rec []byte, expect *kv.Value, h1, h2 uint64, fp uint8) (kv.Value, bool, error) {
	w := s.beginWrite(verb, k, v, rec, expect, h1, h2, fp)
	return s.writeSolo(&w)
}
