package core

import (
	"sort"
	"time"

	"hdnh/internal/kv"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// Batched operations. The point of a batch is amortisation, in descending
// order of value:
//
//   - Every key is hashed once, as RouterSession partitions the batch by
//     shard; each shard's part arrives here as batchKeys.
//   - MultiGet probes the hot table for the whole batch lock-free, then
//     walks the NVT for the remaining keys inside epoch critical sections
//     of one batch chunk (64 keys) each — one enter/exit pair per chunk
//     instead of per key — and reports one merged probeStats for the whole
//     walk. Hot-table re-caches are not applied one bucket-lock acquisition
//     per key: they are collected, grouped by hot bucket pair, and each
//     group is applied under a single lockBuckets/unlockBuckets round trip.
//   - MultiPut and MultiDelete commit one batch chunk of keys per group:
//     each chunk runs in bucket-sorted order (same-bucket keys touch
//     adjacent NVT lines back-to-back) through the same staged protocol a
//     single-key write runs as a group of one (groupcommit.go), so the
//     chunk's line write-backs drain behind at most three barriers for all
//     its keys together.
//
// Results are written into caller-provided slices so a steady-state caller
// allocates nothing; the sessions' scratch is reused across calls.

// batchKey is one batch entry with the hashes the router computed for it.
type batchKey struct {
	k         kv.Key
	h1, h2    uint64
	bucket    int64 // primary top-level candidate; write-group sort key
	fp        uint8
	done      bool // multiGet: resolved by an earlier pass
	contended bool // multiGet: needs the blocking fallback
}

// pendingFill is one deferred hot-table re-cache from a multiGet NVT hit.
// The control word observed at read time travels with it so the fill is
// validated (and skipped if stale) under the hot bucket lock, exactly like
// the single-key fill path.
type pendingFill struct {
	k    kv.Key
	v    kv.Value
	h1   uint64
	fp   uint8
	src  *level
	b    int64
	sl   int
	ctrl uint32
}

// batchScratch is the session-held reusable batch state. Batches allocate
// only when they outgrow the previous high-water mark.
type batchScratch struct {
	fills []pendingFill
	// leftover holds fills whose hot buckets moved under a racing hot-level
	// promotion (see applyFills). Session-held like the others: allocating
	// it per batch broke the zero-allocation steady state whenever a batch
	// raced a promotion.
	leftover []pendingFill

	// Write-group scratch: idx is the bucket-sorted commit order, pending
	// the staged group-commit writes awaiting their barriers (see
	// groupcommit.go).
	idx     []int
	pending []pendingCommit
	// recs is the group's out-of-line records as its RecordLog sees them,
	// later the writes whose records wait for the next reservation (see
	// stageRecords).
	recs  []Record
	later []pendingCommit
}

// multiGet looks up every key, writing vals[i]/found[i] for each and
// returning the number found. Per-key semantics are identical to get with
// retry — including the never-report-a-present-key-absent guarantee: a key
// whose walk exhausts its rescan budget under sustained movement falls back
// to get's blocking retry after the batch pass.
func (s *session) multiGet(keys []batchKey, vals []kv.Value, found []bool) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	bs := &s.batch
	// One flight span covers the batch; each key is counted, sampled and
	// touched on its own as it resolves (beginKey/end), so a contended key
	// is reported once, by the get its pass-3 fallback runs.
	span := s.o.fl.OpBegin(obs.OpGet)
	hits := 0

	// Pass 1: hot-table probes for the whole batch, lock-free, no epoch.
	if ht := s.t.hot; ht != nil {
		for i := range keys {
			bk := &keys[i]
			m := s.beginKey()
			if v, ok := ht.get(bk.k, bk.h1, bk.fp); ok {
				vals[i], found[i] = v, true
				bk.done = true
				hits++
				s.end(obs.OpGet, obs.OutHotHit, bk.k, m)
			}
		}
	}

	// Pass 2: NVT walks, one batch chunk of keys per critical section so a
	// large batch never extends a concurrent resize's grace period by more
	// than one chunk.
	var ps probeStats
	pending := 0
	for i := 0; i < n; {
		budget := s.t.opts.batchChunk
		s.enterCritical()
		for i < n && budget > 0 {
			bk := &keys[i]
			if bk.done {
				i++
				continue
			}
			budget--
			m := s.beginKey()
			h, res := s.t.walk(s.h, bk.k, bk.h1, bk.h2, bk.fp, &ps, walkRead)
			switch res {
			case lookupFound:
				vals[i], found[i] = h.val, true
				hits++
				s.end(obs.OpGet, obs.OutNVTHit, bk.k, m)
				if s.t.hot != nil {
					bs.fills = append(bs.fills, pendingFill{
						k: bk.k, v: h.val, h1: bk.h1, fp: bk.fp,
						src: h.ref.lvl, b: h.ref.b, sl: h.ref.s, ctrl: h.ctrl,
					})
				}
			case lookupMissing:
				found[i] = false
				s.end(obs.OpGet, obs.OutMiss, bk.k, m)
			default:
				bk.contended = true
				pending++
			}
			i++
		}
		s.exitCritical()
	}
	s.o.probes(&ps)
	s.applyFills()

	// The batch span ends here, with the walk's real outcome — before the
	// fallback loop below, whose get calls open their own spans. Ending it
	// after (the old behaviour) both misreported contended batches as OutOK
	// and nested a second OpGet begin inside the still-open batch span,
	// unbalancing begin/end counts exactly like PR 5's expansion-failure
	// leak.
	out := obs.OutOK
	if pending > 0 {
		out = obs.OutContended
	}
	s.o.fl.OpEnd(obs.OpGet, out, span)

	// Pass 3 (rare): keys that kept moving behind the scan take get's
	// blocking retry loop, which records its own per-key metrics and spans.
	if pending > 0 {
		for i := range keys {
			bk := &keys[i]
			if !bk.contended {
				continue
			}
			v, res := s.get(bk.k, bk.h1, bk.h2, bk.fp, true)
			vals[i], found[i] = v, res == lookupFound
			if found[i] {
				hits++
			}
		}
	}
	return hits
}

// applyFills drains the batch's pending hot re-caches: fills are sorted by
// their hot bucket pair and each run of same-bucket fills is applied under
// one lockBuckets acquisition. Validation against the observed source OCF
// word happens under the lock, same as hotTable.fill.
func (s *session) applyFills() {
	bs := &s.batch
	ht := s.t.hot
	fills := bs.fills
	bs.fills = bs.fills[:0]
	if ht == nil || len(fills) == 0 {
		return
	}
	hp := ht.pair()
	top, bottom := hp.top, hp.bottom
	sort.Slice(fills, func(a, b int) bool {
		ta, tb := top.bucket(fills[a].h1), top.bucket(fills[b].h1)
		if ta != tb {
			return ta < tb
		}
		return bottom.bucket(fills[a].h1) < bottom.bucket(fills[b].h1)
	})
	leftover := bs.leftover[:0]
	for g := 0; g < len(fills); {
		end := g + 1
		gtb, gbb := top.bucket(fills[g].h1), bottom.bucket(fills[g].h1)
		for end < len(fills) && top.bucket(fills[end].h1) == gtb && bottom.bucket(fills[end].h1) == gbb {
			end++
		}
		ltop, lbottom, tb, bb := ht.lockBuckets(fills[g].h1)
		for _, f := range fills[g:end] {
			if ltop.bucket(f.h1) != tb || lbottom.bucket(f.h1) != bb {
				// A resize promoted the hot levels between grouping and
				// locking; this fill's buckets moved. Take the singleton
				// path for it after the group.
				leftover = append(leftover, f)
				continue
			}
			if f.src.ocfLoad(f.b, f.sl) != f.ctrl {
				ht.o.hotFill(true)
				continue // record moved or changed since it was read
			}
			ht.o.hotFill(false)
			ht.putLocked(ltop, lbottom, tb, bb, f.k, f.v, f.fp, s.rng, false)
		}
		unlockBuckets(ltop, lbottom, tb, bb)
		g = end
	}
	bs.leftover = leftover // keep any growth for the next batch
	for _, f := range leftover {
		ht.fill(f.k, f.v, f.h1, f.fp, f.src, f.b, f.sl, f.ctrl, s.rng)
	}
}

// orderByBucket fills bs.idx with 0..n-1 sorted by each key's primary
// top-level candidate bucket. The sort is a pure locality hint — a resize
// swapping the level pair mid-batch merely degrades adjacency, never
// correctness — and it is stable, so duplicate keys in one batch keep
// caller order and commit last-write-wins.
func (s *session) orderByBucket(keys []batchKey) {
	bs := &s.batch
	pr := s.t.pair()
	n := len(keys)
	for i := range keys {
		bk := &keys[i]
		bk.bucket = pr.top.candidates(bk.h1, bk.h2)[0]
	}
	if cap(bs.idx) < n {
		bs.idx = make([]int, n)
	}
	bs.idx = bs.idx[:n]
	for i := range bs.idx {
		bs.idx[i] = i
	}
	idx := bs.idx
	sort.SliceStable(idx, func(a, b int) bool {
		return keys[idx[a]].bucket < keys[idx[b]].bucket
	})
}

// multiWrite is the grouped write core behind RouterSession's Multi* writes:
// sort by bucket, then stage one batch chunk of keys per group and commit
// each group with one drainPending. vals is read only for verbPut, and recs,
// when non-nil, marks the keys whose value is an out-of-line record (recs[i]
// non-nil; vals[i] is then ignored); olds and hadOld are filled when non-nil.
func (s *session) multiWrite(verb writeVerb, keys []batchKey, vals []kv.Value, recs [][]byte, olds []kv.Value, hadOld []bool, errs []error) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	bs := &s.batch
	s.orderByBucket(keys)
	chunk := s.t.opts.batchChunk
	fails := 0
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		start := time.Now()
		s.helpDrainStep()
		s.enterCritical()
		for _, i := range bs.idx[lo:hi] {
			bk := &keys[i]
			var v kv.Value
			if verb != verbDelete {
				v = vals[i]
			}
			var rec []byte
			if recs != nil {
				rec = recs[i]
			}
			w := s.beginWrite(verb, bk.k, v, rec, nil, bk.h1, bk.h2, bk.fp)
			w.out = int32(i)
			old, had, err := s.stage(&w, walkTryLock)
			if err == scheme.ErrContended || err == errNeedResize {
				// A slot in the probe path is locked — possibly by this very
				// group: a second write to a key it already staged lands here
				// — or the candidate set is full. Commit the group, so no
				// staged lock is held, and finish the key as a solo write: it
				// may wait on locks, opens its own critical sections, and may
				// expand the table.
				s.drainPending(errs)
				s.exitCritical()
				old, had, err = s.writeSolo(&w)
				s.enterCritical()
			}
			errs[i] = err
			if olds != nil {
				olds[i] = old
			}
			if hadOld != nil {
				hadOld[i] = had
			}
		}
		s.drainPending(errs)
		s.exitCritical()
		s.o.fl.GroupCommit(int64(hi-lo), time.Since(start))
		for _, i := range bs.idx[lo:hi] {
			if errs[i] != nil {
				fails++
			}
		}
	}
	return fails
}
