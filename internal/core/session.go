package core

import (
	"hdnh/internal/nvm"
	"hdnh/internal/rng"
)

// session is one RouterSession's handle on one shard's Table. It owns an NVM
// accounting handle, a deterministic RNG stream for replacement decisions,
// and its own observer handles (see observe.go), so the operation paths
// allocate nothing. Its entry points take the key's hashes, which the
// router computed once to pick the shard.
//
// A session must not be used concurrently; its RouterSession is owned by one
// goroutine.
type session struct {
	t   *Table
	h   *nvm.Handle
	rng *rng.Xorshift128
	ep  *epochSlot // this session's padded resize-protection slot

	o       observer
	nvmBase nvm.Stats // handle stats already published via syncObs

	// rlog takes the out-of-line records of this session's writes (see
	// RecordLog); nil until RouterSession.SetRecordLog binds one.
	rlog RecordLog

	// batch is the multiGet/multiWrite scratch, reused across calls so
	// batches allocate only when they outgrow the previous high water mark
	// (see batch.go).
	batch batchScratch
}

// newSession returns a fresh session on the table.
func (t *Table) newSession() *session {
	id := t.sessionSeq.Add(1)
	s := &session{
		t:   t,
		h:   t.dev.NewHandle(),
		rng: rng.New(t.opts.Seed ^ (id * 0x9E3779B97F4A7C15)),
		ep:  t.registerEpochSlot(),
		o: observer{
			rec:  t.opts.Metrics.Handle(),
			fl:   t.opts.Flight.Handle("session"),
			heat: t.opts.Heat.Handle(t.opts.heatShard),
		},
	}
	// Bind the session's device handle so traced ops carry their per-op NVM
	// deltas as span args.
	s.o.fl.BindNVM(s.h)
	return s
}

// close returns the session's epoch slot to the table's free list so the
// next newSession reuses it instead of growing the registry. Without it a
// create-session-per-request server grows the registry without bound and
// every resize grace period scans every slot ever registered. close is
// idempotent; using the session after close panics. Pending metrics are
// flushed via syncObs first so a closed session's traffic is not lost.
func (s *session) close() {
	if s.ep == nil {
		return
	}
	s.syncObs()
	s.t.releaseEpochSlot(s.ep)
	s.ep = nil
}

// resetNVMStats zeroes the session's NVM counters, and the syncObs baseline
// with them so the bridge never underflows.
func (s *session) resetNVMStats() {
	s.h.ResetStats()
	s.nvmBase = nvm.Stats{}
}

// syncObs publishes the session's NVM traffic accumulated since the last
// syncObs into the metrics registry. The handle's stats are handle-local and
// unsynchronised, so the bridge is an explicit pull by the owning goroutine.
func (s *session) syncObs() {
	cur := s.h.Stats()
	s.o.rec.AddNVM(cur.Sub(s.nvmBase))
	s.nvmBase = cur
}
