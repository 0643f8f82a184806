package core

import (
	"hdnh/internal/flight"
	"hdnh/internal/heat"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/rng"
)

// Session is a per-goroutine handle on a Table. It owns an NVM accounting
// handle, a deterministic RNG stream for replacement decisions, and (when
// metrics are enabled) a shard-bound recorder, so the operation paths
// allocate nothing.
//
// A Session must not be used concurrently; create one per goroutine.
type Session struct {
	t   *Table
	h   *nvm.Handle
	rng *rng.Xorshift128
	ep  *epochSlot // this session's padded resize-protection slot

	rec     obs.Recorder
	fl      flight.Tracer
	heat    heat.Sampler
	nvmBase nvm.Stats // handle stats already published via SyncObs

	// batch is the MultiGet/MultiPut/MultiDelete scratch, reused across
	// calls so batches allocate only when they outgrow the previous high
	// water mark (see batch.go).
	batch batchScratch
}

// NewSession returns a fresh session on the table.
func (t *Table) NewSession() *Session {
	id := t.sessionSeq.Add(1)
	s := &Session{
		t:    t,
		h:    t.dev.NewHandle(),
		rng:  rng.New(t.opts.Seed ^ (id * 0x9E3779B97F4A7C15)),
		ep:   t.registerEpochSlot(),
		rec:  t.recorderHandle(),
		fl:   t.flight.Handle("session"),
		heat: t.opts.Heat.Handle(t.opts.heatShard),
	}
	// Bind the session's device handle so traced ops carry their per-op NVM
	// deltas as span args.
	s.fl.BindNVM(s.h)
	return s
}

// Table returns the session's table.
func (s *Session) Table() *Table { return s.t }

// Close returns the session's epoch slot to the table's free list so the
// next NewSession reuses it instead of growing the registry. Without it a
// create-session-per-request server grows the registry without bound and
// every resize grace period scans every slot ever registered. Close is
// idempotent; using the session after Close panics. Pending metrics are
// flushed via SyncObs first so a closed session's traffic is not lost.
func (s *Session) Close() error {
	if s.ep == nil {
		return nil
	}
	s.SyncObs()
	s.t.releaseEpochSlot(s.ep)
	s.ep = nil
	return nil
}

// NVMStats returns the NVM traffic generated through this session.
func (s *Session) NVMStats() nvm.Stats { return s.h.Stats() }

// ResetNVMStats zeroes the session's NVM counters, and the SyncObs baseline
// with them so the bridge never underflows.
func (s *Session) ResetNVMStats() {
	s.h.ResetStats()
	s.nvmBase = nvm.Stats{}
}

// SyncObs publishes the session's NVM traffic accumulated since the last
// SyncObs into the metrics registry. The handle's stats are handle-local and
// unsynchronised, so the bridge is an explicit pull by the owning goroutine —
// call it at harness checkpoints or before reading Router.MetricsSnapshot.
// No-op when metrics are disabled.
func (s *Session) SyncObs() {
	if s.t.metrics == nil {
		return
	}
	cur := s.h.Stats()
	s.rec.AddNVM(cur.Sub(s.nvmBase))
	s.nvmBase = cur
}
