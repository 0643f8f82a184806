package bigkv

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/core"
	"hdnh/internal/flight"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/vlog"
)

// gcShard is one shard's online garbage collector. Shard i's log holds only
// shard i's keys (writes route by the index router's ShardForKey), so
// a pass relocates within a single (log, table-shard) pair and shards reclaim
// independently — including in parallel with each other. Passes within a
// shard are serialised by mu: the shard's background worker, writers that
// found the log full (reclaim) and explicit GCOnce calls all funnel through
// gcOnce.
type gcShard struct {
	st    *Store
	shard int
	log   *vlog.Log

	mu   sync.Mutex
	sess *core.RouterSession // scoped to this shard: relocation's index access and copies, guarded by mu
	rlog recordLog           // sess's RecordLog: copies may take the log's reserved last segment
	h    *nvm.Handle         // log reads and recycling, guarded by mu

	// nvmBase is the prefix of h's stats already published into the metrics
	// registry. h carries the GC's log reads and recycle zeroing (a copy is
	// an index write, and its traffic is sess's), which sess.SyncObs does
	// not cover —
	// without this baseline the background reclaim traffic would be
	// invisible in hdnh_nvm_*. Guarded by mu.
	nvmBase nvm.Stats
	// ackBase is the same kind of baseline for the log's own count of appends
	// that waited for an acknowledgment (every session's and the GC's: the log
	// cannot tell them apart, so the shard's collector publishes for all).
	ackBase int64

	kick chan struct{}
}

// maxStalledPasses turns a reclaim that no pass ends — a live count no
// retire will clear, which is corruption — from a hang into an error.
const maxStalledPasses = 1 << 16

// gcPollInterval backstops the kick channels so garbage created while the
// logs are far from full is still reclaimed eventually.
const gcPollInterval = 100 * time.Millisecond

// Shared worker lifecycle (one worker per shard, one stop signal).
type gcLifecycle struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

func (st *Store) startGC() {
	st.gcLife.stop = make(chan struct{})
	st.gcs = make([]*gcShard, len(st.logs))
	for i, log := range st.logs {
		g := &gcShard{
			st:    st,
			shard: i,
			log:   log,
			sess:  st.idx.NewShardSession(i),
			h:     st.dev.NewHandle(),
			kick:  make(chan struct{}, 1),
		}
		g.rlog = recordLog{log: log, gc: true}
		g.sess.SetRecordLog(i, &g.rlog)
		st.gcs[i] = g
		if !st.opts.DisableAutoGC {
			st.gcLife.wg.Add(1)
			go g.worker()
		}
	}
}

// stopGC halts the background workers. The per-shard GC state stays usable
// so explicit GCOnce calls keep working (tests quiesce this way); Close
// returns the GC sessions' epoch slots.
func (st *Store) stopGC() {
	if st.gcLife.closed.Swap(true) {
		return
	}
	close(st.gcLife.stop)
	st.gcLife.wg.Wait()
}

// maybeKickGC nudges a shard's worker when its free segments run low.
// Called after every log append; the send is non-blocking so the fast path
// never waits.
func (st *Store) maybeKickGC(shard int) {
	if st.opts.DisableAutoGC {
		return
	}
	g := st.gcs[shard]
	if !g.low() {
		return
	}
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// low reports whether the shard's free segments are down to the worker's
// trigger, vlog.GCTrigger.
func (g *gcShard) low() bool { return int64(g.log.FreeSegments()) <= vlog.GCTrigger(g.log.Segments()) }

func (g *gcShard) worker() {
	defer g.st.gcLife.wg.Done()
	ticker := time.NewTicker(gcPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.st.gcLife.stop:
			return
		case <-g.kick:
		case <-ticker.C:
			// Idle reclamation only chases real garbage; skip when the log
			// has plenty of room and nothing dead.
			if !g.low() && g.log.LiveWords() == g.log.UsedWords() {
				continue
			}
		}
		// Until the index's recovery sweep is over the liveness counters are
		// partial. A pass would wait for the sweep (gcOnce); the worker
		// leaves that to writers that need room and keeps Close prompt.
		if !g.st.idx.Swept() {
			continue
		}
		// Reclaim until the pressure is gone or a pass stops progressing
		// (residual in-flight liveness resolves by the next kick/tick).
		for g.low() {
			select {
			case <-g.st.gcLife.stop:
				return
			default:
			}
			if _, freed, err := g.gcOnce(); err != nil || !freed {
				break
			}
		}
	}
}

// GCOnce runs one garbage-collection pass per shard: each pass picks that
// shard's sealed segment with the lowest live fraction, relocates its live
// records, and recycles it. Returns whether any shard freed a segment. Safe
// to call concurrently with all store operations; per-shard passes are
// serialised.
func (st *Store) GCOnce() (bool, error) {
	var any bool
	for _, g := range st.gcs {
		_, freed, err := g.gcOnce()
		if err != nil {
			return any, err
		}
		any = any || freed
	}
	return any, nil
}

// reclaim is the one way a writer runs the collector: a logged write that
// met vlog.ErrLogFull (err) calls it holding no index lock, with the log's
// Recycles from before the write, and retries once it returns nil. It runs
// passes until a segment has been recycled since. The only other way out is
// the proof that the log is full — none recycled, and no sealed segment
// holding a dead word — which returns err, as auto GC off does at once.
// Passes yield, so the retires a stalled pass waits for land even at one P
// (INTERNALS §9 names every cause and why it resolves).
func (g *gcShard) reclaim(seen int64, err error) error {
	if g.st.opts.DisableAutoGC {
		return err
	}
	for stalls := 0; ; stalls++ {
		victim, _, gcErr := g.gcOnce()
		switch {
		case gcErr != nil:
			return gcErr
		case g.log.Recycles() != seen:
			return nil
		case victim < 0:
			return err
		case stalls == maxStalledPasses:
			return fmt.Errorf("bigkv: shard %d segment %d still live after %d collector passes: %w",
				g.shard, victim, stalls, vlog.ErrCorrupt)
		}
		runtime.Gosched()
	}
}

// gcOnce runs one pass on this shard. victim is the segment pickVictim
// named, -1 when no sealed segment holds a dead word, and freed whether the
// pass recycled it.
//
// A pass needs whole liveness counters, so it first waits for the index's
// recovery sweep, helping it, and fails with the shard's corruption if the
// sweep found one.
func (g *gcShard) gcOnce() (victim int64, freed bool, err error) {
	g.st.idx.WaitRecovered()
	if err := g.st.shardErr(g.shard); err != nil {
		return -1, false, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.syncGCObs()
	seg, fits := g.pickVictim()
	if !fits {
		return seg, false, nil
	}
	if err := g.relocate(seg); err != nil {
		return seg, false, err
	}
	recycleStart := time.Now()
	if err := g.log.Recycle(g.h, seg); err != nil {
		// Still live: a retire of a record we skipped or relocated has not
		// landed yet. Leave the segment for the next pass rather than spin.
		if errors.Is(err, vlog.ErrSegmentLive) {
			err = nil
		}
		return seg, false, err
	}
	g.st.fl.GCPhase(flight.GCRecycle, seg, time.Since(recycleStart), 1)
	g.st.rec.GCRecycle()
	return seg, true, nil
}

// syncGCObs publishes the GC's NVM traffic into the metrics registry — the
// index session's via its own bridge, the log handle's via the baseline
// delta — and the log's acknowledgment waits. Called with mu held, at the
// end of every pass and once more from Close.
func (g *gcShard) syncGCObs() {
	g.sess.SyncObs()
	cur := g.h.Stats()
	g.st.rec.AddNVM(cur.Sub(g.nvmBase))
	g.nvmBase = cur
	waits := g.log.AckWaits()
	g.st.rec.VLogAckWait(waits - g.ackBase)
	g.ackBase = waits
}

// pickVictim names the sealed segment with the lowest live fraction among
// those a pass can relocate now (fits), else among all with a dead word; -1
// when none has one. While a segment is free every victim fits; with none,
// its live words must fit what the active segment has left, the collector's
// alone (INTERNALS §9).
func (g *gcShard) pickVictim() (seg int64, fits bool) {
	room := int64(math.MaxInt64)
	if g.log.FreeSegments() == 0 {
		room = 0
		for s := int64(0); s < g.log.Segments(); s++ {
			if g.log.State(s) == vlog.SegActive {
				room = g.log.SegmentWords() - g.log.SegUsed(s)
			}
		}
	}
	seg = -1
	var best float64
	// State, SegLive and SegUsed are lock-free reads: a pass over every
	// segment never queues behind, or in front of, an append's reservation.
	for s := int64(0); s < g.log.Segments(); s++ {
		if g.log.State(s) != vlog.SegSealed {
			continue
		}
		live, used := g.log.SegLive(s), g.log.SegUsed(s)
		if live > 0 && live >= used {
			continue
		}
		var score float64
		if used > 0 {
			score = float64(live) / float64(used)
		}
		// A segment that fits beats one that does not; then the lower score.
		if ok := live <= room; seg < 0 || ok && !fits || ok == fits && score < best {
			seg, fits, best = s, ok, score
		}
	}
	return seg, fits
}

// relocate copies every still-referenced record out of seg and swings the
// index to the copies. It visits the records whose liveness bit is set —
// the live few of a victim, not every record the segment ever held — and
// asks the index about each, because a bit only says a record was referenced
// when the walk read it. Each copy is one conditional index write that
// carries the copy as its record (UpdateIfRecord): the expectation is
// checked under the slot lock before the copy is reserved, so a copy that
// would lose to a racing user write is never stored, and one that wins
// commits with its pointer through one barrier train — a crash inside it
// leaks at most the copy.
func (g *gcShard) relocate(seg int64) error {
	// One span per phase and pass: per-record spans would swamp the ring on
	// big segments. find is reading a live record and asking the index;
	// persist is the copy's write, which is also its rewrite.
	var findDur, persistDur time.Duration
	var visited, copiedWords, rewrites int64
	var err error
	g.log.VisitLive(seg, func(src int64) bool {
		visited++
		start := time.Now()
		key, value, rerr := g.log.Read(g.h, src)
		if rerr != nil {
			findDur += time.Since(start)
			return true // unreadable: nothing to copy, and the segment stays live
		}
		srcWords := vlog.RecordWords(len(value))
		expect := packPointer(src, srcWords)
		cur, ok := g.sess.Get(key)
		findDur += time.Since(start)
		if !ok || cur != expect {
			return true // dead: overwritten or deleted, its winner decrements
		}
		start = time.Now()
		uerr := g.sess.UpdateIfRecord(key, expect, value)
		persistDur += time.Since(start)
		switch {
		case uerr == nil:
			rewrites++
			copiedWords += srcWords
			g.log.AddLive(src, -srcWords)
			g.st.rec.GCRelocate(srcWords)
		case errors.Is(uerr, scheme.ErrConflict),
			errors.Is(uerr, scheme.ErrNotFound),
			errors.Is(uerr, scheme.ErrContended):
			// Lost to a racing user write: nothing was copied.
			g.st.rec.GCRaced()
		case errors.Is(uerr, vlog.ErrLogFull):
			return false // pickVictim's room rules it out; the pass frees nothing

		default:
			err = uerr
			return false
		}
		return true
	})
	g.st.fl.GCPhase(flight.GCCopy, seg, findDur, visited)
	g.st.fl.GCPhase(flight.GCPersist, seg, persistDur, copiedWords)
	g.st.fl.GCPhase(flight.GCRewrite, seg, 0, rewrites) // inside persist: one write
	g.st.rec.GCVisit(visited)
	return err
}
