// Package heat attributes load to keys: a sampled Space-Saving top-K sketch
// per shard that answers "which keys are hot, and on which shard" without
// touching the unsampled fast path.
//
// The wiring mirrors internal/obs and internal/flight:
//
//   - Monitor is the process-wide owner: one Shard sketch per router shard,
//     snapshotted by /debug/heat.
//   - Handle is the per-session hook the core op paths call. When heat is
//     disabled the session holds a nil *Handle and Touch returns at once (see
//     docs/OBSERVABILITY.md, "Disabled observers"); when enabled its
//     unsampled path is one counter increment and a modulo — no locks, no
//     allocations, no shared-cache-line traffic.
//
// Only 1-in-SampleEvery touches reach the sketch, so the per-shard mutex and
// the O(TopK) min-scan eviction are paid at 1/64th of op rate by default.
// Counts reported by Snapshot are scaled back up by SampleEvery, making them
// estimates of true op counts; each entry carries the standard Space-Saving
// overestimate bound (the displaced minimum at takeover time, scaled the
// same way).
package heat

import (
	"sort"
	"sync"

	"hdnh/internal/kv"
	"hdnh/internal/obs"
)

// Defaults. SampleEvery matches obs.Config.SampleEvery's default so the two
// sampling knobs behave consistently.
const (
	DefaultTopK        = 32
	DefaultSampleEvery = 64
)

// Config sizes the sketch.
type Config struct {
	// TopK is the number of tracked keys per shard. 0 means DefaultTopK.
	TopK int
	// SampleEvery sends every Nth touch per session to the sketch.
	// 0 means DefaultSampleEvery; 1 records every op.
	SampleEvery int
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	return c
}

// Monitor owns the per-shard sketches. Safe for concurrent use.
type Monitor struct {
	cfg Config

	mu     sync.RWMutex
	shards []*Shard
}

// NewMonitor builds a Monitor; shard sketches are created on first use.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults()}
}

// Config reports the effective (defaulted) configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Shard returns the sketch for shard i, creating it if needed. A nil Monitor
// returns nil, and so does its Handle.
func (m *Monitor) Shard(i int) *Shard {
	if m == nil || i < 0 {
		return nil
	}
	m.mu.RLock()
	if i < len(m.shards) {
		sh := m.shards[i]
		m.mu.RUnlock()
		return sh
	}
	m.mu.RUnlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.shards) <= i {
		m.shards = append(m.shards, newShard(len(m.shards), m.cfg))
	}
	return m.shards[i]
}

// Handle returns a per-session handle feeding shard i, or nil for a nil
// Monitor. Each session must get its own Handle: the sampling counter is
// unsynchronized by design.
func (m *Monitor) Handle(shard int) *Handle {
	sh := m.Shard(shard)
	if sh == nil {
		return nil
	}
	return &Handle{sh: sh, every: uint32(m.cfg.SampleEvery)}
}

// Handle is the per-session heat hook. Not safe for concurrent use — one per
// session, like obs.Metrics handles. A nil *Handle is the disabled hook.
type Handle struct {
	sh    *Shard
	n     uint32
	every uint32
}

// Touch counts the op and, on every Nth call, records it in the shard
// sketch with weight N. It allocates nothing on the unsampled path.
func (h *Handle) Touch(op obs.Op, k kv.Key) {
	if h == nil {
		return
	}
	h.n++
	if h.n%h.every != 0 {
		return
	}
	h.sh.touch(op, k)
}

// Shard is one shard's sketch: a Space-Saving stream summary of TopK keys
// plus sampled per-op counters, all under one mutex that only sampled
// touches take.
type Shard struct {
	id     int
	weight uint64 // count each sampled touch represents

	mu      sync.Mutex
	entries []entry
	index   map[kv.Key]int // key -> entries slot
	ops     [obs.NumOps]uint64
}

type entry struct {
	key kv.Key
	cnt uint64 // estimated count (sampled, unscaled)
	err uint64 // overestimate bound (unscaled)
}

func newShard(id int, cfg Config) *Shard {
	return &Shard{
		id:      id,
		weight:  uint64(cfg.SampleEvery),
		entries: make([]entry, 0, cfg.TopK),
		index:   make(map[kv.Key]int, cfg.TopK),
	}
}

// touch is the sampled-path sketch update: increment if tracked, insert if
// there is room, otherwise take over the minimum-count entry (classic
// Space-Saving). O(TopK) min scan — TopK is small and this runs at
// 1/SampleEvery of op rate.
func (s *Shard) touch(op obs.Op, k kv.Key) {
	s.mu.Lock()
	if op >= 0 && int(op) < len(s.ops) {
		s.ops[op]++
	}
	if i, ok := s.index[k]; ok {
		s.entries[i].cnt++
		s.mu.Unlock()
		return
	}
	if len(s.entries) < cap(s.entries) {
		s.index[k] = len(s.entries)
		s.entries = append(s.entries, entry{key: k, cnt: 1})
		s.mu.Unlock()
		return
	}
	min := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].cnt < s.entries[min].cnt {
			min = i
		}
	}
	e := &s.entries[min]
	delete(s.index, e.key)
	s.index[k] = min
	e.err = e.cnt
	e.key = k
	e.cnt++
	s.mu.Unlock()
}

// KeyCount is one reported hot key. Count and Err are scaled by SampleEvery,
// so Count estimates the true op count and the true count is guaranteed to
// be ≤ Count and ≥ Count-Err up to sampling error.
type KeyCount struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// ShardSnapshot is one shard's view: estimated per-op counts plus the top-K
// keys in descending estimated count.
type ShardSnapshot struct {
	Shard int               `json:"shard"`
	Ops   map[string]uint64 `json:"ops"`
	Total uint64            `json:"total"`
	Top   []KeyCount        `json:"top"`
}

// Snapshot is the full /debug/heat payload.
type Snapshot struct {
	SampleEvery int             `json:"sample_every"`
	TopK        int             `json:"top_k"`
	Shards      []ShardSnapshot `json:"shards"`
}

// Snapshot copies out every shard's state. A nil Monitor reports an empty
// snapshot so callers need no enabled/disabled branch.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.RLock()
	shards := make([]*Shard, len(m.shards))
	copy(shards, m.shards)
	m.mu.RUnlock()

	out := Snapshot{
		SampleEvery: m.cfg.SampleEvery,
		TopK:        m.cfg.TopK,
		Shards:      make([]ShardSnapshot, 0, len(shards)),
	}
	for _, sh := range shards {
		out.Shards = append(out.Shards, sh.snapshot())
	}
	return out
}

func (s *Shard) snapshot() ShardSnapshot {
	ss := ShardSnapshot{Shard: s.id, Ops: make(map[string]uint64, obs.NumOps)}
	s.mu.Lock()
	top := make([]KeyCount, 0, len(s.entries))
	for _, e := range s.entries {
		top = append(top, KeyCount{
			Key:   e.key.String(),
			Count: e.cnt * s.weight,
			Err:   e.err * s.weight,
		})
	}
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if n := s.ops[op]; n > 0 {
			ss.Ops[op.String()] = n * s.weight
			ss.Total += n * s.weight
		}
	}
	s.mu.Unlock()
	sort.Slice(top, func(a, b int) bool { return top[a].Count > top[b].Count })
	ss.Top = top
	return ss
}
