package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultHistoryPoints sizes the ring for ~10 minutes at 1s granularity.
const DefaultHistoryPoints = 600

// HistoryPoint is one interval's digest: counter deltas over the interval
// plus point-in-time gauges at its end. Small on purpose — the ring holds
// hundreds of these and /debug/history serialises them all.
type HistoryPoint struct {
	At         time.Time `json:"at"`
	IntervalMS int64     `json:"interval_ms"`

	// Op deltas over the interval.
	Gets    uint64 `json:"gets"`
	Inserts uint64 `json:"inserts"`
	Updates uint64 `json:"updates"`
	Deletes uint64 `json:"deletes"`
	// Backpressure outcomes (contended + full) across all ops.
	Errors uint64 `json:"errors"`
	// HotHits is the interval's hot-table Get hits.
	HotHits uint64 `json:"hot_hits"`

	// Device traffic deltas.
	NVMReadWords  uint64 `json:"nvm_read_words"`
	NVMWriteWords uint64 `json:"nvm_write_words"`

	// Log and resize activity deltas.
	VLogAppends   uint64 `json:"vlog_appends"`
	GCRelocations uint64 `json:"gc_relocations"`
	GCRecycles    uint64 `json:"gc_recycles"`
	Expansions    uint64 `json:"expansions"`

	// Gauges at interval end.
	Items            int64   `json:"items"`
	LoadFactor       float64 `json:"load_factor"`
	VLogFreeSegments int64   `json:"vlog_free_segments"`
	EpochSlotsLive   int64   `json:"epoch_slots_live"`
	RESPInFlight     int64   `json:"resp_in_flight"`

	// Shards carries the per-shard view when the store is sharded.
	Shards []ShardHistoryPoint `json:"shards,omitempty"`
}

// ShardHistoryPoint is one shard's slice of an interval. WearWords is the
// shard's NVM-wear proxy: the growth of its value-log used words over the
// interval, clamped at zero (segment recycling shrinks the gauge; only
// growth represents fresh media writes). It undercounts in-place index
// writes — NVM write counters are process-wide, not per-shard — but tracks
// exactly the append traffic that wears the log region.
type ShardHistoryPoint struct {
	Shard      int64   `json:"shard"`
	Items      int64   `json:"items"`
	LoadFactor float64 `json:"load_factor"`
	Resizing   int64   `json:"resizing"`
	WearWords  int64   `json:"wear_words"`
}

// History is a bounded ring of HistoryPoints built from periodic snapshots.
// Record each collection interval (serve runs a ~1s ticker); readers get a
// chronological copy. Safe for concurrent use.
type History struct {
	mu       sync.Mutex
	pts      []HistoryPoint
	next     int
	n        int
	havePrev bool
	prev     Snapshot
	prevAt   time.Time
	prevUsed map[int64]int64 // shard -> VLogUsedWords at previous record
}

// NewHistory builds a ring holding capacity points (DefaultHistoryPoints
// when <= 0).
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultHistoryPoints
	}
	return &History{pts: make([]HistoryPoint, capacity), prevUsed: make(map[int64]int64)}
}

// Record folds a snapshot into the ring. The first call only seeds the
// baseline — deltas need two observations — so the ring gains its first
// point on the second call.
func (h *History) Record(s Snapshot, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.havePrev {
		h.seed(s, now)
		return
	}
	d := s.Sub(h.prev)
	pt := HistoryPoint{
		At:               now,
		IntervalMS:       now.Sub(h.prevAt).Milliseconds(),
		Gets:             d.OpTotal(OpGet),
		Inserts:          d.OpTotal(OpInsert),
		Updates:          d.OpTotal(OpUpdate),
		Deletes:          d.OpTotal(OpDelete),
		HotHits:          d.Ops[OpGet][OutHotHit],
		NVMReadWords:     d.NVM.ReadWords,
		NVMWriteWords:    d.NVM.WriteWords,
		VLogAppends:      d.VLogAppends,
		GCRelocations:    d.GCRelocations,
		GCRecycles:       d.GCRecycles,
		Expansions:       d.Expansions,
		Items:            s.Gauges.Items,
		LoadFactor:       s.Gauges.LoadFactor,
		VLogFreeSegments: s.Gauges.VLogFreeSegments,
		EpochSlotsLive:   s.Gauges.EpochSlotsLive,
	}
	pt.Errors, _ = d.Backpressure()
	if s.RESP != nil {
		pt.RESPInFlight = s.RESP.InFlight
	}
	if len(s.Gauges.PerShard) > 0 {
		pt.Shards = make([]ShardHistoryPoint, 0, len(s.Gauges.PerShard))
		for _, sg := range s.Gauges.PerShard {
			wear := sg.VLogUsedWords - h.prevUsed[sg.Shard]
			if wear < 0 {
				wear = 0
			}
			pt.Shards = append(pt.Shards, ShardHistoryPoint{
				Shard:      sg.Shard,
				Items:      sg.Items,
				LoadFactor: sg.LoadFactor,
				Resizing:   sg.Resizing,
				WearWords:  wear,
			})
		}
	}
	h.pts[h.next] = pt
	h.next = (h.next + 1) % len(h.pts)
	if h.n < len(h.pts) {
		h.n++
	}
	h.seed(s, now)
}

// seed stores the delta baseline; caller holds h.mu.
func (h *History) seed(s Snapshot, now time.Time) {
	h.prev, h.prevAt, h.havePrev = s, now, true
	for k := range h.prevUsed {
		delete(h.prevUsed, k)
	}
	for _, sg := range s.Gauges.PerShard {
		h.prevUsed[sg.Shard] = sg.VLogUsedWords
	}
}

// Points returns the recorded points, oldest first.
func (h *History) Points() []HistoryPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistoryPoint, 0, h.n)
	start := h.next - h.n
	if start < 0 {
		start += len(h.pts)
	}
	for i := 0; i < h.n; i++ {
		out = append(out, h.pts[(start+i)%len(h.pts)])
	}
	return out
}

// WriteJSON renders the ring for /debug/history.
func (h *History) WriteJSON(w io.Writer) error {
	h.mu.Lock()
	capacity := len(h.pts)
	h.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Capacity int            `json:"capacity"`
		Points   []HistoryPoint `json:"points"`
	}{capacity, h.Points()})
}
