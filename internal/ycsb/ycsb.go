// Package ycsb generates the microbenchmark workloads the paper evaluates
// with: YCSB-style operation mixes over a fixed-size key space, with uniform,
// zipfian (tunable skew s, the paper sweeps 0.5–1.22), scrambled-zipfian and
// latest request distributions, plus negative-search streams for the paper's
// "search for non-existent keys" experiments.
//
// A Generator is immutable and shared; each worker goroutine derives a
// Worker with an independent deterministic RNG stream, so multi-threaded
// runs are reproducible and allocation-free on the request path.
package ycsb

import (
	"fmt"

	"hdnh/internal/hashfn"
	"hdnh/internal/kv"
	"hdnh/internal/rng"
)

// OpKind identifies a workload operation.
type OpKind int

const (
	// OpInsert adds a key that is not yet in the table.
	OpInsert OpKind = iota
	// OpRead looks up a key that exists (positive search).
	OpRead
	// OpReadNegative looks up a key guaranteed not to exist.
	OpReadNegative
	// OpUpdate rewrites the value of an existing key.
	OpUpdate
	// OpDelete removes an existing key.
	OpDelete
	// OpReadModifyWrite reads a key then writes back a derived value
	// (YCSB-F's composite operation).
	OpReadModifyWrite
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRead:
		return "read"
	case OpReadNegative:
		return "read-"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpReadModifyWrite:
		return "rmw"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one generated request.
type Op struct {
	Kind OpKind
	// Index identifies the key: for OpInsert it indexes the insert key
	// space, for OpReadNegative the negative key space, otherwise the
	// preloaded record space.
	Index int64
}

// Distribution selects how read/update keys are drawn.
type Distribution int

const (
	// Uniform draws keys uniformly from the record space.
	Uniform Distribution = iota
	// Zipfian draws ranks zipfian-skewed; rank 0 is key 0. Adjacent hot
	// keys cluster, as in classic YCSB before scrambling.
	Zipfian
	// ScrambledZipfian spreads zipfian ranks over the key space with a
	// hash, the YCSB default: hot keys are scattered, not adjacent.
	ScrambledZipfian
	// Latest favours recently inserted keys (highest indexes).
	Latest
)

// String returns the distribution name.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case ScrambledZipfian:
		return "scrambled-zipfian"
	case Latest:
		return "latest"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Set parses a distribution name exactly as String prints it, so a
// Distribution backs a command-line flag through flag.Var.
func (d *Distribution) Set(s string) error {
	for c := Uniform; c <= Latest; c++ {
		if c.String() == s {
			*d = c
			return nil
		}
	}
	return fmt.Errorf("unknown distribution %q (want uniform, zipfian, scrambled-zipfian or latest)", s)
}

// Mix gives the proportion of each operation kind; proportions must sum to 1
// (within a small tolerance).
type Mix struct {
	Read            float64
	ReadNegative    float64
	Update          float64
	Insert          float64
	Delete          float64
	ReadModifyWrite float64
}

// The paper's workloads. WorkloadA is YCSB-A (50% read, 50% update, the
// "high contention case" of Figure 15); the pure mixes drive Figures 13–14.
var (
	WorkloadA      = Mix{Read: 0.5, Update: 0.5}
	WorkloadB      = Mix{Read: 0.95, Update: 0.05}
	WorkloadC      = Mix{Read: 1}
	WorkloadD      = Mix{Read: 0.95, Insert: 0.05} // pair with Latest
	WorkloadF      = Mix{Read: 0.5, ReadModifyWrite: 0.5}
	InsertOnly     = Mix{Insert: 1}
	ReadOnly       = Mix{Read: 1}
	NegativeRead   = Mix{ReadNegative: 1}
	DeleteOnly     = Mix{Delete: 1}
	InsertHalfRead = Mix{Insert: 0.5, Read: 0.5}
)

func (m Mix) total() float64 {
	return m.Read + m.ReadNegative + m.Update + m.Insert + m.Delete + m.ReadModifyWrite
}

// Validate reports whether the proportions are sane.
func (m Mix) Validate() error {
	for _, p := range []float64{m.Read, m.ReadNegative, m.Update, m.Insert, m.Delete, m.ReadModifyWrite} {
		if p < 0 {
			return fmt.Errorf("ycsb: negative proportion in mix %+v", m)
		}
	}
	if t := m.total(); t < 0.999 || t > 1.001 {
		return fmt.Errorf("ycsb: mix proportions sum to %v, want 1", t)
	}
	return nil
}

// Config describes a workload.
type Config struct {
	// RecordCount is the number of preloaded keys (indexes [0, RecordCount)).
	RecordCount int64
	// Mix is the operation blend.
	Mix Mix
	// Distribution selects the request key distribution.
	Distribution Distribution
	// Theta is the zipfian skew (the paper's s); ignored for Uniform.
	Theta float64
	// Seed makes the whole workload reproducible.
	Seed uint64
}

// Generator is the immutable, shareable workload description.
type Generator struct {
	cfg  Config
	zipf *Zipf
}

// New builds a Generator.
func New(cfg Config) (*Generator, error) {
	if cfg.RecordCount <= 0 {
		return nil, fmt.Errorf("ycsb: record count %d", cfg.RecordCount)
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg}
	switch cfg.Distribution {
	case Zipfian, ScrambledZipfian, Latest:
		z, err := NewZipf(cfg.RecordCount, cfg.Theta)
		if err != nil {
			return nil, err
		}
		g.zipf = z
	case Uniform:
	default:
		return nil, fmt.Errorf("ycsb: unknown distribution %d", int(cfg.Distribution))
	}
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Worker derives the per-goroutine sampler number id. Same (seed, id) ⇒ same
// op stream.
func (g *Generator) Worker(id int) *Worker {
	sm := rng.NewSplitMix64(g.cfg.Seed)
	base := sm.Next()
	return &Worker{
		gen:          g,
		r:            rng.New(base ^ hashfn.Mix64(uint64(id)+0x9e37)),
		insertCursor: int64(id), // interleaved insert key spaces per worker
		insertStride: 0,         // fixed up by SetWorkers
		workers:      1,
	}
}

// Worker emits a deterministic op stream for one goroutine.
type Worker struct {
	gen          *Generator
	r            *rng.Xorshift128
	insertCursor int64
	insertStride int64
	workers      int64
	negCursor    int64
}

// SetWorkers tells the worker how many workers share the insert key space so
// their insert indexes interleave without coordination (worker i inserts
// i, i+w, i+2w, ...).
func (w *Worker) SetWorkers(n int) {
	if n <= 0 {
		n = 1
	}
	w.workers = int64(n)
}

// Next produces the next operation.
func (w *Worker) Next() Op {
	m := &w.gen.cfg.Mix
	u := w.r.Float64()
	switch {
	case u < m.Read:
		return Op{Kind: OpRead, Index: w.requestKey()}
	case u < m.Read+m.ReadNegative:
		idx := w.negCursor
		w.negCursor++
		return Op{Kind: OpReadNegative, Index: idx}
	case u < m.Read+m.ReadNegative+m.Update:
		return Op{Kind: OpUpdate, Index: w.requestKey()}
	case u < m.Read+m.ReadNegative+m.Update+m.Insert:
		idx := w.insertCursor
		w.insertCursor += w.workers
		return Op{Kind: OpInsert, Index: idx}
	case u < m.Read+m.ReadNegative+m.Update+m.Insert+m.Delete:
		return Op{Kind: OpDelete, Index: w.requestKey()}
	default:
		return Op{Kind: OpReadModifyWrite, Index: w.requestKey()}
	}
}

// requestKey draws a key index from the configured distribution.
func (w *Worker) requestKey() int64 {
	n := w.gen.cfg.RecordCount
	switch w.gen.cfg.Distribution {
	case Uniform:
		return int64(w.r.Uint64n(uint64(n)))
	case Zipfian:
		return w.gen.zipf.Sample(w.r)
	case ScrambledZipfian:
		rank := w.gen.zipf.Sample(w.r)
		return int64(hashfn.Mix64(uint64(rank)) % uint64(n))
	case Latest:
		rank := w.gen.zipf.Sample(w.r)
		return n - 1 - rank
	default:
		panic("ycsb: unreachable distribution")
	}
}

// Key spaces. Record keys, insert keys and negative keys live in disjoint
// 16-byte namespaces distinguished by their first byte, so a negative search
// can never accidentally hit.
const (
	prefixRecord = 'r'
	prefixInsert = 'i'
	prefixNeg    = 'n'
)

func materialize(prefix byte, index int64) kv.Key {
	// Layout: prefix byte, 8 raw index bytes (uniqueness is structural, not
	// probabilistic), 7 mixed bytes so keys do not share long common
	// suffixes.
	var k kv.Key
	k[0] = prefix
	u := uint64(index)
	for i := 0; i < 8; i++ {
		k[1+i] = byte(u >> (8 * i))
	}
	m := hashfn.Mix64(u ^ uint64(prefix)<<56)
	for i := 0; i < 7; i++ {
		k[9+i] = byte(m >> (8 * i))
	}
	return k
}

// RecordKey returns the key for preloaded record i.
func RecordKey(i int64) kv.Key { return materialize(prefixRecord, i) }

// InsertKey returns the i-th inserted key (disjoint from records).
func InsertKey(i int64) kv.Key { return materialize(prefixInsert, i) }

// NegativeKey returns a key guaranteed absent from records and inserts.
func NegativeKey(i int64) kv.Key { return materialize(prefixNeg, i) }

// ValueFor returns the deterministic 15-byte value for any key index, so
// correctness checks can recompute expected values.
func ValueFor(i int64) kv.Value {
	var v kv.Value
	x := hashfn.Mix64(uint64(i) ^ 0xbeef)
	const hexdigits = "0123456789abcdef"
	v[0] = 'v'
	for j := 0; j < 14; j++ {
		v[1+j] = hexdigits[x&0xf]
		x >>= 4
	}
	return v
}
