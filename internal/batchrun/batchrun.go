// Package batchrun drains an ordered stream of key-value operations through
// the store's batch entry points (MultiGet/MultiPut/MultiDelete) in as few
// calls as the stream's own dependencies allow, preserving per-operation
// results in submission order.
//
// Operations on different keys commute, so the stream is cut into
// conflict-free stretches: a stretch ends only before an operation whose key
// already occurs in it under a different kind. Within a stretch every Get
// goes out in one MultiGet, every Put in one MultiPut and every Delete in one
// MultiDelete, each in submission order (so repeated writes of one key still
// apply first to last), and results are written back by original position:
//
//	GET a, SET b, GET a      one stretch: MultiGet(a, a), MultiPut(b)
//	SET a, GET a             two stretches: the read must see the write
//	SET a v1, GET b, SET a v2   one stretch: MultiGet(b), MultiPut(a=v1, a=v2)
//
// The RESP listener's pipeline coalescing (internal/resp) is the caller: it
// receives arbitrary interleavings of gets, puts and deletes and wants the
// batch path's amortisation — up-front hashing, epoch-chunked NVT walks,
// grouped hot fills, one group commit per shard — for as much of the stream
// as possible.
package batchrun

import (
	"bytes"
	"hash/maphash"
	"sync"
)

// Kind is the operation kind of one Op.
type Kind uint8

const (
	Get Kind = iota
	Put
	Delete
	numKinds
)

// String returns the lowercase wire name of the kind.
func (k Kind) String() string {
	switch k {
	case Get:
		return "get"
	case Put:
		return "put"
	case Delete:
		return "delete"
	default:
		return "unknown"
	}
}

// Op is one operation in a stream. Value is used only by Put.
type Op struct {
	Kind  Kind
	Key   []byte
	Value []byte
}

// Result is one operation's outcome, in the same position as its Op.
// Value/Found are meaningful only for Get; Err carries the store verdict
// (scheme.ErrNotFound, scheme.ErrContended, scheme.ErrFull, ...) untouched,
// so callers map it onto their own wire taxonomy.
type Result struct {
	Value []byte
	Found bool
	Err   error
}

// Executor is the batch surface a store session exposes. *bigkv.Session
// satisfies it directly.
type Executor interface {
	// MultiGet resolves every key; vals[i]/found[i]/errs[i] line up with
	// keys[i], and errs[i] is non-nil only for per-key failures.
	MultiGet(keys [][]byte) (vals [][]byte, found []bool, errs []error)
	// MultiPut upserts every key in order, one verdict per key.
	MultiPut(keys, values [][]byte) []error
	// MultiDelete removes every key in order, one verdict per key
	// (ErrNotFound for absent keys).
	MultiDelete(keys [][]byte) []error
}

// RunVisitor observes each batch call Execute makes — the hook the RESP
// listener uses to record run-length metrics and per-run flight spans.
type RunVisitor interface {
	// RunBegin is called before a run of n operations of one kind goes to
	// the executor.
	RunBegin(kind Kind, n int)
	// RunEnd is called once the run's results are written; pos lists the
	// run's positions in ops and results, ascending, and is valid only
	// during the call.
	RunEnd(kind Kind, pos []int)
}

// Runner holds the scratch one Execute needs, so a caller that keeps one
// (one per connection, say) executes without allocating. A Runner is not
// safe for concurrent use.
type Runner struct {
	keys, vals [][]byte
	pos        []int
	// table is an open-addressed set over the key bytes of the current
	// stretch: an entry is an index into ops plus one. Entries below the
	// stretch's first operation are leftovers of an earlier stretch and read
	// as empty, so starting a stretch costs nothing.
	table []int32
}

var (
	keySeed = maphash.MakeSeed()
	runners = sync.Pool{New: func() any { return new(Runner) }}
)

// Execute runs ops through x with a pooled Runner; see Runner.Execute.
func Execute(x Executor, ops []Op, results []Result, visit RunVisitor) {
	r := runners.Get().(*Runner)
	r.Execute(x, ops, results, visit)
	runners.Put(r)
}

// Execute runs ops through x, one batch call per kind per conflict-free
// stretch, and writes results[i] for ops[i]. results must be at least
// len(ops) long. visit, when non-nil, brackets every batch call.
func (r *Runner) Execute(x Executor, ops []Op, results []Result, visit RunVisitor) {
	if len(ops) == 0 {
		return
	}
	var count [numKinds]int
	for i := range ops {
		count[ops[i].Kind]++
	}
	if count[ops[0].Kind] == len(ops) {
		// One kind throughout: nothing can conflict.
		r.run(x, ops, results, visit, 0, ops[0].Kind)
		return
	}

	size := 32
	for size < 2*len(ops) {
		size *= 2
	}
	if cap(r.table) < size {
		r.table = make([]int32, size)
	}
	table := r.table[:size]
	clear(table)
	mask := uint64(size - 1)

	for lo := 0; lo < len(ops); {
		count = [numKinds]int{}
		hi := lo
	stretch:
		for ; hi < len(ops); hi++ {
			op := &ops[hi]
			slot := maphash.Bytes(keySeed, op.Key) & mask
			for {
				e := int(table[slot]) - 1
				if e < lo {
					table[slot] = int32(hi + 1)
					break
				}
				if bytes.Equal(ops[e].Key, op.Key) {
					if ops[e].Kind != op.Kind {
						break stretch
					}
					break
				}
				slot = (slot + 1) & mask
			}
			count[op.Kind]++
		}
		for kind, n := range count {
			if n > 0 {
				r.run(x, ops[:hi], results, visit, lo, Kind(kind))
			}
		}
		lo = hi
	}
}

// run hands the operations of one kind in ops[lo:] to the executor as one
// batch call and scatters its results back to their positions.
func (r *Runner) run(x Executor, ops []Op, results []Result, visit RunVisitor, lo int, kind Kind) {
	keys, vals, pos := r.keys[:0], r.vals[:0], r.pos[:0]
	for i := lo; i < len(ops); i++ {
		if ops[i].Kind != kind {
			continue
		}
		keys = append(keys, ops[i].Key)
		pos = append(pos, i)
		if kind == Put {
			vals = append(vals, ops[i].Value)
		}
	}
	r.keys, r.vals, r.pos = keys, vals, pos
	if visit != nil {
		visit.RunBegin(kind, len(keys))
	}
	switch kind {
	case Get:
		got, found, errs := x.MultiGet(keys)
		for j, p := range pos {
			results[p] = Result{Value: got[j], Found: found[j], Err: errs[j]}
		}
	case Put:
		for j, err := range x.MultiPut(keys, vals) {
			results[pos[j]] = Result{Err: err}
		}
	case Delete:
		for j, err := range x.MultiDelete(keys) {
			results[pos[j]] = Result{Err: err}
		}
	}
	if visit != nil {
		visit.RunEnd(kind, pos)
	}
}
