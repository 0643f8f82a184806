package harness

import (
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"
)

// ReplayTrace executes a recorded operation stream against an
// already-loaded store. The stream is split into contiguous chunks, one per
// thread, so each worker preserves its chunk's order (the same partitioning
// a multi-worker capture would have produced). Misses count repeated
// deletes/inserts, as in Run.
func ReplayTrace(st scheme.Store, ops []ycsb.Op, threads int, recordLatency bool) (*Result, error) {
	if threads <= 0 {
		threads = 1
	}
	if threads > len(ops) && len(ops) > 0 {
		threads = len(ops)
	}
	res := &Result{Scheme: st.Name(), Ops: int64(len(ops)), Threads: threads}
	if len(ops) == 0 {
		return res, nil
	}
	chunk := (len(ops) + threads - 1) / threads
	runOps(st, res, 0, recordLatency, func(ti int) (func() ycsb.Op, int64) {
		part := ops[min(ti*chunk, len(ops)):min((ti+1)*chunk, len(ops))]
		i := 0
		return func() ycsb.Op { i++; return part[i-1] }, int64(len(part))
	})
	return res, nil
}
