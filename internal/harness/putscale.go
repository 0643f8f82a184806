package harness

import (
	"fmt"
	"time"

	"hdnh/internal/bigkv"
)

// FigPutScale measures what the group-commit write path buys (extension; no
// paper counterpart): upsert throughput over a preloaded keyspace, swept
// over MultiPut batch sizes at 1 and 4 shards of a bigkv store. The batch=1
// row is the looped single-key Put baseline: each op appends its value-log
// record behind its own flush+fence pair and commits its index entry behind
// its own barriers. Every other row drives the same key stream through one MultiPut call
// per batch, which appends each shard's records as contiguous runs behind
// one persist barrier per run and commits the index entries sorted by
// bucket, one barrier per phase for the whole group.
// At 4 shards the router additionally splits each batch across shards in
// parallel goroutines.
//
// Expected shape on the emulate device: throughput rises steeply with batch
// size as the per-record barriers amortise (the PR's acceptance floor is 2x
// at batch >= 64), then flattens once the per-batch fixed costs are gone.
// The shards=4 column adds on top only when the host has real cores for the
// fan-out to land on.
func FigPutScale(sc Scale) (*Experiment, error) {
	// The sweep is barrier-bound, not capacity-bound: a modest keyspace and
	// op budget keep each of the ten (shards, batch) points to seconds on
	// the emulate device without changing the amortisation curve.
	records := sc.Records
	if records > 20_000 {
		records = 20_000
	}
	ops := sc.Ops
	if ops > 50_000 {
		ops = 50_000
	}

	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("pt%012d", i))
	}
	// 64 bytes: past the 13-byte inline cutoff, so every upsert goes through
	// the value log — the layer the grouped path batches.
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte('a' + i%26)
	}

	shardCounts := []int{1, 4}
	batches := []int{1, 4, 16, 64, 256}
	rates := make(map[int]map[int]float64, len(shardCounts))

	// Every (shards, batch) point gets a fresh store: sharing one log across
	// points lets the early rows run against a young, GC-quiet log and the
	// late rows against a full one, which bends the curve by measurement
	// order instead of batch size. The per-point log is sized so online GC
	// stays out of the measured window entirely.
	for _, shards := range shardCounts {
		rates[shards] = make(map[int]float64, len(batches))
		for _, batch := range batches {
			rate, err := measurePutPoint(sc, keys, val, int64(records), ops, shards, batch)
			if err != nil {
				return nil, fmt.Errorf("putscale shards=%d batch=%d: %w", shards, batch, err)
			}
			rates[shards][batch] = rate
		}
	}

	exp := &Experiment{
		ID:      "putscale",
		Title:   "Upsert throughput vs MultiPut batch size (64-byte logged values)",
		XLabel:  "batch size",
		Columns: []string{"shards=1", "s1 speedup", "shards=4", "s4 speedup"},
		Notes: []string{
			"batch=1 is the looped single-key Put baseline; speedup is over that row at the same shard count",
			fmt.Sprintf("%d preloaded records, %d upserts per point, one caller session", records, ops),
			"note: this host exposes GOMAXPROCS=" + fmt.Sprint(maxProcs()) + "; the shards=4 fan-out needs real cores",
		},
	}
	for _, batch := range batches {
		s1, s4 := rates[1][batch], rates[4][batch]
		exp.addRow(fmt.Sprintf("%d", batch),
			mops("shards=1", s1),
			Cell{Label: "s1 speedup", Value: s1 / rates[1][1]},
			mops("shards=4", s4),
			Cell{Label: "s4 speedup", Value: s4 / rates[4][1]})
	}
	return exp, nil
}

// measurePutPoint runs one (shards, batch) cell on its own fresh store:
// preload the full keyspace, then time the upsert stream. The preload runs
// through chunked MultiPut — not the path under test, just the fastest way
// to an identical starting state for every cell.
func measurePutPoint(sc Scale, keys [][]byte, val []byte, records, ops int64, shards, batch int) (float64, error) {
	st, err := openBigKV(sc, records, func(o *bigkv.Options) {
		o.Table.Shards = shards
		o.SegmentWords = 1 << 14
		o.Segments = 128 // 16 MB of log across shards: churn room for the upsert stream
	})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	s := st.NewSession()
	defer s.Close()
	vals := make([][]byte, 256)
	for i := range vals {
		vals[i] = val
	}
	for lo := 0; lo < len(keys); lo += len(vals) {
		hi := lo + len(vals)
		if hi > len(keys) {
			hi = len(keys)
		}
		for _, err := range s.MultiPut(keys[lo:hi], vals[:hi-lo]) {
			if err != nil {
				return 0, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return measurePuts(s, keys, val, ops, batch)
}

// measurePuts drives `ops` upserts over the preloaded keyspace through one
// session: per-key Put at batch 1, one MultiPut per run otherwise. The key
// stream is identical across batch sizes, so the rows differ only in how the
// writes are grouped.
func measurePuts(s *bigkv.Session, keys [][]byte, val []byte, ops int64, batch int) (float64, error) {
	records := int64(len(keys))
	kb := make([][]byte, batch)
	vb := make([][]byte, batch)
	for i := range vb {
		vb[i] = val
	}
	var idx int64
	start := time.Now()
	for done := int64(0); done < ops; {
		if batch == 1 {
			if err := s.Put(keys[idx%records], val); err != nil {
				return 0, err
			}
			idx++
			done++
			continue
		}
		n := int64(batch)
		if ops-done < n {
			n = ops - done
		}
		for j := int64(0); j < n; j++ {
			kb[j] = keys[idx%records]
			idx++
		}
		for _, err := range s.MultiPut(kb[:n], vb[:n]) {
			if err != nil {
				return 0, err
			}
		}
		done += n
	}
	return float64(ops) / time.Since(start).Seconds() / 1e6, nil
}
