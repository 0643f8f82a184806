package main

import (
	"time"

	"hdnh/internal/batchrun"
	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/vlog"
)

// core under bigkv, vlog and nvm have no interface seam to hang a span on,
// so the traced run measures them from outside: one client replays the
// workload's keys and stream against each layer's public functions, on a
// store of its own, and the mean time per call is that layer's number. One
// client and no timers, so the device counts of a replay repeat exactly.

const (
	replayKeys   = 100000 // keys and calls per replay
	growKeys     = 50000  // the unsized insert replay: five doublings
	loggedLen    = 128
	replayDevice = 12 << 20 // words
)

// replay holds what the replays share: the first replayKeys keys of the
// workload, and its client-0 stream folded onto them.
type replay struct {
	keys   []kv.Key
	raw    keySet
	absent []kv.Key
	stream []uint32
	L      map[string]float64
	res    *result
}

// runReplays measures every layer below the seams and adds the numbers to
// res.Layers.
func runReplays(sp *spec, res *result) error {
	n := sp.keyCount(res.Seconds)
	rp := &replay{raw: newKeySet(res.Seed, tagPresent, replayKeys), L: res.Layers, res: res}
	abs := newKeySet(res.Seed, tagAbsent, replayKeys)
	for i := 0; i < replayKeys; i++ {
		rp.keys = append(rp.keys, kv.MustKey(rp.raw.at(i)))
		rp.absent = append(rp.absent, kv.MustKey(abs.at(i)))
	}
	m := sp.mix
	m.records, m.absent = n, n
	z, err := m.newZipf()
	if err != nil {
		return err
	}
	rp.stream = genStream(res.Seed, 0, m, z)
	for _, step := range []func(*spec) error{rp.core, rp.coreGrow, rp.coreMulti, rp.vlog, rp.bigkv, rp.batchrun} {
		if err := step(sp); err != nil {
			return err
		}
	}
	rp.L["bigkv.self_get_ns"] = rp.L["bigkv.get_logged_ns"] - rp.L["core.get_hit_ns"] - rp.L["vlog.read_ns"]
	rp.L["bigkv.self_put_ns"] = rp.L["bigkv.put_logged_ns"] - rp.L["core.update_ns"] - rp.L["vlog.append_ns"]
	return nil
}

// idx is the key the stream's entry i falls on among the replay's keys.
func (rp *replay) idx(i int) int { return int(rp.stream[i%streamLen]&idxMask) % replayKeys }

// timed runs fn n times and returns the mean ns per call; what names the
// replay in a failure's message.
func (rp *replay) timed(what string, n int, fn func(i int) bool) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if !fn(i) {
			rp.res.Failed++
			rp.res.problem("replay %s: call %d failed", what, i)
		}
	}
	rp.res.Attempted += int64(n)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func value15(idx int, ver uint8) kv.Value {
	var v kv.Value
	fillValue(v[:], uint32(idx), ver)
	return v
}

func newDevice() (*nvm.Device, error) { return nvm.New(nvm.EmulateConfig(replayDevice)) }

func sizedTable(shards int) core.Options {
	o := core.DefaultOptions()
	o.Shards = shards
	o.InitBottomSegments = core.SizeBottomSegments(replayKeys, o.SegmentBuckets)
	return o
}

// core: a pre-sized router, 15-byte values.
func (rp *replay) core(sp *spec) error {
	dev, err := newDevice()
	if err != nil {
		return err
	}
	r, err := core.CreateRouter(dev, sizedTable(1))
	if err != nil {
		return err
	}
	defer r.Close()
	s := r.NewSession()
	defer s.Close()

	before := s.NVMStats()
	rp.L["core.insert_ns"] = rp.timed("core.insert_ns", replayKeys, func(i int) bool { return s.Insert(rp.keys[i], value15(i, 0)) == nil })
	insert := s.NVMStats().Sub(before)
	rp.L["core.get_hit_ns"] = rp.timed("core.get_hit_ns", replayKeys, func(i int) bool {
		k := rp.idx(i)
		v, ok := s.Get(rp.keys[k])
		return ok && v == value15(k, 0)
	})
	rp.L["core.get_miss_ns"] = rp.timed("core.get_miss_ns", replayKeys, func(i int) bool { _, ok := s.Get(rp.absent[i]); return !ok })
	before = s.NVMStats()
	rp.L["core.update_ns"] = rp.timed("core.update_ns", replayKeys, func(i int) bool { k := rp.idx(i); return s.Update(rp.keys[k], value15(k, 1)) == nil })
	update := s.NVMStats().Sub(before)
	rp.L["core.delete_ns"] = rp.timed("core.delete_ns", replayKeys, func(i int) bool { return s.Delete(rp.keys[i]) == nil })

	// The device cost of the workload's own kind of write.
	w := update
	if sp.records == 0 {
		w = insert
	}
	rp.L["nvm.flushed_lines_per_write"] = float64(w.Flushes) / replayKeys
	rp.L["nvm.fences_per_write"] = float64(w.Fences) / replayKeys
	return nil
}

// coreGrow: the same inserts into a table left at its default size; the gap
// to core.insert_ns is what resizing costs.
func (rp *replay) coreGrow(*spec) error {
	dev, err := newDevice()
	if err != nil {
		return err
	}
	r, err := core.CreateRouter(dev, core.DefaultOptions())
	if err != nil {
		return err
	}
	defer r.Close()
	s := r.NewSession()
	defer s.Close()
	rp.L["core.insert_grow_ns"] = rp.timed("core.insert_grow_ns", growKeys, func(i int) bool { return s.Insert(rp.keys[i], value15(i, 0)) == nil })
	return nil
}

// coreMulti: sixteen keys to a call on two shards, so the router's
// scatter and gather run.
func (rp *replay) coreMulti(*spec) error {
	dev, err := newDevice()
	if err != nil {
		return err
	}
	r, err := core.CreateRouter(dev, sizedTable(2))
	if err != nil {
		return err
	}
	defer r.Close()
	s := r.NewSession()
	defer s.Close()
	vals := make([]kv.Value, burstLen)
	found := make([]bool, burstLen)
	errs := make([]error, burstLen)
	calls := replayKeys / burstLen
	rp.L["core.multiput16_ns_per_key"] = rp.timed("core.multiput16_ns_per_key", calls, func(i int) bool {
		for j := range vals {
			vals[j] = value15(i*burstLen+j, 0)
		}
		return s.MultiPut(rp.keys[i*burstLen:(i+1)*burstLen], vals, errs) == 0
	}) / burstLen
	rp.L["core.multiget16_ns_per_key"] = rp.timed("core.multiget16_ns_per_key", calls, func(i int) bool {
		return s.MultiGet(rp.keys[i*burstLen:(i+1)*burstLen], vals, found) == burstLen
	}) / burstLen
	return nil
}

// vlog: a log of its own, 128-byte values.
func (rp *replay) vlog(*spec) error {
	dev, err := newDevice()
	if err != nil {
		return err
	}
	h := dev.NewHandle()
	const segWords = 1 << 14
	// Room for the single appends and the batched ones.
	segs := 2*replayKeys*vlog.RecordWords(loggedLen)/segWords + 8
	log, err := vlog.Create(dev, h, segWords, segs)
	if err != nil {
		return err
	}
	val := make([]byte, loggedLen)
	addrs := make([]int64, replayKeys)
	rp.L["vlog.append_ns"] = rp.timed("vlog.append_ns", replayKeys, func(i int) bool {
		fillValue(val, uint32(i), 0)
		addr, _, err := log.Append(h, rp.keys[i], val)
		addrs[i] = addr
		return err == nil
	})
	rp.L["vlog.words_appended_per_write"] = float64(log.AppendedWords()) / replayKeys
	rp.L["vlog.read_ns"] = rp.timed("vlog.read_ns", replayKeys, func(i int) bool {
		k := rp.idx(i)
		key, v, err := log.Read(h, addrs[k])
		return err == nil && key == rp.keys[k] && checkValue(v, uint32(k), loggedLen)
	})
	recs := make([]vlog.BatchRecord, burstLen)
	vals := make([]byte, burstLen*loggedLen)
	rp.L["vlog.appendbatch16_ns_per_record"] = rp.timed("vlog.appendbatch16_ns_per_record", replayKeys/burstLen, func(i int) bool {
		for j := range recs {
			v := vals[j*loggedLen : (j+1)*loggedLen]
			fillValue(v, uint32(i*burstLen+j), 1)
			recs[j] = vlog.BatchRecord{Key: rp.keys[i*burstLen+j], Value: v}
		}
		n, _, err := log.AppendBatch(h, recs)
		return err == nil && n == burstLen
	}) / burstLen
	return nil
}

// replayStore is a loaded bigkv store sized for the replays: inline values,
// and a log with room to rewrite every key twice at 128 bytes.
func (rp *replay) replayStore(shards int) (*bigkv.Store, *bigkv.Session, error) {
	dev, err := newDevice()
	if err != nil {
		return nil, nil, err
	}
	opts := bigkv.DefaultOptions()
	opts.Table = sizedTable(shards)
	opts.SegmentWords = 1 << 14
	opts.Segments = 3*replayKeys*vlog.RecordWords(loggedLen)/opts.SegmentWords + 8
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		return nil, nil, err
	}
	s := st.NewSession()
	val := make([]byte, 8)
	for i := 0; i < replayKeys; i++ {
		fillValue(val, uint32(i), 0)
		if err := s.Put(rp.raw.at(i), val); err != nil {
			s.Close()
			st.Close()
			return nil, nil, err
		}
	}
	return st, s, nil
}

// bigkv: one session; Puts are updates of loaded keys, so that bigkv minus
// core.update minus vlog.append is bigkv's own time.
func (rp *replay) bigkv(*spec) error {
	st, s, err := rp.replayStore(1)
	if err != nil {
		return err
	}
	defer st.Close()
	defer s.Close()
	for _, c := range []struct {
		put, get string
		n        int
	}{
		{"bigkv.put_inline_ns", "bigkv.get_inline_ns", 8},
		{"bigkv.put_logged_ns", "bigkv.get_logged_ns", loggedLen},
	} {
		val := make([]byte, c.n)
		rp.L[c.put] = rp.timed(c.put, replayKeys, func(i int) bool {
			k := rp.idx(i)
			fillValue(val, uint32(k), 1)
			return s.Put(rp.raw.at(k), val) == nil
		})
		if c.n == loggedLen {
			// Every key in the log before the reads, whatever the stream hit.
			for i := 0; i < replayKeys; i++ {
				fillValue(val, uint32(i), 1)
				if err := s.Put(rp.raw.at(i), val); err != nil {
					return err
				}
			}
		}
		rp.L[c.get] = rp.timed(c.get, replayKeys, func(i int) bool {
			k := rp.idx(i)
			v, ok, err := s.Get(rp.raw.at(k))
			return err == nil && ok && checkValue(v, uint32(k), c.n)
		})
	}
	return nil
}

// countingExecutor counts the calls batchrun makes into the session.
type countingExecutor struct {
	*bigkv.Session
	calls int
}

func (c *countingExecutor) MultiGet(keys [][]byte) ([][]byte, []bool, []error) {
	c.calls++
	return c.Session.MultiGet(keys)
}

func (c *countingExecutor) MultiPut(keys, values [][]byte) []error {
	c.calls++
	return c.Session.MultiPut(keys, values)
}

// batchrun: the workload's stream in bursts of sixteen through Execute,
// against the same keys through one MultiGet and one MultiPut per burst.
func (rp *replay) batchrun(sp *spec) error {
	st, s, err := rp.replayStore(max(1, sp.shards))
	if err != nil {
		return err
	}
	defer st.Close()
	defer s.Close()
	x := &countingExecutor{Session: s}
	ops := make([]batchrun.Op, burstLen)
	res := make([]batchrun.Result, burstLen)
	vals := make([]byte, burstLen*8)
	bursts := replayKeys / burstLen
	fill := func(i int) {
		for j := range ops {
			e := rp.stream[(i*burstLen+j)%streamLen]
			k := rp.idx(i*burstLen + j)
			if e&flagWrite != 0 {
				v := vals[j*8 : (j+1)*8]
				fillValue(v, uint32(k), 2)
				ops[j] = batchrun.Op{Kind: batchrun.Put, Key: rp.raw.at(k), Value: v}
			} else {
				ops[j] = batchrun.Op{Kind: batchrun.Get, Key: rp.raw.at(k)}
			}
		}
	}
	execute := rp.timed("batchrun.execute", bursts, func(i int) bool {
		fill(i)
		batchrun.Execute(x, ops, res, nil)
		for _, r := range res {
			if r.Err != nil {
				return false
			}
		}
		return true
	})
	gk, pk, pv := make([][]byte, 0, burstLen), make([][]byte, 0, burstLen), make([][]byte, 0, burstLen)
	direct := rp.timed("batchrun.direct", bursts, func(i int) bool {
		fill(i)
		gk, pk, pv = gk[:0], pk[:0], pv[:0]
		for _, op := range ops {
			if op.Kind == batchrun.Put {
				pk, pv = append(pk, op.Key), append(pv, op.Value)
			} else {
				gk = append(gk, op.Key)
			}
		}
		if len(gk) > 0 {
			s.MultiGet(gk)
		}
		if len(pk) > 0 {
			s.MultiPut(pk, pv)
		}
		return true
	})
	rp.L["batchrun.keys_per_backend_call"] = float64(bursts*burstLen) / float64(x.calls)
	rp.L["batchrun.execute_added_ns_per_key"] = (execute - direct) / burstLen
	return nil
}
