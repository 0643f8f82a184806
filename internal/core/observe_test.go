package core

import (
	"errors"
	"testing"

	"hdnh/internal/flight"
	"hdnh/internal/heat"
	"hdnh/internal/kv"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// opEnds counts the flight op-end events per (op, outcome), and the op-begin
// events overall.
func opEnds(d flight.Dump) (ends [obs.NumOps][obs.NumOutcomes]uint64, begins uint64) {
	for _, e := range d.Events {
		switch e.Kind {
		case flight.KindOpEnd:
			ends[e.A][e.B]++
		case flight.KindOpBegin:
			begins++
		}
	}
	return ends, begins
}

// TestObserversAgreePerOp runs one session through every op and outcome the
// single-key paths have, then a MultiPut group and a MultiDelete with an
// absent key, with metrics, flight and heat all sampling every op, and checks
// the three report the same ops: each single-key (op, outcome) metrics count
// equals its flight op-end count, every count equals its latency sample
// count, no latency median reads 0 ns, heat's per-op counts equal the
// metrics per-op totals, and flight's probe events sum to the metrics probes.
func TestObserversAgreePerOp(t *testing.T) {
	met := obs.New(obs.Config{SampleEvery: 1})
	fr := flight.New(flight.Config{SampleEvery: 1})
	mon := heat.NewMonitor(heat.Config{SampleEvery: 1})
	tbl := newTable(t, func(o *Options) {
		o.Metrics, o.Flight, o.Heat = met, fr, mon
	})
	s := sessionOn(tbl)
	defer s.Close()

	hot, cold, absent, fresh := key(1), key(2), key(3), key(4)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	want := func(err, target error) {
		t.Helper()
		if !errors.Is(err, target) {
			t.Fatalf("err = %v, want %v", err, target)
		}
	}
	must(s.Insert(hot, value(1)))
	must(s.Insert(cold, value(2)))
	want(s.Insert(hot, value(9)), scheme.ErrExists)
	h1, _, fp := hashKV(cold[:])
	tbl.hot.del(cold, h1, fp) // the next Get of cold walks the NVT
	if _, ok := s.Get(hot); !ok {
		t.Fatal("hot key missing")
	}
	if _, ok := s.Get(cold); !ok {
		t.Fatal("cold key missing")
	}
	if _, ok := s.Get(absent); ok {
		t.Fatal("absent key found")
	}
	must(s.Update(hot, value(10)))
	want(s.UpdateIf(hot, value(11), value(12)), scheme.ErrConflict)
	must(s.Delete(cold))
	want(s.Delete(absent), scheme.ErrNotFound)
	must(s.Put(fresh, value(4)))
	must(s.Put(fresh, value(5)))

	var wantOps [obs.NumOps][obs.NumOutcomes]uint64
	wantOps[obs.OpGet][obs.OutHotHit] = 1
	wantOps[obs.OpGet][obs.OutNVTHit] = 1
	wantOps[obs.OpGet][obs.OutMiss] = 1
	wantOps[obs.OpInsert][obs.OutOK] = 3 // two Inserts and the fresh Put
	wantOps[obs.OpInsert][obs.OutExists] = 1
	wantOps[obs.OpUpdate][obs.OutOK] = 2 // the Update and the second Put
	wantOps[obs.OpUpdate][obs.OutConflict] = 1
	wantOps[obs.OpDelete][obs.OutOK] = 1
	wantOps[obs.OpDelete][obs.OutNotFound] = 1
	if got := met.Snapshot().Ops; got != wantOps {
		t.Fatalf("metrics ops = %v, want %v", got, wantOps)
	}
	if ends, _ := opEnds(fr.Snapshot()); ends != wantOps {
		t.Fatalf("flight op-ends = %v, want the metrics counts %v", ends, wantOps)
	}

	// One write group: every write of a chunk begins before any ends, and the
	// absent key's delete settles while its group-mates are still open. A
	// flight handle keeps one open span, so the group's writes are not all
	// traced; each still reports its own latency, so no median may read 0 ns.
	group := make([]kv.Key, 8)
	vals := make([]kv.Value, len(group))
	for i := range group {
		group[i], vals[i] = key(10+i), value(10+i)
	}
	errs := make([]error, len(group))
	if n := s.MultiPut(group, vals, errs); n != 0 {
		t.Fatalf("MultiPut failures = %d: %v", n, errs)
	}
	dels := []kv.Key{group[0], group[1], absent}
	derrs := make([]error, len(dels))
	s.MultiDelete(dels, derrs)
	must(derrs[0])
	must(derrs[1])
	want(derrs[2], scheme.ErrNotFound)
	wantOps[obs.OpInsert][obs.OutOK] += uint64(len(group))
	wantOps[obs.OpDelete][obs.OutOK] += 2
	wantOps[obs.OpDelete][obs.OutNotFound]++

	snap := met.Snapshot()
	if snap.Ops != wantOps {
		t.Fatalf("metrics ops = %v, want %v", snap.Ops, wantOps)
	}
	var heatOps [obs.NumOps]uint64
	for _, sh := range mon.Snapshot().Shards {
		for op := obs.Op(0); op < obs.NumOps; op++ {
			heatOps[op] += sh.Ops[op.String()]
		}
	}
	for op := obs.Op(0); op < obs.NumOps; op++ {
		var total uint64
		for out := obs.Outcome(0); out < obs.NumOutcomes; out++ {
			n, l := snap.Ops[op][out], snap.Latency[op][out]
			if l.Sampled != n {
				t.Errorf("%v/%v: metrics %d, latency samples %d", op, out, n, l.Sampled)
			}
			if n > 0 && l.P50Ns <= 0 {
				t.Errorf("%v/%v: latency p50 = %d ns over %d samples, want > 0", op, out, l.P50Ns, n)
			}
			total += n
		}
		if heatOps[op] != total {
			t.Errorf("%v: metrics %d, heat %d", op, total, heatOps[op])
		}
	}
	// Every walk, grouped writes' too, reports its probes while a span is
	// open, so flight's probe events carry all the probes metrics counted.
	var flProbes uint64
	for _, e := range fr.Snapshot().Events {
		if e.Kind == flight.KindProbe {
			flProbes += e.Args[0]
		}
	}
	if flProbes != snap.NVTProbes || flProbes == 0 {
		t.Errorf("flight probe reads %d, metrics %d", flProbes, snap.NVTProbes)
	}
}

// TestObserverSamplingGateCounts pins each observer's sampling gate by count,
// not by clock: n = 64·k hot Gets on a fresh session take exactly k metrics
// latency samples and k heat samples at the default 1-in-64, and open exactly
// n/8 flight spans at SampleEvery 8.
func TestObserverSamplingGateCounts(t *testing.T) {
	const k = 16
	const n = 64 * k
	met := obs.New(obs.Config{})
	fr := flight.New(flight.Config{SampleEvery: 8})
	mon := heat.NewMonitor(heat.Config{})
	tbl := newTable(t, func(o *Options) {
		o.Metrics, o.Flight, o.Heat = met, fr, mon
	})
	setup := sessionOn(tbl)
	if err := setup.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	setup.Close()
	_, begins0 := opEnds(fr.Snapshot())
	heat0 := mon.Snapshot().Shards[0].Ops["get"]

	s := sessionOn(tbl)
	defer s.Close()
	for i := 0; i < n; i++ {
		if _, ok := s.Get(key(1)); !ok {
			t.Fatal("miss")
		}
	}
	snap := met.Snapshot()
	if got := snap.Ops[obs.OpGet][obs.OutHotHit]; got != n {
		t.Fatalf("get/hot_hit = %d, want %d", got, n)
	}
	if got := snap.Latency[obs.OpGet][obs.OutHotHit].Sampled; got != k {
		t.Errorf("metrics latency samples = %d, want %d", got, k)
	}
	if got := (mon.Snapshot().Shards[0].Ops["get"] - heat0) / heat.DefaultSampleEvery; got != k {
		t.Errorf("heat samples = %d, want %d", got, k)
	}
	if _, begins := opEnds(fr.Snapshot()); begins-begins0 != n/8 {
		t.Errorf("flight op-begins = %d, want %d", begins-begins0, n/8)
	}
}
