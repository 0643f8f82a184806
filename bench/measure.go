package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// kind is what one client call did; latencies are kept per kind.
type kind uint8

const (
	kRead kind = iota
	kWrite
	kBurst // sixteen operations sent and answered as one unit
	kDelete
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "burst", "delete"}

// callFn makes client call i and reports its kind, how many store
// operations it carried and how many of them failed.
type callFn func(i int) (k kind, ops, failed int)

const (
	// sampleFast: of sub-microsecond calls one in eight is timed, so the two
	// clock reads stay off most calls. Calls that cross a socket or carry
	// sixteen operations are all timed (sampleAll).
	sampleFast = 8
	sampleAll  = 1
	// nSlices: every timing is the median over this many equal op-count
	// slices of the phase, so a noisy neighbour spoils one slice and not
	// the result.
	nSlices = 10
	// minSliceSamples keeps ten samples beyond p99 in every slice, and
	// minSliceTime keeps a slice longer than a scheduler hiccup; a phase too
	// short for ten such slices is cut into fewer.
	minSliceSamples = 1000
	minSliceTime    = 200 * time.Millisecond
)

// phase is one closed loop: each client makes its next call only when the
// previous one returned. It ends when dur has passed or every client has
// made calls calls, whichever bound is set and comes first.
type phase struct {
	name  string
	dur   time.Duration
	first []int // index of each client's first call; nil means 0
	calls []int // per client; nil means no bound on calls
	chunk int   // calls between two looks at the clock
	every int   // one call in every is timed
	fns   []callFn
	trace *clientSpans // per-call spans in a traced run, else nil
	// begin and end, when set, run before and after every turn of the phase.
	begin, end func()
}

// mark is a client's running totals at the end of a chunk.
type mark struct {
	t   time.Duration // since the phase started
	ops int64
	n   [nKinds]int32 // latency samples taken so far, per kind
}

type clientLog struct {
	marks     []mark
	next      int              // index of the call after the last one made
	lat       [nKinds][]uint32 // sampled call latencies in ns
	attempted int64
	failed    int64
}

type phaseLog struct {
	name    string
	elapsed time.Duration
	clients []clientLog
}

func (p phase) run() phaseLog {
	logs := make([]clientLog, len(p.fns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range p.fns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = p.runClient(c, start)
		}(c)
	}
	wg.Wait()
	return phaseLog{name: p.name, elapsed: time.Since(start), clients: logs}
}

func (p phase) runClient(c int, start time.Time) clientLog {
	var log clientLog
	fn := p.fns[c]
	limit := math.MaxInt
	if p.calls != nil {
		limit = p.calls[c]
	}
	var spans *spanBuf
	if p.trace != nil {
		spans = p.trace.bufs[c]
	}
	if p.first != nil {
		log.next = p.first[c]
	}
	if limit < math.MaxInt {
		limit += log.next
	}
	for i := log.next; i < limit; {
		n := min(p.chunk, limit-i)
		for end := i + n; i < end; i++ {
			sampled := i%p.every == 0
			if !sampled && spans == nil {
				_, ops, failed := fn(i)
				log.attempted += int64(ops)
				log.failed += int64(failed)
				continue
			}
			t0 := time.Now()
			k, ops, failed := fn(i)
			t1 := time.Now()
			log.attempted += int64(ops)
			log.failed += int64(failed)
			if sampled {
				log.lat[k] = append(log.lat[k], clampNs(t1.Sub(t0)))
			}
			if spans != nil {
				spans.add(k, t0, t1)
			}
		}
		m := mark{t: time.Since(start), ops: log.attempted}
		for k := range log.lat {
			m.n[k] = int32(len(log.lat[k]))
		}
		log.marks = append(log.marks, m)
		log.next = i
		if p.dur > 0 && m.t >= p.dur {
			break
		}
	}
	return log
}

// alternate runs the phases in rounds turns — a share of the first, the same
// share of the second, and again — and returns each phase's log as if it had
// run in one piece. On a shared host a neighbour slows the program for
// seconds at a time: a phase that runs three seconds in one piece is either
// hit whole or not at all, and reads 20% apart from run to run; spread over
// the whole window, the same disturbance spoils a minority of every phase's
// slices, and the median over slices does not see it.
func alternate(rounds int, ps ...*phase) []phaseLog {
	logs := make([]phaseLog, len(ps))
	for r := 0; r < rounds; r++ {
		for j, p := range ps {
			turn := *p
			turn.dur = p.dur / time.Duration(rounds)
			if p.calls != nil {
				turn.calls = make([]int, len(p.calls))
				for c, n := range p.calls {
					lo, hi := sliceRange(n, rounds, r)
					turn.calls[c] = hi - lo
				}
			}
			if p.begin != nil {
				p.begin()
			}
			l := turn.run()
			if p.end != nil {
				p.end()
			}
			p.first = make([]int, len(l.clients))
			for c := range l.clients {
				p.first[c] = l.clients[c].next
			}
			logs[j].append(l)
		}
	}
	return logs
}

// append continues l with a later turn of the same phase: the clients'
// clocks and counts run on from where they stood, so the gap between the
// turns is in no slice.
func (l *phaseLog) append(turn phaseLog) {
	if l.clients == nil {
		*l = turn
		return
	}
	l.elapsed += turn.elapsed
	for c := range l.clients {
		into, from := &l.clients[c], turn.clients[c]
		var last mark
		if len(into.marks) > 0 {
			last = into.marks[len(into.marks)-1]
		}
		for _, m := range from.marks {
			m.t += last.t
			m.ops += last.ops
			for k := range m.n {
				m.n[k] += last.n[k]
			}
			into.marks = append(into.marks, m)
		}
		for k := range into.lat {
			into.lat[k] = append(into.lat[k], from.lat[k]...)
		}
		into.next = from.next
		into.attempted += from.attempted
		into.failed += from.failed
	}
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// latStat summarises one kind's sampled latencies in a phase.
type latStat struct {
	p50us, p99us, p999us float64
	samples              int
}

type phaseStat struct {
	name      string
	elapsed   time.Duration
	opsPerS   float64 // median over slices of the clients' summed rates
	lat       [nKinds]latStat
	attempted int64
	failed    int64
}

// sliceRange returns the bounds [lo, hi) of slice j when n items are cut
// into parts equal parts.
func sliceRange(n, parts, j int) (lo, hi int) { return j * n / parts, (j + 1) * n / parts }

func (l phaseLog) stats() phaseStat {
	st := phaseStat{name: l.name, elapsed: l.elapsed}
	parts := l.maxParts()
	for _, c := range l.clients {
		st.attempted += c.attempted
		st.failed += c.failed
	}
	if parts == 0 {
		return st
	}
	rates := make([]float64, parts)
	for _, c := range l.clients {
		for j := range rates {
			lo, hi := sliceRange(len(c.marks), parts, j)
			var from mark
			if lo > 0 {
				from = c.marks[lo-1]
			}
			to := c.marks[hi-1]
			rates[j] += float64(to.ops-from.ops) / (to.t - from.t).Seconds()
		}
	}
	st.opsPerS = median(rates)
	for k := kind(0); k < nKinds; k++ {
		st.lat[k] = l.latStat(k)
	}
	return st
}

// maxParts is how many slices the phase's length and chunk count allow: at
// most nSlices, none for a phase that made no call.
func (l phaseLog) maxParts() int {
	parts := max(1, min(nSlices, int(l.elapsed/minSliceTime)))
	for _, c := range l.clients {
		parts = min(parts, len(c.marks))
	}
	return parts
}

// latStat cuts the phase into as many slices as leave minSliceSamples in
// each (at most maxParts, at least one), pools the clients' samples of each
// slice, and takes the median over slices of each percentile.
func (l phaseLog) latStat(k kind) latStat {
	total := 0
	for _, c := range l.clients {
		total += len(c.lat[k])
	}
	if total == 0 {
		return latStat{}
	}
	parts := max(1, min(l.maxParts(), total/minSliceSamples))
	p50, p99, p999 := make([]float64, 0, parts), make([]float64, 0, parts), make([]float64, 0, parts)
	var pool []uint32
	for j := 0; j < parts; j++ {
		pool = pool[:0]
		for _, c := range l.clients {
			lo, hi := sliceRange(len(c.marks), parts, j)
			from := int32(0)
			if lo > 0 {
				from = c.marks[lo-1].n[k]
			}
			pool = append(pool, c.lat[k][from:c.marks[hi-1].n[k]]...)
		}
		if len(pool) == 0 {
			continue
		}
		slices.Sort(pool)
		p50 = append(p50, float64(percentile(pool, 50)))
		p99 = append(p99, float64(percentile(pool, 99)))
		p999 = append(p999, float64(percentile(pool, 99.9)))
	}
	return latStat{
		p50us:   median(p50) / 1e3,
		p99us:   median(p99) / 1e3,
		p999us:  median(p999) / 1e3,
		samples: total,
	}
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9)) // 99.9% of 1000 is 999, not 999.0000000000001
	return sorted[max(1, min(rank, len(sorted)))-1]
}

// median of xs (mean of the middle two for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
