package core

import (
	"time"

	"hdnh/internal/flight"
	"hdnh/internal/heat"
	"hdnh/internal/kv"
	"hdnh/internal/obs"
)

// observer is what a session, a table or its hot table reports to: a
// metrics, a flight and a heat handle, each nil when that observer is off
// (see docs/OBSERVABILITY.md, "Disabled observers"). This file is the only
// place that fans a report out to more than one of them.
type observer struct {
	rec  *obs.Handle
	fl   *flight.Handle
	heat *heat.Handle // sessions only
}

// mark is one open op: whether metrics latency-sample it, whether flight
// traces it, and t0, the clock reading at begin when either does. A traced
// op's t0 is its span's token and its latency what flight's OpEnd returns, so
// it reads the clock once at each end.
type mark struct {
	t0   int64
	lat  bool
	span bool
}

// clockBase anchors nanotime, the clock a latency sample runs on when flight
// is not tracing the op.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// begin opens op on the session's observers.
func (s *session) begin(op obs.Op) mark {
	if t0 := s.o.fl.OpBegin(op); t0 != 0 {
		return mark{t0: t0, lat: s.o.rec.Sample(), span: true}
	}
	return s.beginKey()
}

// beginKey opens one key of a batch whose flight span is already open: only
// metrics sample it.
func (s *session) beginKey() mark {
	m := mark{lat: s.o.rec.Sample()}
	if m.lat {
		m.t0 = nanotime()
	}
	return m
}

// end closes the op m opened with outcome out: its count and sampled latency,
// its flight span, and its heat touch on k.
func (s *session) end(op obs.Op, out obs.Outcome, k kv.Key, m mark) {
	ns := int64(-1) // not latency-sampled
	if m.span {
		d := s.o.fl.OpEnd(op, out, m.t0)
		if m.lat {
			ns = d
		}
	} else if m.lat {
		ns = nanotime() - m.t0
	}
	s.o.rec.Op(op, out, ns)
	s.o.heat.Touch(op, k)
}

// probes reports NVT-walk accounting right after the walk, while a traced op's
// span is still open. Flight drops it outside a traced op.
func (o *observer) probes(ps *probeStats) {
	o.rec.Probe(ps.rescans, ps.probes, ps.spins)
	o.fl.Probe(ps.probes, ps.rescans, ps.spins)
}

// The table-level events: each reaches every observer that records it.

func (o *observer) hotFill(rejected bool) {
	o.rec.HotFill(rejected)
	o.fl.HotFill(rejected)
}

func (o *observer) hotEvict() {
	o.rec.HotEvict()
	o.fl.HotEvict()
}

func (o *observer) drainChunk(buckets, moved int64, d time.Duration) {
	o.rec.DrainChunk(buckets, moved, d)
	o.fl.DrainChunk(buckets, moved, d)
}

func (o *observer) resizeSwap(generation uint64, d time.Duration) {
	o.rec.ExpansionSwap(d)
	o.fl.ResizeSwap(generation, d)
}

func (o *observer) resizeDone(generation uint64, d time.Duration) {
	o.rec.Expansion(d)
	o.fl.ResizeDone(generation, d)
}
