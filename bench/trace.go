package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/resp"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer that has an interface seam: one span per client call
// (layer "bigkv" in process, "resp" over the wire) and, over the wire, one
// span per call the server makes into its store session (layer "backend").
// Spans stay in memory and are written when the run ends. Layers without a
// seam (core under bigkv, vlog, nvm) are measured by single-client replays
// of the same inputs, in layers.go.

// keepSpans bounds the spans kept verbatim per client and layer, so a
// traced get-hot run does not write a gigabyte; the totals cover every span.
const keepSpans = 1 << 14

type rawSpan struct {
	start, end int64 // ns since the tracing epoch
	op         kind
}

// spanBuf is one goroutine's spans of one layer.
type spanBuf struct {
	epoch time.Time
	kept  []rawSpan
	calls [nKinds]int64
	busy  [nKinds]time.Duration
}

func (b *spanBuf) add(op kind, t0, t1 time.Time) {
	b.calls[op]++
	b.busy[op] += t1.Sub(t0)
	if len(b.kept) < keepSpans {
		b.kept = append(b.kept, rawSpan{int64(t0.Sub(b.epoch)), int64(t1.Sub(b.epoch)), op})
	}
}

// clientSpans holds one spanBuf per client of a layer.
type clientSpans struct {
	layer string
	bufs  []*spanBuf
}

func newSpanBuf(epoch time.Time) *spanBuf {
	return &spanBuf{epoch: epoch, kept: make([]rawSpan, 0, keepSpans)}
}

func newClientSpans(layer string, clients int, epoch time.Time) *clientSpans {
	cs := &clientSpans{layer: layer}
	for i := 0; i < clients; i++ {
		cs.bufs = append(cs.bufs, newSpanBuf(epoch))
	}
	return cs
}

// tracing is what a traced run switches on: the span recorder and an
// obs.Metrics registry attached to the store.
type tracing struct {
	metrics *obs.Metrics
	client  *clientSpans
	backend *tracedBackend // wire workloads only
}

func newTracing(sp *spec) *tracing {
	tr := &tracing{metrics: obs.New(obs.Config{})}
	epoch, layer := time.Now(), "bigkv"
	if sp.wire {
		layer = "resp"
		tr.backend = &tracedBackend{epoch: epoch}
	}
	tr.client = newClientSpans(layer, sp.clients, epoch)
	return tr
}

// tracedBackend decorates resp.Backend: the interface seam between the
// wire layer and the store. Sessions are numbered in the order connections
// are accepted, which the workload makes the client order.
type tracedBackend struct {
	st    *bigkv.Store
	epoch time.Time
	// on limits the spans to the phase whose client calls are recorded too,
	// so that every backend span has a parent.
	on atomic.Bool

	mu       sync.Mutex
	sessions []*tracedSession
}

func (b *tracedBackend) NewSession() resp.BackendSession {
	s := &tracedSession{Session: b.st.NewSession(), on: &b.on, spans: newSpanBuf(b.epoch)}
	b.mu.Lock()
	b.sessions = append(b.sessions, s)
	b.mu.Unlock()
	return s
}

// totals sums calls and busy time over every session so far. Call it only
// while the connections are idle.
func (b *tracedBackend) totals() (calls int64, busy time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.sessions {
		for k := range s.spans.calls {
			calls += s.spans.calls[k]
			busy += s.spans.busy[k]
		}
	}
	return calls, busy
}

// nvmStats sums the sessions' device traffic; same caveat as totals.
func (b *tracedBackend) nvmStats() nvm.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total nvm.Stats
	for _, s := range b.sessions {
		total.Add(s.NVMStats())
	}
	return total
}

type tracedSession struct {
	*bigkv.Session
	on    *atomic.Bool
	spans *spanBuf
}

func (s *tracedSession) add(op kind, t0 time.Time) {
	if s.on.Load() {
		s.spans.add(op, t0, time.Now())
	}
}

func (s *tracedSession) MultiGet(keys [][]byte) ([][]byte, []bool, []error) {
	t0 := time.Now()
	vals, found, errs := s.Session.MultiGet(keys)
	s.add(kRead, t0)
	return vals, found, errs
}

func (s *tracedSession) MultiPut(keys, values [][]byte) []error {
	t0 := time.Now()
	errs := s.Session.MultiPut(keys, values)
	s.add(kWrite, t0)
	return errs
}

func (s *tracedSession) MultiDelete(keys [][]byte) []error {
	t0 := time.Now()
	errs := s.Session.MultiDelete(keys)
	s.add(kDelete, t0)
	return errs
}

// traceSpan is one span as the trace file holds it. Parent is the index,
// in the same file, of the span this one ran inside, or -1.
type traceSpan struct {
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	Client  int    `json:"client"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

type traceTotal struct {
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Calls  int64  `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
	// SelfNs is BusyNs minus the time covered by child spans.
	SelfNs int64 `json:"self_ns"`
}

type traceFile struct {
	Workload  string       `json:"workload"`
	Seed      uint64       `json:"seed"`
	KeptSpans int          `json:"kept_spans_per_client"`
	Totals    []traceTotal `json:"totals"`
	Spans     []traceSpan  `json:"spans"`
}

// file assembles the trace: client spans first, then backend spans, each
// backend span's parent being the client span of the same connection whose
// interval holds its start. Loops are closed, so a connection has one call
// outstanding at a time and the enclosing span is unique.
func (tr *tracing) file(workload string, seed uint64) traceFile {
	f := traceFile{Workload: workload, Seed: seed, KeptSpans: keepSpans}
	first := make([]int, len(tr.client.bufs)) // index of each client's first span
	var clientBusy, childBusy [nKinds]time.Duration
	var clientCalls [nKinds]int64
	for c, b := range tr.client.bufs {
		first[c] = len(f.Spans)
		for _, s := range b.kept {
			f.Spans = append(f.Spans, traceSpan{tr.client.layer, kindNames[s.op], c, s.start, s.end, -1})
		}
		for k := range b.calls {
			clientCalls[k] += b.calls[k]
			clientBusy[k] += b.busy[k]
		}
	}
	if tr.backend != nil {
		var calls [nKinds]int64
		var busy [nKinds]time.Duration
		for c, s := range tr.backend.sessions {
			if c >= len(first) {
				break // sessions of connections the clients did not open
			}
			parents := tr.client.bufs[c].kept
			p := 0
			for _, sp := range s.spans.kept {
				for p < len(parents) && parents[p].end < sp.start {
					p++
				}
				parent := -1
				if p < len(parents) && parents[p].start <= sp.start {
					parent = first[c] + p
				}
				f.Spans = append(f.Spans, traceSpan{"backend", kindNames[sp.op], c, sp.start, sp.end, parent})
			}
			for k := range s.spans.calls {
				calls[k] += s.spans.calls[k]
				busy[k] += s.spans.busy[k]
			}
		}
		for k := range calls {
			if calls[k] > 0 {
				f.Totals = append(f.Totals, traceTotal{"backend", kindNames[k], calls[k], int64(busy[k]), int64(busy[k])})
			}
			// Every backend call of the traced phase runs inside a burst.
			childBusy[kBurst] += busy[k]
		}
	}
	for k := range clientCalls {
		if clientCalls[k] > 0 {
			f.Totals = append(f.Totals, traceTotal{tr.client.layer, kindNames[k], clientCalls[k], int64(clientBusy[k]), int64(clientBusy[k] - childBusy[k])})
		}
	}
	return f
}

// writeJSON writes v to path, indented for files people read and compact
// for the span lists.
func writeJSON(path string, v any, indent bool) error {
	data, err := json.Marshal(v)
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	}
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

// writeFile writes data to path, making the directory first.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
