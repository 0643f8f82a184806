package obs

import (
	"sync/atomic"
	"time"
)

// RESPCmd enumerates the commands the RESP listener serves; Other covers
// unknown commands (answered with -ERR, counted so abuse is visible).
type RESPCmd uint8

const (
	RESPGet RESPCmd = iota
	RESPSet
	RESPDel
	RESPMGet
	RESPMSet
	RESPPing
	RESPInfo
	RESPQuit
	RESPOther
	NumRESPCmds
)

// String returns the Prometheus label value for the command.
func (c RESPCmd) String() string {
	switch c {
	case RESPGet:
		return "get"
	case RESPSet:
		return "set"
	case RESPDel:
		return "del"
	case RESPMGet:
		return "mget"
	case RESPMSet:
		return "mset"
	case RESPPing:
		return "ping"
	case RESPInfo:
		return "info"
	case RESPQuit:
		return "quit"
	default:
		return "other"
	}
}

// RESPMetrics instruments the binary wire listener: connection lifecycle,
// the in-flight pipeline depth, how well the listener coalesces commands
// into batch runs, and the served per-command latency (burst read to burst
// written, which is what a pipelined client observes).
//
// Unlike the table counters these are plain shared atomics, not per-session
// shards: every command already crosses a syscall boundary, so one
// uncontended-in-practice cache line per counter is noise there.
type RESPMetrics struct {
	connsTotal atomic.Uint64
	connsOpen  atomic.Int64
	inFlight   atomic.Int64
	protoErrs  atomic.Uint64

	cmds    [NumRESPCmds]atomic.Uint64
	cmdErrs [NumRESPCmds]atomic.Uint64
	lat     [NumRESPCmds]AtomicHist

	runs    atomic.Uint64
	runOps  atomic.Uint64
	flushes atomic.Uint64
	runLen  AtomicHist // run length in ops (the histogram is unit-agnostic)

	// Write runs get their own shape series: a coalesced MSET burst's size
	// is what the group-commit path turns into one persist barrier, so
	// hdnhtop can show write batch shape separately from reads.
	writeRuns   atomic.Uint64
	writeRunOps atomic.Uint64
	writeRunLen AtomicHist
}

// NewRESPMetrics returns a fresh registry for one listener.
func NewRESPMetrics() *RESPMetrics { return &RESPMetrics{} }

// ConnOpened records an accepted connection. Nil-safe, like every method.
func (m *RESPMetrics) ConnOpened() {
	if m == nil {
		return
	}
	m.connsTotal.Add(1)
	m.connsOpen.Add(1)
}

// ConnClosed records a connection teardown.
func (m *RESPMetrics) ConnClosed() {
	if m == nil {
		return
	}
	m.connsOpen.Add(-1)
}

// Enqueued records a parsed burst of n commands going into execution: they
// are in flight until each is Served or the lot is Dropped.
func (m *RESPMetrics) Enqueued(n int) {
	if m == nil || n == 0 {
		return
	}
	m.inFlight.Add(int64(n))
}

// Dropped records n enqueued commands whose replies never left (the write
// failed: the client went away mid-burst); it only rebalances the gauge.
func (m *RESPMetrics) Dropped(n int) {
	if m == nil || n == 0 {
		return
	}
	m.inFlight.Add(int64(-n))
}

// Served records one command's reply handed to the socket: the command,
// whether it answered with an error reply, and its served latency — from the
// Read that completed its burst to the return of the Write that carried the
// burst's replies, the same figure for every command of the burst.
func (m *RESPMetrics) Served(cmd RESPCmd, isErr bool, d time.Duration) {
	if m == nil {
		return
	}
	m.inFlight.Add(-1)
	m.cmds[cmd].Add(1)
	if isErr {
		m.cmdErrs[cmd].Add(1)
	}
	m.lat[cmd].Record(d.Nanoseconds())
}

// Run records one batch call carrying n keys: the commands of one kind in
// one conflict-free stretch of a burst, or one MGET/MSET/multi-key DEL.
func (m *RESPMetrics) Run(n int) {
	if m == nil {
		return
	}
	m.runs.Add(1)
	m.runOps.Add(uint64(n))
	m.runLen.Record(int64(n))
}

// WriteRun records one coalesced run of n write commands (MSET fan-in,
// multi-key DEL, or a pipelined SET/DEL burst the executor grouped). Call
// it alongside Run for write-kind runs.
func (m *RESPMetrics) WriteRun(n int) {
	if m == nil {
		return
	}
	m.writeRuns.Add(1)
	m.writeRunOps.Add(uint64(n))
	m.writeRunLen.Record(int64(n))
}

// Flush records one reply Write (one syscall per executed burst is the
// whole point; flushes/runs tells you if that holds).
func (m *RESPMetrics) Flush() {
	if m == nil {
		return
	}
	m.flushes.Add(1)
}

// ProtoError records a framing-level protocol error (connection is closed).
func (m *RESPMetrics) ProtoError() {
	if m == nil {
		return
	}
	m.protoErrs.Add(1)
}

// RESPSnapshot is a point-in-time copy of a listener's counters.
type RESPSnapshot struct {
	ConnsTotal  uint64 `json:"connections_total"`
	ConnsOpen   int64  `json:"connections_open"`
	InFlight    int64  `json:"in_flight"`
	ProtoErrors uint64 `json:"proto_errors"`

	Commands      map[string]uint64      `json:"commands"`
	CommandErrors map[string]uint64      `json:"command_errors,omitempty"`
	Latency       map[string]LatencyStat `json:"latency_ns,omitempty"`

	Runs      uint64      `json:"runs"`
	RunOps    uint64      `json:"run_ops"`
	Flushes   uint64      `json:"flushes"`
	RunLength LatencyStat `json:"run_length"` // ops per run, not nanoseconds

	WriteRuns      uint64      `json:"write_runs"`
	WriteRunOps    uint64      `json:"write_run_ops"`
	WriteRunLength LatencyStat `json:"write_run_length"` // ops per write run

	// internal positional copies the Prometheus writer iterates.
	cmds    [NumRESPCmds]uint64
	cmdErrs [NumRESPCmds]uint64
	lat     [NumRESPCmds]LatencyStat
}

// Snapshot copies the counters. Nil-safe: a nil registry returns nil, which
// the expositions render as "no RESP listener".
func (m *RESPMetrics) Snapshot() *RESPSnapshot {
	if m == nil {
		return nil
	}
	s := &RESPSnapshot{
		ConnsTotal:  m.connsTotal.Load(),
		ConnsOpen:   m.connsOpen.Load(),
		InFlight:    m.inFlight.Load(),
		ProtoErrors: m.protoErrs.Load(),
		Commands:    map[string]uint64{},
		Runs:        m.runs.Load(),
		RunOps:      m.runOps.Load(),
		Flushes:     m.flushes.Load(),
		WriteRuns:   m.writeRuns.Load(),
		WriteRunOps: m.writeRunOps.Load(),
	}
	for c := RESPCmd(0); c < NumRESPCmds; c++ {
		s.cmds[c] = m.cmds[c].Load()
		s.cmdErrs[c] = m.cmdErrs[c].Load()
		s.Commands[c.String()] = s.cmds[c]
		if s.cmdErrs[c] != 0 {
			if s.CommandErrors == nil {
				s.CommandErrors = map[string]uint64{}
			}
			s.CommandErrors[c.String()] = s.cmdErrs[c]
		}
		if h := m.lat[c].Snapshot(); h.Count() > 0 {
			ls := LatencyStat{
				Sampled: h.Count(),
				MeanNs:  h.Mean(),
				P50Ns:   h.Percentile(50),
				P99Ns:   h.Percentile(99),
				P999Ns:  h.Percentile(99.9),
				MaxNs:   h.Max(),
			}
			s.lat[c] = ls
			if s.Latency == nil {
				s.Latency = map[string]LatencyStat{}
			}
			s.Latency[c.String()] = ls
		}
	}
	if h := m.runLen.Snapshot(); h.Count() > 0 {
		s.RunLength = LatencyStat{
			Sampled: h.Count(),
			MeanNs:  h.Mean(),
			P50Ns:   h.Percentile(50),
			P99Ns:   h.Percentile(99),
			P999Ns:  h.Percentile(99.9),
			MaxNs:   h.Max(),
		}
	}
	if h := m.writeRunLen.Snapshot(); h.Count() > 0 {
		s.WriteRunLength = LatencyStat{
			Sampled: h.Count(),
			MeanNs:  h.Mean(),
			P50Ns:   h.Percentile(50),
			P99Ns:   h.Percentile(99),
			P999Ns:  h.Percentile(99.9),
			MaxNs:   h.Max(),
		}
	}
	return s
}
