package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hdnh/internal/obs"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Timestamps and durations are
// microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"` // set on every complete span, zero included
	PID  int            `json:"pid"`
	TID  uint32         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// WriteChromeTrace renders the dump as Chrome trace-event JSON. Each ring
// becomes one named "thread"; ops, drain chunks, resize windows, GC phases,
// and recovery steps become complete ("X") spans carrying their NVM access
// deltas and counts as args, and the point events become instants.
func WriteChromeTrace(w io.Writer, d Dump) error {
	tr := chromeTrace{DisplayTimeUnit: "ns"}
	for _, ri := range d.Rings {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  chromePID,
			TID:  ri.ID,
			Args: map[string]any{"name": fmt.Sprintf("%s/%d", ri.Label, ri.ID)},
		})
	}
	for _, ev := range d.Events {
		if ce, ok := chromeFromEvent(ev); ok {
			tr.TraceEvents = append(tr.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// span builds a complete-span chrome event whose end timestamp is ev.TS and
// whose duration is durNs.
func span(ev Event, name string, durNs uint64, args map[string]any) chromeEvent {
	dur := float64(durNs) / 1e3
	return chromeEvent{
		Name: name,
		Cat:  ev.Kind.String(),
		Ph:   "X",
		TS:   float64(ev.TS-int64(durNs)) / 1e3,
		Dur:  &dur,
		PID:  chromePID,
		TID:  ev.Ring,
		Args: args,
	}
}

func instant(ev Event, name string, args map[string]any) chromeEvent {
	return chromeEvent{
		Name: name,
		Cat:  ev.Kind.String(),
		Ph:   "i",
		TS:   float64(ev.TS) / 1e3,
		PID:  chromePID,
		TID:  ev.Ring,
		S:    "t",
		Args: args,
	}
}

func chromeFromEvent(ev Event) (chromeEvent, bool) {
	switch ev.Kind {
	case KindOpBegin:
		// The matching KindOpEnd carries the whole span.
		return chromeEvent{}, false
	case KindOpEnd:
		ra, rw := UnpackAccess(ev.Args[1])
		wa, ww := UnpackAccess(ev.Args[2])
		fl, fe := UnpackAccess(ev.Args[3])
		return span(ev, obs.Op(ev.A).String(), ev.Args[0], map[string]any{
			"outcome":         obs.Outcome(ev.B).String(),
			"nvm_reads":       ra,
			"nvm_read_words":  rw,
			"nvm_writes":      wa,
			"nvm_write_words": ww,
			"nvm_flushes":     fl,
			"nvm_fences":      fe,
		}), true
	case KindProbe:
		return instant(ev, "probe", map[string]any{"probes": ev.Args[0]}), true
	case KindRescan:
		return instant(ev, "rescan", map[string]any{"rescans": ev.Args[0]}), true
	case KindLockSpin:
		return instant(ev, "lock-spin", map[string]any{"spins": ev.Args[0]}), true
	case KindHotFill:
		return instant(ev, "hot-fill", map[string]any{"rejected": ev.A == 1}), true
	case KindHotEvict:
		return instant(ev, "hot-evict", nil), true
	case KindDrainChunk:
		return span(ev, "drain-chunk", ev.Args[0], map[string]any{
			"buckets": ev.Args[1],
			"moved":   ev.Args[2],
		}), true
	case KindResizeSwap:
		return span(ev, "resize-swap", ev.Args[0], map[string]any{"generation": ev.Args[1]}), true
	case KindResizeDone:
		return span(ev, "resize", ev.Args[0], map[string]any{"generation": ev.Args[1]}), true
	case KindGCPhase:
		return span(ev, "gc-"+GCPhase(ev.A).String(), ev.Args[0], map[string]any{
			"segment": ev.Args[1],
			"amount":  ev.Args[2],
		}), true
	case KindVLogSeg:
		return instant(ev, "vlog-seg", map[string]any{
			"state":   ev.A,
			"segment": ev.Args[0],
		}), true
	case KindRecoveryStep:
		return span(ev, "recovery-"+RecoveryStep(ev.A).String(), ev.Args[0], map[string]any{
			"count": ev.Args[1],
		}), true
	case KindGroupCommit:
		return span(ev, "group-commit", ev.Args[0], map[string]any{
			"keys": ev.Args[1],
		}), true
	default:
		return chromeEvent{}, false
	}
}

// WriteText renders the dump as a human-readable event log, one line per
// event, followed by the retained slow ops with their full windows. This is
// what `/debug/flight` and `hdnhbench -flight-out x.txt` print.
func WriteText(w io.Writer, d Dump) error {
	bw := bufio.NewWriter(w)
	labels := make(map[uint32]string, len(d.Rings))
	for _, ri := range d.Rings {
		labels[ri.ID] = fmt.Sprintf("%s/%d", ri.Label, ri.ID)
	}
	fmt.Fprintf(bw, "# flight dump: %d rings, %d events, %d slow ops\n",
		len(d.Rings), len(d.Events), len(d.Slow))
	for _, ev := range d.Events {
		writeEventLine(bw, labels, ev)
	}
	if len(d.Slow) > 0 {
		fmt.Fprintf(bw, "\n# slow ops (threshold-promoted windows, oldest first)\n")
		for i, so := range d.Slow {
			fmt.Fprintf(bw, "slow-op %d: %s -> %s on %s, start %v, took %v, %d events\n",
				i, so.Op, so.Out, labelFor(labels, so.Ring),
				time.Duration(so.Start), time.Duration(so.Dur), len(so.Events))
			for _, ev := range so.Events {
				fmt.Fprint(bw, "  ")
				writeEventLine(bw, labels, ev)
			}
		}
	}
	return bw.Flush()
}

func labelFor(labels map[uint32]string, id uint32) string {
	if l, ok := labels[id]; ok {
		return l
	}
	return fmt.Sprintf("ring/%d", id)
}

func writeEventLine(w io.Writer, labels map[uint32]string, ev Event) {
	ts := time.Duration(ev.TS)
	ring := labelFor(labels, ev.Ring)
	switch ev.Kind {
	case KindOpBegin:
		fmt.Fprintf(w, "%-14v %-12s %s begin\n", ts, ring, obs.Op(ev.A))
	case KindOpEnd:
		ra, rw := UnpackAccess(ev.Args[1])
		wa, ww := UnpackAccess(ev.Args[2])
		fl, fe := UnpackAccess(ev.Args[3])
		fmt.Fprintf(w, "%-14v %-12s %s %s in %v (nvm: %d reads/%d words, %d writes/%d words, %d flushes, %d fences)\n",
			ts, ring, obs.Op(ev.A), obs.Outcome(ev.B), time.Duration(ev.Args[0]),
			ra, rw, wa, ww, fl, fe)
	case KindProbe:
		fmt.Fprintf(w, "%-14v %-12s probe reads=%d\n", ts, ring, ev.Args[0])
	case KindRescan:
		fmt.Fprintf(w, "%-14v %-12s movement-hazard rescans=%d\n", ts, ring, ev.Args[0])
	case KindLockSpin:
		fmt.Fprintf(w, "%-14v %-12s lock spins=%d\n", ts, ring, ev.Args[0])
	case KindHotFill:
		verdict := "ok"
		if ev.A == 1 {
			verdict = "rejected"
		}
		fmt.Fprintf(w, "%-14v %-12s hot fill %s\n", ts, ring, verdict)
	case KindHotEvict:
		fmt.Fprintf(w, "%-14v %-12s hot evict\n", ts, ring)
	case KindDrainChunk:
		fmt.Fprintf(w, "%-14v %-12s drain chunk: %d buckets, %d moved, %v\n",
			ts, ring, ev.Args[1], ev.Args[2], time.Duration(ev.Args[0]))
	case KindResizeSwap:
		fmt.Fprintf(w, "%-14v %-12s resize swap gen %d in %v\n",
			ts, ring, ev.Args[1], time.Duration(ev.Args[0]))
	case KindResizeDone:
		fmt.Fprintf(w, "%-14v %-12s resize gen %d complete in %v\n",
			ts, ring, ev.Args[1], time.Duration(ev.Args[0]))
	case KindGCPhase:
		fmt.Fprintf(w, "%-14v %-12s gc %s seg %d: amount=%d in %v\n",
			ts, ring, GCPhase(ev.A), ev.Args[1], ev.Args[2], time.Duration(ev.Args[0]))
	case KindVLogSeg:
		fmt.Fprintf(w, "%-14v %-12s vlog seg %d -> state %d\n", ts, ring, ev.Args[0], ev.A)
	case KindRecoveryStep:
		fmt.Fprintf(w, "%-14v %-12s recovery %s: count=%d in %v\n",
			ts, ring, RecoveryStep(ev.A), ev.Args[1], time.Duration(ev.Args[0]))
	case KindGroupCommit:
		fmt.Fprintf(w, "%-14v %-12s group commit: %d keys, %v\n",
			ts, ring, ev.Args[1], time.Duration(ev.Args[0]))
	default:
		fmt.Fprintf(w, "%-14v %-12s event kind=%d\n", ts, ring, ev.Kind)
	}
}
