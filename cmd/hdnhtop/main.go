// Command hdnhtop is a live terminal view onto a running hdnhserve: one
// refreshing screen combining the health verdict (/healthz), operation
// rates and store shape (/metrics.json), and the hot-key sketch
// (/debug/heat, when the server runs with -heat).
//
//	hdnhtop -addr http://127.0.0.1:8080 -interval 1s
//
// Rates are first differences between successive scrapes, so the first
// frame shows gauges only. -once prints a single frame and exits (no
// escape codes), which is what you want in a script or a bug report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"hdnh/internal/heat"
	"hdnh/internal/obs"
)

// metricsDoc is the subset of /metrics.json hdnhtop renders.
type metricsDoc struct {
	Ops        map[string]map[string]uint64 `json:"ops"`
	Contended  uint64                       `json:"contended"`
	HitRatio   float64                      `json:"hot_hit_ratio"`
	GCWriteAmp float64                      `json:"gc_write_amplification"`
	// NVT slot reads over the walks the op counters imply is the OCF's
	// selectivity: about 1 when walks find their key, under 0.5 when they do
	// not, and far above either when the fingerprints of a bucket's records
	// stop differing. ProbeReadsPerWalk is the server's since-start value;
	// the two counters give the ratio between scrapes.
	ProbeReadsPerWalk float64 `json:"nvt_probe_reads_per_walk"`
	NVTProbes         uint64  `json:"nvt_probe_reads"`
	LookupRescans     uint64  `json:"lookup_rescans"`
	// The collector's cost and the appenders' queueing, as counters: records
	// read out of victims over segments recycled, and appends that waited for
	// an earlier one's acknowledgment.
	GCRecycles   uint64 `json:"gc_recycles"`
	GCVisited    uint64 `json:"gc_visited_records"`
	VLogAckWaits uint64 `json:"vlog_ack_waits"`
	NVM          struct {
		ReadWords  uint64 `json:"read_words"`
		WriteWords uint64 `json:"write_words"`
	} `json:"nvm"`
	Gauges obs.Gauges        `json:"gauges"`
	RESP   *obs.RESPSnapshot `json:"resp"`
}

// healthDoc is /healthz?format=json.
type healthDoc struct {
	Status     string `json:"status"`
	Conditions []struct {
		Name     string `json:"name"`
		Severity string `json:"severity"`
		Cause    string `json:"cause"`
	} `json:"conditions"`
	ShuttingDown bool `json:"shutting_down"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "hdnhserve HTTP base URL")
		interval = flag.Duration("interval", time.Second, "refresh period")
		once     = flag.Bool("once", false, "print one frame and exit (no screen clearing)")
		topN     = flag.Int("n", 10, "hot-key rows to show")
	)
	flag.Parse()
	base := strings.TrimSuffix(*addr, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	var prev *metricsDoc
	var prevAt time.Time
	for {
		frame, cur, at := render(client, base, prev, prevAt, *topN)
		if *once {
			fmt.Print(frame)
			return
		}
		// Home the cursor and clear to end of screen: repainting in place
		// flickers less than a full-screen erase.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		prev, prevAt = cur, at
		time.Sleep(*interval)
	}
}

// fetchJSON GETs url and decodes the body; non-2xx is an error except 404,
// reported as errNotFound so callers can render "disabled" rather than red.
var errNotFound = fmt.Errorf("not found")

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		return errNotFound
	}
	// /healthz answers 503 with a body once critical; the body is still the
	// document we want.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// render builds one frame and returns it with the scrape it rendered, so the
// caller can difference the next one against it.
func render(client *http.Client, base string, prev *metricsDoc, prevAt time.Time, topN int) (string, *metricsDoc, time.Time) {
	var b strings.Builder
	now := time.Now()
	refresh := "-"
	if !prevAt.IsZero() {
		refresh = time.Since(prevAt).Round(10 * time.Millisecond).String()
	}
	fmt.Fprintf(&b, "hdnhtop — %s    %s    refresh %s\n\n",
		base, now.Format("15:04:05"), refresh)

	var health healthDoc
	if err := fetchJSON(client, base+"/healthz?format=json", &health); err != nil {
		fmt.Fprintf(&b, "health: unreachable (%v)\n", err)
		return b.String(), nil, now
	}
	status := strings.ToUpper(health.Status)
	if health.ShuttingDown {
		status += "  [SHUTTING DOWN]"
	}
	fmt.Fprintf(&b, "health: %s\n", status)
	for _, c := range health.Conditions {
		fmt.Fprintf(&b, "  %-8s %-18s %s\n", c.Severity, c.Name, c.Cause)
	}
	b.WriteString("\n")

	var cur metricsDoc
	if err := fetchJSON(client, base+"/metrics.json", &cur); err != nil {
		fmt.Fprintf(&b, "metrics: unreachable (%v)\n", err)
		return b.String(), nil, now
	}

	// Rates are deltas against the previous scrape; the first frame has no
	// baseline, so rate() answers "-".
	dt := now.Sub(prevAt).Seconds()
	rate := func(curV, prevV uint64) string {
		if prev == nil || dt <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(curV-prevV)/dt)
	}
	opTotal := func(d *metricsDoc, op string) uint64 {
		var n uint64
		for _, v := range d.Ops[op] {
			n += v
		}
		return n
	}
	prevOp := func(op string) uint64 {
		if prev == nil {
			return 0
		}
		return opTotal(prev, op)
	}
	var prevErrs, curErrs uint64
	for op, outs := range cur.Ops {
		curErrs += outs["contended"] + outs["full"]
		if prev != nil {
			prevErrs += prev.Ops[op]["contended"] + prev.Ops[op]["full"]
		}
	}
	fmt.Fprintf(&b, "ops/s   get %-8s insert %-8s update %-8s delete %-8s errors %s\n",
		rate(opTotal(&cur, "get"), prevOp("get")),
		rate(opTotal(&cur, "insert"), prevOp("insert")),
		rate(opTotal(&cur, "update"), prevOp("update")),
		rate(opTotal(&cur, "delete"), prevOp("delete")),
		rate(curErrs, prevErrs))
	var prevR, prevW uint64
	if prev != nil {
		prevR, prevW = prev.NVM.ReadWords, prev.NVM.WriteWords
	}
	fmt.Fprintf(&b, "nvm/s   read %-10s write %-10s words    hot hit %.1f%%   gc amp %.2f\n",
		rate(cur.NVM.ReadWords, prevR), rate(cur.NVM.WriteWords, prevW),
		cur.HitRatio*100, cur.GCWriteAmp)
	// Like the rates, the filter line is the interval's; a filter that starts
	// failing on a long-lived server barely moves the since-start ratio, which
	// is all the first frame has.
	if prev == nil {
		fmt.Fprintf(&b, "filter  %.2f NVT slot reads per walk (since start)\n", cur.ProbeReadsPerWalk)
	} else {
		// obs.Snapshot.NVTWalks, from the JSON form.
		walks := func(d *metricsDoc) uint64 {
			return opTotal(d, "get") - d.Ops["get"]["hot_hit"] +
				opTotal(d, "insert") + opTotal(d, "update") + opTotal(d, "delete") + d.LookupRescans
		}
		perWalk := "-"
		if w := walks(&cur) - walks(prev); w > 0 {
			perWalk = fmt.Sprintf("%.2f", float64(cur.NVTProbes-prev.NVTProbes)/float64(w))
		}
		fmt.Fprintf(&b, "filter  %s NVT slot reads per walk\n", perWalk)
	}

	g := cur.Gauges
	resizing := "-"
	if g.Resizing > 0 {
		resizing = fmt.Sprintf("yes (%d buckets left)", g.DrainBucketsRemaining)
	}
	shards := g.Shards
	if shards == 0 {
		shards = 1
	}
	fmt.Fprintf(&b, "table   items %-10d load %-6.3f shards %-4d resizing %-22s epoch slots %d\n",
		g.Items, g.LoadFactor, shards, resizing, g.EpochSlotsLive)
	if g.VLogSegments > 0 {
		garbage := 0.0
		if g.VLogUsedWords > 0 {
			garbage = 1 - float64(g.VLogLiveWords)/float64(g.VLogUsedWords)
		}
		// Since start on the first frame, the interval's after it.
		var was metricsDoc
		if prev != nil {
			was = *prev
		}
		visited := "-"
		if n := cur.GCRecycles - was.GCRecycles; n > 0 {
			visited = fmt.Sprintf("%.1f", float64(cur.GCVisited-was.GCVisited)/float64(n))
		}
		fmt.Fprintf(&b, "vlog    free %d/%d segments   garbage %.1f%%   gc visited/recycle %s   ack waits/s %s\n",
			g.VLogFreeSegments, g.VLogSegments, garbage*100, visited, rate(cur.VLogAckWaits, was.VLogAckWaits))
	}
	for _, sh := range g.PerShard {
		if sh.Resizing != 0 || sh.LoadFactor >= 0.9 {
			fmt.Fprintf(&b, "  shard %-3d items %-9d load %-6.3f resizing %d (%d left)\n",
				sh.Shard, sh.Items, sh.LoadFactor, sh.Resizing, sh.DrainBucketsRemaining)
		}
	}
	if r := cur.RESP; r != nil {
		var prevCmds, curCmds uint64
		for _, n := range r.Commands {
			curCmds += n
		}
		if prev != nil && prev.RESP != nil {
			for _, n := range prev.RESP.Commands {
				prevCmds += n
			}
		}
		fmt.Fprintf(&b, "resp    conns %-6d in-flight %-6d cmds/s %s\n",
			r.ConnsOpen, r.InFlight, rate(curCmds, prevCmds))
		if r.WriteRuns > 0 {
			// Write batch shape: the run sizes the group-commit path turns
			// into one persist barrier each.
			fmt.Fprintf(&b, "writes  runs %-6d mean %-6.1f p50 %-4d p99 %-4d ops/run\n",
				r.WriteRuns, r.WriteRunLength.MeanNs, r.WriteRunLength.P50Ns, r.WriteRunLength.P99Ns)
		}
	}
	b.WriteString("\n")

	var hs heat.Snapshot
	switch err := fetchJSON(client, base+"/debug/heat", &hs); {
	case err == errNotFound:
		b.WriteString("hot keys: sampling disabled (run hdnhserve with -heat)\n")
	case err != nil:
		fmt.Fprintf(&b, "hot keys: unreachable (%v)\n", err)
	default:
		type row struct {
			heat.KeyCount
			shard int
		}
		var rows []row
		for _, sh := range hs.Shards {
			for _, kc := range sh.Top {
				rows = append(rows, row{kc, sh.Shard})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
		if len(rows) > topN {
			rows = rows[:topN]
		}
		fmt.Fprintf(&b, "hot keys (1 in %d sampled, top %d per shard)\n", hs.SampleEvery, hs.TopK)
		fmt.Fprintf(&b, "  %-40s %5s %12s %10s\n", "KEY", "SHARD", "~COUNT", "±ERR")
		for _, r := range rows {
			key := r.Key
			if len(key) > 40 {
				key = key[:37] + "..."
			}
			fmt.Fprintf(&b, "  %-40s %5d %12d %10d\n", printable(key), r.shard, r.Count, r.Err)
		}
		if len(rows) == 0 {
			b.WriteString("  (no sampled traffic yet)\n")
		}
	}
	return b.String(), &cur, now
}

// printable replaces control bytes so a binary key cannot corrupt the
// terminal it is being displayed on.
func printable(s string) string {
	return strings.Map(func(r rune) rune {
		if r < 0x20 || r == 0x7f {
			return '.'
		}
		return r
	}, s)
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hdnhtop [-addr URL] [-interval D] [-once] [-n N]\n")
		flag.PrintDefaults()
	}
}
