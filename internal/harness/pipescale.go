package harness

import (
	"context"
	"fmt"
	"net"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/resp"
	"hdnh/internal/resp/client"
)

// FigPipeScale measures what per-connection pipelining buys on the RESP
// listener (extension; no paper counterpart). One in-process store is served
// on loopback; a single client connection then runs a GET-only sweep at
// pipeline depths 1, 8 and 64. Depth 1 (one command per round trip) is the
// baseline; the deeper rows add round-trip amortisation and server-side
// coalescing of each drained burst into one MultiGet run.
//
// Everything runs on loopback in one process, so the numbers show the
// protocol's own costs, not network behaviour; on a single vCPU client and
// server also contend for the same core.
func FigPipeScale(sc Scale) (*Experiment, error) {
	// The sweep is transport-bound, not store-bound: a modest record set
	// keeps preload out of the measurement.
	records := min(sc.Records, 20_000)
	ops := min(sc.Ops, 60_000)

	st, err := openBigKV(sc, records, func(o *bigkv.Options) {
		o.SegmentWords = 1 << 14
		o.Segments = 64 // the 8 MB default log; far beyond this sweep's values
	})
	if err != nil {
		return nil, fmt.Errorf("pipescale: store: %w", err)
	}
	defer st.Close()

	rsrv := resp.NewServer(resp.StoreBackend{St: st}, resp.Options{})
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pipescale: resp listen: %w", err)
	}
	respDone := make(chan error, 1)
	go func() { respDone <- rsrv.Serve(rl) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rsrv.Shutdown(ctx)
		cancel()
		<-respDone
	}()

	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("pk%012d", i))
	}
	val := []byte("pipescale-value!") // 16 bytes

	// Preload through the wire (pipelined SETs), so the RESP path is also
	// exercised for writes before the read sweep.
	cn, err := client.Dial(rl.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("pipescale: dial: %w", err)
	}
	defer cn.Close()
	const loadDepth = 64
	for lo := 0; lo < len(keys); lo += loadDepth {
		hi := lo + loadDepth
		if hi > len(keys) {
			hi = len(keys)
		}
		for _, k := range keys[lo:hi] {
			if err := cn.Send([]byte("SET"), k, val); err != nil {
				return nil, fmt.Errorf("pipescale: preload send: %w", err)
			}
		}
		if err := cn.Flush(); err != nil {
			return nil, fmt.Errorf("pipescale: preload flush: %w", err)
		}
		for range keys[lo:hi] {
			r, err := cn.Recv()
			if err != nil {
				return nil, fmt.Errorf("pipescale: preload recv: %w", err)
			}
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("pipescale: preload set: %w", err)
			}
		}
	}

	exp := &Experiment{
		ID:      "pipescale",
		Title:   "Wire protocol: RESP GET throughput by pipeline depth",
		XLabel:  "transport",
		Columns: []string{"ops/s", "speedup vs depth 1"},
		Notes: []string{
			fmt.Sprintf("one client connection on loopback, %d uniform GETs per depth over the preloaded keys", ops),
			"single-process measurement: client and server share the machine (and on 1 vCPU, the core)",
		},
	}

	// Same connection, increasing pipeline depth.
	getCmd := []byte("GET")
	var depth1Rate float64
	for _, depth := range []int{1, 8, 64} {
		start := time.Now()
		for lo := int64(0); lo < ops; lo += int64(depth) {
			hi := lo + int64(depth)
			if hi > ops {
				hi = ops
			}
			for i := lo; i < hi; i++ {
				if err := cn.Send(getCmd, keys[int(i)%len(keys)]); err != nil {
					return nil, fmt.Errorf("pipescale: resp send: %w", err)
				}
			}
			if err := cn.Flush(); err != nil {
				return nil, fmt.Errorf("pipescale: resp flush: %w", err)
			}
			for i := lo; i < hi; i++ {
				r, err := cn.Recv()
				if err != nil {
					return nil, fmt.Errorf("pipescale: resp recv: %w", err)
				}
				if r.Kind != client.ReplyBulk {
					return nil, fmt.Errorf("pipescale: GET %q: unexpected reply %v", keys[int(i)%len(keys)], r.Kind)
				}
			}
		}
		rate := float64(ops) / time.Since(start).Seconds()
		if depth == 1 {
			depth1Rate = rate
		}
		exp.addRow(fmt.Sprintf("RESP depth=%d", depth),
			Cell{Label: "ops/s", Value: rate},
			Cell{Label: "speedup vs depth 1", Value: rate / depth1Rate})
	}
	return exp, nil
}
