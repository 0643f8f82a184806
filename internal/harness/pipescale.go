package harness

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/resp"
	"hdnh/internal/resp/client"
	"hdnh/internal/serve"
)

// FigPipeScale measures what the binary wire protocol and per-connection
// pipelining buy over the HTTP key-value face (extension; no paper
// counterpart). One in-process store is served over both faces on loopback;
// a single client connection then runs a GET-only sweep: the HTTP /kv/
// baseline (one request per round trip, keep-alive), then RESP at pipeline
// depths 1, 8 and 64. Depth 1 isolates the framing cost (binary parse vs
// HTTP request machinery); the deeper rows add round-trip amortisation and
// server-side coalescing of each drained burst into one MultiGet run.
//
// Everything runs on loopback in one process, so the numbers are an upper
// bound on protocol overhead differences, not network behaviour; on a
// single vCPU client and server also contend for the same core.
func FigPipeScale(sc Scale) (*Experiment, error) {
	// The sweep is transport-bound, not store-bound: a modest record set
	// keeps preload out of the measurement, and the sequential HTTP
	// baseline gets a smaller op budget so a ~10k req/s loopback pace
	// doesn't dominate wall-clock (throughput is per-second either way).
	records := sc.Records
	if records > 20_000 {
		records = 20_000
	}
	respOps := sc.Ops
	if respOps > 60_000 {
		respOps = 60_000
	}
	httpOps := respOps
	if httpOps > 10_000 {
		httpOps = 10_000
	}

	opts := bigkv.DefaultOptions()
	opts.Table.InitBottomSegments = core.SizeBottomSegments(records, opts.Table.SegmentBuckets)
	opts.SegmentWords = 1 << 14
	opts.Segments = 64 // the 8 MB default log; far beyond this sweep's values
	words := autoDeviceWords(records, records) + opts.SegmentWords*opts.Segments
	cfg := nvm.DefaultConfig(words)
	if sc.Mode == nvm.ModeEmulate {
		cfg = nvm.EmulateConfig(words)
	}
	dev, err := nvm.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipescale: device: %w", err)
	}
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		return nil, fmt.Errorf("pipescale: store: %w", err)
	}
	defer st.Close()

	// HTTP face.
	hsrv := serve.New(serve.Options{Store: st})
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pipescale: http listen: %w", err)
	}
	httpSrv := &http.Server{Handler: hsrv.Handler()}
	httpDone := make(chan struct{})
	go func() { httpSrv.Serve(hl); close(httpDone) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		<-httpDone
		hsrv.Close()
	}()

	// RESP face on the same store.
	rsrv := resp.NewServer(resp.StoreBackend{St: st}, resp.Options{
		MaxValueBytes: serve.MaxValueBytes,
	})
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
	val := []byte("pipescale-value!") // 16 bytes, same payload on both faces

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
		Title:   "Wire protocol: GET throughput, HTTP /kv/ vs RESP pipeline depth",
		XLabel:  "transport",
		Columns: []string{"ops/s", "speedup vs HTTP"},
		Notes: []string{
			"one client connection on loopback, uniform GETs over the preloaded keys",
			fmt.Sprintf("HTTP measured over %d ops, RESP over %d (rates are per-second)", httpOps, respOps),
			"single-process measurement: client and server share the machine (and on 1 vCPU, the core)",
		},
	}

	// HTTP baseline: sequential keep-alive GETs against /kv/<key>.
	base := "http://" + hl.Addr().String() + "/kv/"
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	defer httpc.CloseIdleConnections()
	start := time.Now()
	for i := int64(0); i < httpOps; i++ {
		k := keys[int(i)%len(keys)]
		rsp, err := httpc.Get(base + url.PathEscape(string(k)))
		if err != nil {
			return nil, fmt.Errorf("pipescale: http get: %w", err)
		}
		io.Copy(io.Discard, rsp.Body)
		rsp.Body.Close()
		if rsp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("pipescale: http get %q: status %d", k, rsp.StatusCode)
		}
	}
	httpRate := float64(httpOps) / time.Since(start).Seconds()
	exp.addRow("HTTP /kv/", Cell{Label: "ops/s", Value: httpRate}, Cell{Label: "speedup vs HTTP", Value: 1})

	// RESP sweep: same connection, increasing pipeline depth.
	getCmd := []byte("GET")
	for _, depth := range []int{1, 8, 64} {
		start := time.Now()
		for lo := int64(0); lo < respOps; lo += int64(depth) {
			hi := lo + int64(depth)
			if hi > respOps {
				hi = respOps
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
		rate := float64(respOps) / time.Since(start).Seconds()
		exp.addRow(fmt.Sprintf("RESP depth=%d", depth),
			Cell{Label: "ops/s", Value: rate},
			Cell{Label: "speedup vs HTTP", Value: rate / httpRate})
	}
	return exp, nil
}
