package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"hdnh/internal/batchrun"
	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/resp"
	"hdnh/internal/resp/client"
	"hdnh/internal/vlog"
)

// spec is one workload: what is loaded, who calls, and which phases run.
// Every workload walks the same life of a store — set up, serve, reopen,
// delete — so that every end-to-end metric exists on every workload; what
// differs is the serving phase the workload is named after.
type spec struct {
	name, why string
	records   int // loaded during set-up
	valueLen  int
	shards    int
	clients   int
	procs     int   // GOMAXPROCS the run's process sets itself; 0 leaves it alone
	presize   bool  // size the table for records up front
	wire      bool  // clients talk RESP over loopback
	devWords  int64 // about 1.5x what the workload allocates: the bump allocator never frees
	mix       mix
	// overhead is the seconds one untraced run takes on the reference host
	// beyond --seconds; the supervisor's deadline is built from it.
	overhead float64
	serve    func(w *world, seconds float64) error
}

const (
	burstLen = 16

	// Shares of --seconds the three timed phases of a run take. The first two
	// alternate over one window; the deletes follow the reopening.
	mainShare   = 0.60
	secondShare = 0.25
	deleteShare = 0.15

	// insert-grow is fixed work, because a table that stops growing a few
	// percent sooner or later may or may not have doubled once more, and
	// space, write cost and recovery time all jump with a doubling. These
	// rates keep it inside --seconds on the reference host; at 25 s the
	// 420,000 keys end between the doublings near 295,000 and 555,000.
	growInsertsPerSecond = 14000
	growBurstKeysPerSec  = 2800

	verifySample = 20000
)

var specs = []*spec{
	{
		name:    "get-hot",
		why:     "1M inline records, 2 clients Get: 90% zipfian hits, 10% absent keys; hot table and OCF do all the work, nvm/vlog/resp idle",
		records: 1_000_000, valueLen: 8, shards: 1, clients: 2, presize: true, devWords: 16 << 20,
		mix:      mix{zipfian: true, missPct: 10},
		overhead: 19, serve: serveKV,
	},
	{
		name:    "ycsb-a-logged",
		why:     "200k records of 128 B in the value log, 2 clients 50% Get 50% Put uniform; every read goes to NVM, commit protocol and GC dominate",
		records: 200_000, valueLen: 128, shards: 1, clients: 2, presize: true, devWords: 20 << 20,
		mix:      mix{writePct: 50},
		overhead: 9, serve: serveKV,
	},
	{
		name:     "insert-grow",
		why:      "empty default-size store, 1 client inserts fresh keys through 9 doublings, reads all back, deletes all; resize and drain dominate",
		valueLen: 8, shards: 1, clients: 1, devWords: 16 << 20,
		mix:      mix{inserts: true},
		overhead: 3, serve: serveGrow,
	},
	{
		name:    "resp-pipeline",
		why:     "RESP server on loopback over a 2-shard store, GOMAXPROCS 1, 2 connections send bursts of 16 (90% GET 10% SET); wire, batchrun and fan-out dominate",
		records: 200_000, valueLen: 8, shards: 2, clients: 2, procs: 1, presize: true, wire: true, devWords: 8 << 20,
		mix:      mix{writePct: 10},
		overhead: 6, serve: serveWire,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// keyCount is how many present keys a run at this length needs.
func (sp *spec) keyCount(seconds float64) int {
	if sp.records > 0 {
		return sp.records
	}
	n := int(seconds * (growInsertsPerSecond + growBurstKeysPerSec))
	return n - n%burstLen
}

// counter is a per-client count on its own cache line.
type counter struct {
	n int64
	_ [56]byte
}

// world is one set-up store with its inputs and clients.
type world struct {
	sp *spec
	tr *tracing

	dev  *nvm.Device
	opts bigkv.Options
	st   *bigkv.Store

	keys, absent keySet
	streams      [][]uint32
	sess         []*bigkv.Session // one per client

	srv       *resp.Server
	serveDone chan error
	conns     []*client.Conn

	puts       []counter // acknowledged Puts per client
	deletes    []counter // acknowledged Deletes per client
	logFull    []counter // ErrLogFull seen per client
	errReplies []counter // RESP error replies per client
	inserted   int       // keys put beyond the preload (insert-grow)

	load phaseStat // the preload, run as a phase
	res  *result
}

func (w *world) problem(format string, args ...any) { w.res.problem(format, args...) }

// runPhase runs p and counts its operations into the result.
func (w *world) runPhase(p phase) phaseStat { return w.count(p.run()) }

func (w *world) count(l phaseLog) phaseStat {
	st := l.stats()
	w.res.Attempted += st.attempted
	w.res.Failed += st.failed
	return st
}

// opErr counts a failed operation's error and keeps the first few.
func (w *world) opErr(c int, op string, err error) {
	if errors.Is(err, vlog.ErrLogFull) {
		w.logFull[c].n++
	}
	w.problem("%s: %v", op, err)
}

// build sets a store up: device, store, preload by one client, inputs and,
// for the wire workload, server and connections. The preload runs as a
// phase so its Put latencies are sampled like any other.
func (sp *spec) build(res *result, tr *tracing) (*world, error) {
	seed, seconds := res.Seed, res.Seconds
	w := &world{sp: sp, tr: tr, res: res}
	dev, err := nvm.New(nvm.EmulateConfig(sp.devWords))
	if err != nil {
		return nil, err
	}
	w.dev = dev
	w.opts = bigkv.DefaultOptions()
	w.opts.Table.Shards = sp.shards
	if sp.presize {
		w.opts.Table.InitBottomSegments = core.SizeBottomSegments(int64(sp.records), w.opts.Table.SegmentBuckets)
	}
	if tr != nil {
		w.opts.Table.Metrics = tr.metrics
	}
	if sp.valueLen > 13 {
		// Values live in the log: three times the live bytes plus 8
		// segments. At twice (the issue's sizing) two clients outrun the
		// collector's first pass over the preloaded segments, which are
		// still four fifths live: every run came within 5-13 free segments
		// of a full log, and one in thirty got there — a log with no free
		// segment cannot relocate anything either, so every later Put fails.
		// At three times the free count never falls 3 below the trigger.
		w.opts.SegmentWords = 1 << 14
		live := int64(sp.records) * vlog.RecordWords(sp.valueLen)
		w.opts.Segments = 3*live/w.opts.SegmentWords + 8
	}
	if w.st, err = bigkv.Create(dev, w.opts); err != nil {
		return nil, err
	}

	n := sp.keyCount(seconds)
	if n > streamLen {
		return nil, fmt.Errorf("%d keys do not fit a stream of %d entries: fewer --seconds", n, streamLen)
	}
	w.keys = newKeySet(seed, tagPresent, n)
	m := sp.mix
	m.records = n
	if m.missPct > 0 {
		m.absent = n
		w.absent = newKeySet(seed, tagAbsent, n)
	}
	z, err := m.newZipf()
	if err != nil {
		return nil, err
	}
	for c := 0; c < sp.clients; c++ {
		w.streams = append(w.streams, genStream(seed, c, m, z))
	}
	w.puts = make([]counter, sp.clients)
	w.deletes = make([]counter, sp.clients)
	w.logFull = make([]counter, sp.clients)
	w.errReplies = make([]counter, sp.clients)
	w.openSessions()

	w.load = w.runPhase(phase{name: "load", calls: []int{sp.records}, chunk: 256, every: sampleFast, fns: []callFn{w.loadFn()}})
	if sp.wire {
		if err := w.startServer(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *world) openSessions() {
	w.sess = make([]*bigkv.Session, w.sp.clients)
	for c := range w.sess {
		w.sess[c] = w.st.NewSession()
	}
}

func (w *world) closeSessions() {
	for _, s := range w.sess {
		s.Close()
	}
	w.sess = nil
}

func (w *world) startServer() error {
	var be resp.Backend = resp.StoreBackend{St: w.st}
	if w.tr != nil {
		w.tr.backend.st = w.st
		be = w.tr.backend
	}
	w.srv = resp.NewServer(be, resp.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.serveDone = make(chan error, 1)
	go func() { w.serveDone <- w.srv.Serve(ln) }()
	for c := 0; c < w.sp.clients; c++ {
		cn, err := client.Dial(ln.Addr().String(), 5*time.Second)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, cn)
		// One round trip before the next dial, so the server's sessions are
		// made in client order.
		if r, err := cn.Do([]byte("PING")); err != nil || r.Kind == client.ReplyError {
			return fmt.Errorf("ping on connection %d: %v %q", c, err, r.Str)
		}
	}
	return nil
}

func (w *world) stopServer() {
	if w.srv == nil {
		return
	}
	for _, cn := range w.conns {
		cn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		w.problem("server shutdown: %v", err)
	}
	if err := <-w.serveDone; err != nil {
		w.problem("server: %v", err)
	}
	w.srv, w.conns = nil, nil
}

// close tears the world down; errors here fail the run too.
func (w *world) close() {
	w.stopServer()
	w.closeSessions()
	if err := w.st.Close(); err != nil {
		w.problem("close: %v", err)
	}
}

// --- client calls, in process -------------------------------------------

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (w *world) put(c int, s *bigkv.Session, idx int, buf []byte, ver uint8) int {
	fillValue(buf, uint32(idx), ver)
	if err := s.Put(w.keys.at(idx), buf); err != nil {
		w.opErr(c, "put", err)
		return 1
	}
	w.puts[c].n++
	return 0
}

func (w *world) get(c int, s *bigkv.Session, idx int) int {
	v, ok, err := s.Get(w.keys.at(idx))
	if err != nil {
		w.opErr(c, "get", err)
		return 1
	}
	return b2i(!ok || !checkValue(v, uint32(idx), w.sp.valueLen))
}

func (w *world) loadFn() callFn {
	s := w.sess[0]
	buf := make([]byte, w.sp.valueLen)
	return func(i int) (kind, int, int) { return kWrite, 1, w.put(0, s, i, buf, 0) }
}

// streamFn is the workload's own mix, one operation per call.
func (w *world) streamFn(c int) callFn {
	s, stream := w.sess[c], w.streams[c]
	buf := make([]byte, w.sp.valueLen)
	var ver uint8
	return func(i int) (kind, int, int) {
		e := stream[i%streamLen]
		idx := int(e & idxMask)
		switch {
		case e&flagWrite != 0:
			ver++
			return kWrite, 1, w.put(c, s, idx, buf, ver)
		case e&flagAbsent != 0:
			_, ok, err := s.Get(w.absent.at(idx))
			if err != nil {
				w.opErr(c, "get absent", err)
			}
			return kRead, 1, b2i(ok || err != nil)
		default:
			return kRead, 1, w.get(c, s, idx)
		}
	}
}

// burstFn is the same mix sixteen operations at a time through
// batchrun.Execute: a burst as the wire's executor would run it, without
// the wire.
func (w *world) burstFn(c int) callFn {
	s, stream := w.sess[c], w.streams[c]
	ops := make([]batchrun.Op, burstLen)
	res := make([]batchrun.Result, burstLen)
	bufs := make([]byte, burstLen*w.sp.valueLen)
	var ver uint8
	return func(i int) (kind, int, int) {
		ver++
		for j := range ops {
			e := stream[(i*burstLen+j)%streamLen]
			idx := int(e & idxMask)
			switch {
			case e&flagWrite != 0:
				buf := bufs[j*w.sp.valueLen : (j+1)*w.sp.valueLen]
				fillValue(buf, uint32(idx), ver)
				ops[j] = batchrun.Op{Kind: batchrun.Put, Key: w.keys.at(idx), Value: buf}
			case e&flagAbsent != 0:
				ops[j] = batchrun.Op{Kind: batchrun.Get, Key: w.absent.at(idx)}
			default:
				ops[j] = batchrun.Op{Kind: batchrun.Get, Key: w.keys.at(idx)}
			}
		}
		batchrun.Execute(s, ops, res, nil)
		failed := 0
		for j, r := range res {
			e := stream[(i*burstLen+j)%streamLen]
			switch {
			case r.Err != nil:
				w.opErr(c, "burst", r.Err)
				failed++
			case e&flagWrite != 0:
				w.puts[c].n++
			case e&flagAbsent != 0:
				failed += b2i(r.Found)
			default:
				failed += b2i(!r.Found || !checkValue(r.Value, e&idxMask, w.sp.valueLen))
			}
		}
		return kBurst, burstLen, failed
	}
}

// deleteFn has client c delete keys c, c+clients, c+2*clients, ...
func (w *world) deleteFn(c int) callFn {
	s := w.sess[c]
	return func(i int) (kind, int, int) {
		if err := s.Delete(w.keys.at(c + i*w.sp.clients)); err != nil {
			w.opErr(c, "delete", err)
			return kDelete, 1, 1
		}
		w.deletes[c].n++
		return kDelete, 1, 0
	}
}

// deleteCalls is how many keys of the first n fall to each client.
func (w *world) deleteCalls(n int) []int {
	calls := make([]int, w.sp.clients)
	for c := range calls {
		calls[c] = (n - c + w.sp.clients - 1) / w.sp.clients
	}
	return calls
}

func (w *world) perClient(fn func(c int) callFn) []callFn {
	fns := make([]callFn, w.sp.clients)
	for c := range fns {
		fns[c] = fn(c)
	}
	return fns
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// --- the three serving shapes -------------------------------------------

// serveKV: a loaded store called in process (get-hot, ycsb-a-logged).
func serveKV(w *world, seconds float64) error {
	main, burst := w.window(
		&phase{name: "main", dur: secs(seconds * mainShare), chunk: 256, every: sampleFast, fns: w.perClient(w.streamFn)},
		&phase{name: "burst", dur: secs(seconds * secondShare), chunk: 16, every: sampleAll, fns: w.perClient(w.burstFn)})
	w.readProbe()
	del, err := w.reopenAndDelete(seconds)
	if err != nil {
		return err
	}
	write := main
	if w.sp.mix.writePct == 0 {
		write = w.load // a read-only mix: the only writes are the preload's
	}
	w.report(main, main, write, burst, del)
	return nil
}

// reopenAndDelete is how a loaded workload ends: space and write cost at
// peak, recovery, a check that what was acknowledged is still there, and
// the timed deletes.
func (w *world) reopenAndDelete(seconds float64) (phaseStat, error) {
	w.peak()
	if err := w.reopen(); err != nil {
		return phaseStat{}, err
	}
	w.verify(w.sp.records)
	return w.runPhase(phase{name: "delete", dur: secs(seconds * deleteShare), calls: w.deleteCalls(w.sp.records), chunk: 256, every: sampleFast, fns: w.perClient(w.deleteFn)}), nil
}

// serveGrow: an empty store one client grows, reads back and empties. Its
// stream writes fresh keys in order, first one by one, then in bursts.
func serveGrow(w *world, seconds float64) error {
	nBurst := int(seconds*growBurstKeysPerSec) / burstLen * burstLen
	nSingle := w.keys.n - nBurst
	main, burst := w.window(
		&phase{name: "main", calls: []int{nSingle}, chunk: 64, every: sampleFast, fns: w.perClient(w.streamFn)},
		&phase{name: "burst", first: []int{nSingle / burstLen}, calls: []int{nBurst / burstLen}, chunk: 16, every: sampleAll, fns: w.perClient(w.burstFn)})
	w.inserted = w.keys.n
	w.peak()
	if err := w.reopen(); err != nil {
		return err
	}
	// Every acknowledged insert must be readable from the recovered store:
	// one pass over all keys, cold, then more passes until the clock says
	// stop — one pass alone is over in 0.15 s, too short to time.
	s := w.sess[0]
	readAll := func(i int) (kind, int, int) { return kRead, 1, w.get(0, s, i%w.keys.n) }
	before := s.NVMStats()
	w.runPhase(phase{name: "readback", calls: []int{w.keys.n}, chunk: 256, every: sampleFast, fns: []callFn{readAll}})
	if w.tr != nil {
		w.res.Layers["nvm.block_reads_per_read"] = float64(s.NVMStats().Sub(before).MediaBlockReads) / float64(w.keys.n)
	}
	read := w.runPhase(phase{name: "read", dur: secs(seconds * secondShare), chunk: 256, every: sampleFast, fns: []callFn{readAll}})
	del := w.runPhase(phase{name: "delete", calls: w.deleteCalls(w.keys.n), chunk: 256, every: sampleFast, fns: w.perClient(w.deleteFn)})
	w.report(main, read, main, burst, del)
	return nil
}

// serveWire: a loaded store behind the RESP server on loopback. Only what
// the workload is about crosses the wire — the bursts, and in a traced run a
// short depth-1 phase; single operations and deletes run in process on the
// same two-shard store, while the server idles. A depth-1 round trip is four
// goroutine wake-ups across two cores, which on a shared host measures the
// neighbours more than the store.
func serveWire(w *world, seconds float64) error {
	main, single := w.window(
		&phase{name: "main", dur: secs(seconds * mainShare), chunk: 16, every: sampleAll, fns: w.perClient(w.wireBurstFn)},
		&phase{name: "single", dur: secs(seconds * secondShare), chunk: 256, every: sampleFast, fns: w.perClient(w.streamFn)})
	if w.tr != nil {
		w.readProbe()
		depth1 := w.runPhase(phase{name: "depth1", dur: secs(seconds * secondShare), chunk: 64, every: sampleAll, fns: w.perClient(w.wireSingleFn)})
		w.res.Layers["resp.depth1_rtt_us"] = depth1.lat[kRead].p50us
	}
	del, err := w.reopenAndDelete(seconds)
	if err != nil {
		return err
	}
	w.report(main, single, single, main, del)
	return nil
}

// --- client calls, over the wire ----------------------------------------

var cmdGet, cmdSet = []byte("GET"), []byte("SET")

func (w *world) recv(c int, cn *client.Conn) (client.Reply, bool) {
	r, err := cn.Recv()
	if err != nil {
		w.problem("recv on connection %d: %v", c, err)
		return r, false
	}
	if r.Kind == client.ReplyError {
		w.errReplies[c].n++
		w.problem("error reply on connection %d: %s", c, r.Str)
		return r, false
	}
	return r, true
}

// wireBurstFn sends sixteen commands, flushes once, and reads sixteen
// replies.
func (w *world) wireBurstFn(c int) callFn {
	cn, stream := w.conns[c], w.streams[c]
	buf := make([]byte, w.sp.valueLen)
	var ver uint8
	return func(i int) (kind, int, int) {
		ver++
		for j := 0; j < burstLen; j++ {
			e := stream[(i*burstLen+j)%streamLen]
			key := w.keys.at(int(e & idxMask))
			if e&flagWrite != 0 {
				fillValue(buf, e&idxMask, ver)
				cn.Send(cmdSet, key, buf)
			} else {
				cn.Send(cmdGet, key)
			}
		}
		if err := cn.Flush(); err != nil {
			w.problem("flush on connection %d: %v", c, err)
			return kBurst, burstLen, burstLen
		}
		failed := 0
		for j := 0; j < burstLen; j++ {
			e := stream[(i*burstLen+j)%streamLen]
			r, ok := w.recv(c, cn)
			switch {
			case !ok:
				failed++
			case e&flagWrite != 0:
				if r.Kind == client.ReplySimple {
					w.puts[c].n++
				} else {
					failed++
				}
			default:
				failed += b2i(r.Kind != client.ReplyBulk || !checkValue(r.Bulk, e&idxMask, w.sp.valueLen))
			}
		}
		return kBurst, burstLen, failed
	}
}

// wireSingleFn is the same mix one command per round trip.
func (w *world) wireSingleFn(c int) callFn {
	cn, stream := w.conns[c], w.streams[c]
	buf := make([]byte, w.sp.valueLen)
	var ver uint8
	return func(i int) (kind, int, int) {
		// Continue where the bursts would not reach soon: the far half.
		e := stream[(streamLen/2+i)%streamLen]
		key := w.keys.at(int(e & idxMask))
		if e&flagWrite != 0 {
			ver++
			fillValue(buf, e&idxMask, ver)
			cn.Send(cmdSet, key, buf)
		} else {
			cn.Send(cmdGet, key)
		}
		if err := cn.Flush(); err != nil {
			w.problem("flush on connection %d: %v", c, err)
			return kRead, 1, 1
		}
		r, ok := w.recv(c, cn)
		if e&flagWrite != 0 {
			if ok && r.Kind == client.ReplySimple {
				w.puts[c].n++
				return kWrite, 1, 0
			}
			return kWrite, 1, 1
		}
		return kRead, 1, b2i(!ok || r.Kind != client.ReplyBulk || !checkValue(r.Bulk, e&idxMask, w.sp.valueLen))
	}
}

// --- shared steps -------------------------------------------------------

func sum(cs []counter) int64 {
	var n int64
	for i := range cs {
		n += cs[i].n
	}
	return n
}

// clientNVM sums the device traffic of the sessions the clients' calls run
// on, in a traced run. Over the wire those are the server's, which the
// traced backend holds.
func (w *world) clientNVM() nvm.Stats {
	if w.sp.wire {
		return w.tr.backend.nvmStats()
	}
	var total nvm.Stats
	for _, s := range w.sess {
		total.Add(s.NVMStats())
	}
	return total
}

// window is the serving part of a run: the phase the workload is named
// after and a second one, alternated in rounds so that both span the whole
// window. In a traced run the main phase's calls are recorded as spans and
// the device counts around its turns are summed.
func (w *world) window(main, second *phase) (phaseStat, phaseStat) {
	rounds := nSlices
	if second.dur > 0 {
		rounds = max(1, min(nSlices, int(second.dur/minSliceTime)))
	}
	if w.tr == nil {
		logs := alternate(rounds, main, second)
		return w.count(logs[0]), w.count(logs[1])
	}
	var d nvm.Stats
	var flushes, writes int64
	var nvm0 nvm.Stats
	main.trace = w.tr.client
	main.begin = func() {
		if w.tr.backend != nil {
			w.tr.backend.on.Store(true)
		}
		nvm0 = w.clientNVM()
		flushes -= w.dev.TotalFlushes()
		writes -= sum(w.puts)
	}
	main.end = func() {
		if w.tr.backend != nil {
			w.tr.backend.on.Store(false)
		}
		d.Add(w.clientNVM().Sub(nvm0))
		flushes += w.dev.TotalFlushes()
		writes += sum(w.puts)
	}
	logs := alternate(rounds, main, second)
	st := w.count(logs[0])
	L := w.res.Layers
	L["nvm.modeled_ns_per_op"] = float64(d.ModeledNanos) / float64(st.attempted)
	if writes > 0 {
		L["nvm.device_flushed_lines_per_write"] = float64(flushes) / float64(writes)
	}
	if w.tr.backend != nil {
		calls, busy := w.tr.backend.totals()
		var bursts int64
		var rtt time.Duration
		for _, b := range w.tr.client.bufs {
			bursts += b.calls[kBurst]
			rtt += b.busy[kBurst]
		}
		L["resp.backend_busy_ns_per_op"] = float64(busy) / float64(st.attempted)
		L["resp.wire_self_ns_per_op"] = float64(rtt-busy) / float64(st.attempted)
		L["resp.backend_calls_per_burst"] = float64(calls) / float64(bursts)
		w.res.Info["resp.burst_rtt_ns_per_op"] = float64(rtt) / float64(st.attempted)
	}
	return st, w.count(logs[1])
}

// peak takes the space and write cost at the point of most live data:
// after the serving phases, before anything is deleted.
func (w *world) peak() {
	live := int64(w.sp.records + w.inserted)
	if got := w.st.Count(); got != live {
		w.problem("count at peak: %d, want %d", got, live)
	}
	pair := int64(keyLen + w.sp.valueLen)
	M := w.res.Metrics
	M["space_amp"] = float64((w.dev.Words()-w.dev.FreeWords())*nvm.WordBytes) / float64(live*pair)
	M["write_amp"] = float64(w.dev.TotalFlushes()*nvm.CachelineBytes) / float64(sum(w.puts)*pair)
	w.res.Info["live_records"] = float64(live)
	w.res.Info["device_words_used"] = float64(w.dev.Words() - w.dev.FreeWords())
	var recycles int64
	for _, log := range w.st.Logs() {
		recycles += log.Recycles()
	}
	w.res.Info["gc_recycles"] = float64(recycles)
}

const (
	minReopens = 5
	maxReopens = 15
)

// reopen closes the store and opens it again, five times and then until the
// Opens add up to a second or fifteen are done: a small store opens in 60 ms,
// and five of those are over before a neighbour's burst is. recover_s is the
// median Open.
func (w *world) reopen() error {
	w.stopServer()
	w.closeSessions()
	var times []float64
	var total float64
	for len(times) < minReopens || (total < 1 && len(times) < maxReopens) {
		if err := w.st.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		t0 := time.Now()
		st, err := bigkv.Open(w.dev, w.opts)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
		w.st = st
	}
	w.res.Metrics["recover_s"] = median(times)
	w.res.Info["reopens"] = float64(len(times))
	w.openSessions()
	return nil
}

// verify reads a spread sample of the first n keys from the current store:
// keys the clients deleted must be absent, all others present and whole.
// Client c deletes keys c, c+clients, ... in order, so key i is gone iff
// i/clients is below what client i%clients got through.
func (w *world) verify(n int) {
	s := w.sess[0]
	step := max(1, n/verifySample)
	for i := 0; i < n; i += step {
		deleted := int64(i/w.sp.clients) < w.deletes[i%w.sp.clients].n
		v, ok, err := s.Get(w.keys.at(i))
		w.res.Attempted++
		switch {
		case err != nil:
			w.problem("verify key %d: %v", i, err)
		case deleted && !ok, !deleted && ok && checkValue(v, uint32(i), w.sp.valueLen):
			continue
		default:
			w.problem("verify key %d: found=%v, deleted=%v", i, ok, deleted)
		}
		w.res.Failed++
	}
}

// finish runs the gates every workload ends with, on the quiet store.
func (w *world) finish() {
	n := w.sp.records + w.inserted
	w.verify(n)
	if want, got := int64(n)-sum(w.deletes), w.st.Count(); got != want {
		w.problem("count at end: %d, want %d", got, want)
	}
	w.closeSessions()
	if w.tr != nil {
		w.layerCounters()
	}
	for _, err := range w.st.Index().CheckInvariants() {
		w.problem("invariant: %v", err)
	}
	if err := w.st.AuditLiveness(); err != nil {
		w.problem("liveness: %v", err)
	}
	if n := sum(w.logFull); n > 0 {
		w.problem("%d operations saw ErrLogFull", n)
	}
	w.res.Info["log_full_errors"] = float64(sum(w.logFull))
	w.res.Info["error_replies"] = float64(sum(w.errReplies))
}

// report fills the end-to-end metrics from the phases that carry them.
func (w *world) report(main, read, write, burst, del phaseStat) {
	I := w.res.Info
	w.res.Metrics["ops_per_s"] = main.opsPerS
	I["delete_ops_per_s"] = del.opsPerS
	r, wr, b := read.lat[kRead], write.lat[kWrite], burst.lat[kBurst]
	for name, l := range map[string]latStat{"read": r, "write": wr, "rtt": b} {
		I[name+"_p50_us"], I[name+"_p99_us"], I[name+"_p999_us"], I[name+"_samples"] = l.p50us, l.p99us, l.p999us, float64(l.samples)
	}
	I["main_ops_per_s_whole"] = float64(main.attempted) / main.elapsed.Seconds()
	I["main_elapsed_s"] = main.elapsed.Seconds()
	for _, p := range []phaseStat{main, read, write, burst, del} {
		I[p.name+"_ops"] = float64(p.attempted)
	}
}

// readProbe replays the reads of client 0's stream on one session after
// the main phase of a traced run: block reads per read, with no writer's
// reads mixed in.
func (w *world) readProbe() {
	if w.tr == nil {
		return
	}
	const probeReads = 100000
	s, reads := w.sess[0], 0
	before := s.NVMStats()
	for _, e := range w.streams[0] {
		if reads == probeReads {
			break
		}
		if e&flagWrite != 0 {
			continue
		}
		keys := w.keys
		if e&flagAbsent != 0 {
			keys = w.absent
		}
		if _, _, err := s.Get(keys.at(int(e & idxMask))); err != nil {
			w.opErr(0, "read probe", err)
		}
		reads++
	}
	w.res.Layers["nvm.block_reads_per_read"] = float64(s.NVMStats().Sub(before).MediaBlockReads) / float64(reads)
}

// layerCounters reads what the store counted about itself over the traced
// run, set-up included, once every session has published its counts.
func (w *world) layerCounters() {
	s := w.st.MetricsSnapshot()
	L := w.res.Layers
	var gets, writes uint64
	for _, n := range s.Ops[obs.OpGet] {
		gets += n
	}
	for _, op := range []obs.Op{obs.OpInsert, obs.OpUpdate, obs.OpDelete} {
		writes += s.Ops[op][obs.OutOK]
	}
	L["core.hot_hit_ratio"] = ratio(float64(s.Ops[obs.OpGet][obs.OutHotHit]), float64(gets))
	L["core.expansions"] = float64(s.Expansions)
	L["core.expansion_total_ms"] = float64(s.ExpansionNanos) / 1e6
	L["core.expansion_swap_total_us"] = float64(s.ExpansionSwapNanos) / 1e3
	L["core.drain_records_moved"] = float64(s.DrainRecordsMoved)
	L["core.lookup_rescans"] = float64(s.LookupRescans)
	L["core.lock_spins"] = float64(s.Spins)
	L["core.bg_applies_per_write"] = ratio(float64(s.BGApplies), float64(writes))
	L["bigkv.gc_recycles"] = float64(s.GCRecycles)
	L["bigkv.gc_copy_ratio"] = ratio(float64(s.GCRelocatedWords), float64(s.VLogAppendWords))
	L["bigkv.gc_raced"] = float64(s.GCRaced)
	L["bigkv.log_full_errors"] = float64(sum(w.logFull))
	L["resp.error_replies"] = float64(sum(w.errReplies))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// run is one run of the workload: set up setups times (setup_s is the
// median), serve on the last store, and gate.
func (sp *spec) run(seed uint64, seconds float64, setups int, tr *tracing) (*result, error) {
	res := newResult(sp.name, seed, seconds, tr != nil)
	res.Info["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	var w *world
	times := make([]float64, setups)
	for i := range times {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if w, err = sp.build(res, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(t0).Seconds()
	}
	res.Metrics["setup_s"] = median(times)
	if err := sp.serve(w, seconds); err != nil {
		return nil, err
	}
	w.finish()
	w.close()
	if tr != nil {
		f := tr.file(sp.name, seed)
		res.trace = &f
	}
	return res, nil
}
