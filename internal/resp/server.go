package resp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdnh/internal/batchrun"
	"hdnh/internal/bigkv"
	"hdnh/internal/flight"
	"hdnh/internal/kv"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
	"hdnh/internal/vlog"
)

// BackendSession is one connection's handle onto the store: the batch
// surface plus lifecycle. *bigkv.Session satisfies it directly; tests
// inject fakes to script mid-pipeline verdicts like ErrContended.
type BackendSession interface {
	batchrun.Executor
	// SyncObs publishes session-local device counters to the shared
	// recorder; the connection calls it once per burst.
	SyncObs()
	// Close releases the session (epoch slots, tracer handles).
	Close() error
}

// Backend mints one session per accepted connection.
type Backend interface {
	NewSession() BackendSession
}

// StoreBackend adapts *bigkv.Store to the Backend interface (Go does not
// convert the concrete NewSession return type automatically).
type StoreBackend struct{ St *bigkv.Store }

// NewSession implements Backend.
func (b StoreBackend) NewSession() BackendSession { return b.St.NewSession() }

// Options tunes a Server. The zero value is usable.
type Options struct {
	// PipelineDepth is the most commands one burst executes before its
	// replies are written: however much a client pipelines, the connection
	// parses this many, runs them, answers, and only then goes on. Deeper
	// bursts give batchrun longer stretches to coalesce at the cost of
	// reply latency and per-connection memory. Default 128.
	PipelineDepth int
	// MaxValueBytes caps one bulk string (values and, transitively, keys).
	// Default 64 KiB.
	MaxValueBytes int
	// MaxArgs caps one command's argument count. Default DefaultMaxArgs.
	MaxArgs int
	// Info, when non-nil, renders the INFO command's reply: Redis-style
	// CRLF key:value lines under # Section headers. ok=false means the
	// requested section is unknown (the command answers an error reply and
	// the connection lives on). nil falls back to a minimal built-in
	// Server section, so INFO never breaks a redis-cli session. The serve
	// package's Server.Info is the intended provider.
	Info func(section string) (string, bool)
	// Metrics, when non-nil, receives connection/command/run counters.
	Metrics *obs.RESPMetrics
	// Flight, when non-nil, receives per-run operation spans.
	Flight *flight.Recorder
	// Log, when non-nil, receives connection lifecycle and error lines.
	Log *slog.Logger
}

func (o *Options) fill() {
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 128
	}
	if o.MaxValueBytes <= 0 {
		o.MaxValueBytes = 64 << 10
	}
	if o.MaxArgs <= 0 {
		o.MaxArgs = DefaultMaxArgs
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// maxTracers bounds the pool of flight tracer handles shared by connections.
// Recorder.Handle allocates a permanent ring, so handles must be pooled, not
// minted per connection; connections beyond the pool trace nothing (a nil
// handle).
const maxTracers = 8

// Server accepts RESP connections and serves them against a Backend.
type Server struct {
	be   Backend
	opts Options

	draining atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	tracerMu    sync.Mutex
	tracerFree  []*flight.Handle
	tracersMade int

	// testHookRead, when non-nil, runs on a connection's goroutine each time
	// it is about to block in Read — past the previous burst's draining
	// check. Tests use it to know a connection is parked. Always nil in
	// production.
	testHookRead func()
}

// NewServer builds a Server; opts fields left zero take their defaults.
func NewServer(be Backend, opts Options) *Server {
	opts.fill()
	return &Server{
		be:        be,
		opts:      opts,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// getTracer leases a flight handle from the bounded pool, or nil when the
// pool is exhausted or tracing is off.
func (s *Server) getTracer() *flight.Handle {
	if s.opts.Flight == nil {
		return nil
	}
	s.tracerMu.Lock()
	defer s.tracerMu.Unlock()
	if n := len(s.tracerFree); n > 0 {
		tr := s.tracerFree[n-1]
		s.tracerFree = s.tracerFree[:n-1]
		return tr
	}
	if s.tracersMade < maxTracers {
		s.tracersMade++
		return s.opts.Flight.Handle(fmt.Sprintf("resp-%d", s.tracersMade))
	}
	return nil
}

func (s *Server) putTracer(tr *flight.Handle) {
	if tr == nil {
		return
	}
	s.tracerMu.Lock()
	s.tracerFree = append(s.tracerFree, tr)
	s.tracerMu.Unlock()
}

// Serve accepts connections on l until the listener is closed (by Shutdown
// or Close). It returns nil on orderly shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("resp: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

// Shutdown stops accepting, lets in-flight pipelines drain, and closes
// connections. Busy connections finish their current burst and close; idle
// connections are force-closed when ctx expires (pass an already-expired
// ctx for immediate teardown).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close tears the server down immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// Buffer sizes a connection starts with and returns to when idle. The read
// buffer holds one protocol line at least; a command that needs more grows
// it, and it shrinks back once everything in it has been consumed.
const (
	readBufBytes  = maxLineBytes
	replyBufBytes = 16 << 10
)

// command is one parsed client command of the burst being executed.
type command struct {
	kind obs.RESPCmd
	// lo and hi bound the command's arguments in conn.argv, name first.
	lo, hi int
	// errMsg, when non-empty, is a command-level error found while
	// classifying (bad arity, oversized key); the command is answered with
	// it and never reaches the store.
	errMsg string
	// failed records that the reply was an error reply, for the metrics.
	failed bool
}

// conn is one connection's state. Its one goroutine reads, parses, executes
// and writes, in that order, so nothing here is shared.
type conn struct {
	s    *Server
	nc   net.Conn
	sess BackendSession
	tr   *flight.Handle // nil when not tracing
	run  batchrun.Runner

	// in[r:w] is received and not yet parsed; need is the least w-r at which
	// another parse can get further.
	in         []byte
	r, w, need int
	// out collects the burst's replies for one Write.
	out []byte

	// argv holds every argument of the burst, aliasing in; cmds index it.
	argv [][]byte
	cmds []command
	// ops are the GET/SET/single-key DEL commands waiting for the next
	// command that cannot join them (or the burst's end); results line up
	// with ops.
	ops     []batchrun.Op
	results []batchrun.Result
	// keys and vals are MSET's scratch.
	keys, vals [][]byte
	// spanBegin is the open batchrun run's flight-span token.
	spanBegin int64
}

func newConn(s *Server, nc net.Conn, sess BackendSession, tr *flight.Handle) *conn {
	return &conn{
		s: s, nc: nc, sess: sess, tr: tr,
		in: make([]byte, readBufBytes), need: 1,
		out: make([]byte, 0, replyBufBytes),
	}
}

// serveConn runs one connection on the calling goroutine: read what the
// socket holds, parse every whole command in place, execute up to
// PipelineDepth of them, write their replies with one Write, repeat. Every
// parsed command is counted in flight until it is served or, when the write
// fails, dropped.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()

	m := s.opts.Metrics
	m.ConnOpened()
	defer m.ConnClosed()

	sess := s.be.NewSession()
	defer sess.Close()

	tr := s.getTracer()
	defer s.putTracer(tr)

	c := newConn(s, nc, sess, tr)
	// arrived is when the Read that completed the burst returned: its
	// commands arrive together and leave together, so one pair of clock
	// reads times them all. The clock is read only for the metrics.
	var arrived time.Time
	for {
		perr := c.parseBurst()
		if len(c.cmds) == 0 && perr == nil {
			if err := c.fill(); err != nil {
				return
			}
			if m != nil {
				arrived = time.Now()
			}
			continue
		}
		m.Enqueued(len(c.cmds))
		c.execute()
		if perr != nil {
			m.ProtoError()
			c.out = appendError(c.out, "ERR Protocol error: "+perr.Msg)
		}
		m.Flush()
		sess.SyncObs()
		_, err := nc.Write(c.out)
		if c.out = c.out[:0]; cap(c.out) > replyBufBytes {
			c.out = make([]byte, 0, replyBufBytes)
		}
		if err != nil {
			m.Dropped(len(c.cmds))
			return
		}
		if m != nil {
			d := time.Since(arrived)
			for i := range c.cmds {
				m.Served(c.cmds[i].kind, c.cmds[i].failed, d)
			}
		}
		quit := len(c.cmds) > 0 && c.cmds[len(c.cmds)-1].kind == obs.RESPQuit
		if quit || perr != nil || s.draining.Load() {
			return
		}
	}
}

// parseBurst parses commands off in[r:w] into cmds until the buffer runs out
// of whole commands, PipelineDepth is reached, or a command ends the
// connection: QUIT is the burst's last command, a framing violation is
// returned. Nothing behind either is parsed, so nothing behind either is
// ever in flight.
func (c *conn) parseBurst() *ProtoError {
	c.cmds, c.argv = c.cmds[:0], c.argv[:0]
	o := &c.s.opts
	for len(c.cmds) < o.PipelineDepth && c.w-c.r >= c.need {
		lo := len(c.argv)
		argv, n, need, perr := parse(c.in[c.r:c.w], c.argv, o.MaxArgs, o.MaxValueBytes)
		if perr != nil {
			return perr
		}
		if n == 0 {
			c.need = need
			break
		}
		c.argv, c.need = argv, 1
		c.r += n
		if len(argv) == lo { // empty inline line
			continue
		}
		cm := c.s.classify(argv[lo:])
		cm.lo, cm.hi = lo, len(argv)
		c.cmds = append(c.cmds, cm)
		if cm.kind == obs.RESPQuit {
			break
		}
	}
	return nil
}

// fill reads once from the socket behind the unparsed bytes, first making
// room for need of them. It runs only between bursts, when no argument
// aliases the buffer.
func (c *conn) fill() error {
	switch {
	case c.r == c.w:
		c.r, c.w = 0, 0
		if len(c.in) > readBufBytes {
			c.in = make([]byte, readBufBytes)
		}
	case c.r+c.need > len(c.in):
		unparsed := c.in[c.r:c.w]
		if c.need > len(c.in) {
			c.in = make([]byte, max(c.need, 2*len(c.in)))
		}
		c.w = copy(c.in, unparsed)
		c.r = 0
	}
	if hook := c.s.testHookRead; hook != nil {
		hook()
	}
	n, err := c.nc.Read(c.in[c.w:])
	c.w += n
	return err
}

// upperName folds a command name to upper case into buf, ASCII only.
// Names longer than any command come back empty.
func upperName(buf *[8]byte, name []byte) []byte {
	if len(name) > len(buf) {
		return nil
	}
	for i, ch := range name {
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		buf[i] = ch
	}
	return buf[:len(name)]
}

// classify validates one parsed command and tags it with its kind. Arity
// and size violations become command-level error replies; the stream stays
// in sync, so the connection lives on.
func (s *Server) classify(args [][]byte) command {
	c := command{kind: obs.RESPOther}
	var buf [8]byte
	switch string(upperName(&buf, args[0])) {
	case "GET":
		c.kind = obs.RESPGet
		if len(args) != 2 {
			c.errMsg = "ERR wrong number of arguments for 'get' command"
		} else {
			c.errMsg = s.checkKey(args[1])
		}
	case "SET":
		c.kind = obs.RESPSet
		if len(args) != 3 {
			c.errMsg = "ERR wrong number of arguments for 'set' command"
		} else if c.errMsg = s.checkKey(args[1]); c.errMsg == "" && len(args[2]) == 0 {
			c.errMsg = "ERR empty value"
		}
	case "DEL":
		c.kind = obs.RESPDel
		if len(args) < 2 {
			c.errMsg = "ERR wrong number of arguments for 'del' command"
		} else {
			for _, k := range args[1:] {
				if c.errMsg = s.checkKey(k); c.errMsg != "" {
					break
				}
			}
		}
	case "MGET":
		c.kind = obs.RESPMGet
		if len(args) < 2 {
			c.errMsg = "ERR wrong number of arguments for 'mget' command"
		} else {
			for _, k := range args[1:] {
				if c.errMsg = s.checkKey(k); c.errMsg != "" {
					break
				}
			}
		}
	case "MSET":
		c.kind = obs.RESPMSet
		if len(args) < 3 || len(args)%2 != 1 {
			c.errMsg = "ERR wrong number of arguments for 'mset' command"
		} else {
			for i := 1; i < len(args); i += 2 {
				if c.errMsg = s.checkKey(args[i]); c.errMsg != "" {
					break
				}
				if len(args[i+1]) == 0 {
					c.errMsg = "ERR empty value"
					break
				}
			}
		}
	case "PING":
		c.kind = obs.RESPPing
		if len(args) > 2 {
			c.errMsg = "ERR wrong number of arguments for 'ping' command"
		}
	case "INFO":
		c.kind = obs.RESPInfo
		if len(args) > 2 {
			c.errMsg = "ERR wrong number of arguments for 'info' command"
		}
	case "QUIT":
		c.kind = obs.RESPQuit
	case "COMMAND":
		// redis-cli issues COMMAND DOCS at startup; an empty array keeps it
		// happy without implementing introspection.
	default:
		c.errMsg = fmt.Sprintf("ERR unknown command '%.32s'", args[0])
	}
	return c
}

func (s *Server) checkKey(k []byte) string {
	if len(k) == 0 {
		return "ERR empty key"
	}
	if len(k) > kv.KeySize {
		return fmt.Sprintf("ERR key longer than %d bytes", kv.KeySize)
	}
	return ""
}

// execute runs the parsed burst in order and appends every reply to out.
// GET, SET and single-key DEL commands collect in ops and go through
// batchrun together; any other command first flushes them.
func (c *conn) execute() {
	for i := range c.cmds {
		cm := &c.cmds[i]
		args := c.argv[cm.lo:cm.hi]
		switch {
		case cm.errMsg != "":
			c.flushPending(i)
			c.out = appendError(c.out, cm.errMsg)
			cm.failed = true
		case cm.kind == obs.RESPGet:
			c.ops = append(c.ops, batchrun.Op{Kind: batchrun.Get, Key: args[1]})
		case cm.kind == obs.RESPSet:
			c.ops = append(c.ops, batchrun.Op{Kind: batchrun.Put, Key: args[1], Value: args[2]})
		case cm.kind == obs.RESPDel && len(args) == 2:
			c.ops = append(c.ops, batchrun.Op{Kind: batchrun.Delete, Key: args[1]})
		default:
			c.flushPending(i)
			c.direct(cm, args)
		}
	}
	c.flushPending(len(c.cmds))
}

// flushPending drains the collected ops — the commands just before
// cmds[next] — through batchrun and appends each command's reply in order.
func (c *conn) flushPending(next int) {
	if len(c.ops) == 0 {
		return
	}
	if cap(c.results) < len(c.ops) {
		c.results = make([]batchrun.Result, len(c.ops))
	}
	c.results = c.results[:len(c.ops)]
	c.run.Execute(c.sess, c.ops, c.results, c)

	pending := c.cmds[next-len(c.ops) : next]
	for i := range pending {
		cm, res := &pending[i], &c.results[i]
		switch cm.kind {
		case obs.RESPGet:
			switch {
			case res.Err != nil && !errors.Is(res.Err, scheme.ErrNotFound):
				c.out = appendError(c.out, errReply(res.Err))
				cm.failed = true
			case !res.Found:
				c.out = appendNil(c.out)
			default:
				c.out = appendBulk(c.out, res.Value)
			}
		case obs.RESPSet:
			if res.Err != nil {
				c.out = appendError(c.out, errReply(res.Err))
				cm.failed = true
			} else {
				c.out = appendSimple(c.out, "OK")
			}
		case obs.RESPDel:
			switch {
			case res.Err == nil:
				c.out = appendInt(c.out, 1)
			case errors.Is(res.Err, scheme.ErrNotFound):
				c.out = appendInt(c.out, 0)
			default:
				c.out = appendError(c.out, errReply(res.Err))
				cm.failed = true
			}
		}
	}
	c.ops = c.ops[:0]
	clear(c.results) // an idle connection must not pin the values it last served
}

// RunBegin implements batchrun.RunVisitor: run-length metrics, and a flight
// span around the batch call.
func (c *conn) RunBegin(kind batchrun.Kind, n int) {
	m := c.s.opts.Metrics
	m.Run(n)
	if kind != batchrun.Get {
		m.WriteRun(n) // write batch shape: what group commit turns into one barrier run
	}
	c.spanBegin = c.tr.OpBegin(opFor(kind))
}

// RunEnd implements batchrun.RunVisitor: the span closes with the first
// verdict in the run that is neither success nor a miss.
func (c *conn) RunEnd(kind batchrun.Kind, pos []int) {
	out := obs.OutOK
	for _, p := range pos {
		if err := c.results[p].Err; err != nil && !errors.Is(err, scheme.ErrNotFound) {
			out = outcomeFor(err)
			break
		}
	}
	c.tr.OpEnd(opFor(kind), out, c.spanBegin)
}

// direct executes the commands that bypass coalescing (already-batched or
// trivial ones).
func (c *conn) direct(cm *command, args [][]byte) {
	m := c.s.opts.Metrics
	switch cm.kind {
	case obs.RESPPing:
		if len(args) == 2 {
			c.out = appendBulk(c.out, args[1])
		} else {
			c.out = appendSimple(c.out, "PONG")
		}
	case obs.RESPQuit:
		c.out = appendSimple(c.out, "OK")
	case obs.RESPDel:
		// Multi-key DEL (the single-key form coalesces via flushPending).
		keys := args[1:]
		m.Run(len(keys))
		m.WriteRun(len(keys))
		begin := c.tr.OpBegin(obs.OpDelete)
		errs := c.sess.MultiDelete(keys)
		out := obs.OutOK
		deleted := int64(0)
		var firstErr error
		for _, err := range errs {
			switch {
			case err == nil:
				deleted++
			case errors.Is(err, scheme.ErrNotFound):
			case firstErr == nil:
				firstErr = err
				out = outcomeFor(err)
			}
		}
		c.tr.OpEnd(obs.OpDelete, out, begin)
		if firstErr != nil {
			c.out = appendError(c.out, errReply(firstErr))
			cm.failed = true
		} else {
			c.out = appendInt(c.out, deleted)
		}
	case obs.RESPMGet:
		keys := args[1:]
		m.Run(len(keys))
		begin := c.tr.OpBegin(obs.OpGet)
		vals, found, errs := c.sess.MultiGet(keys)
		out := obs.OutOK
		c.out = appendArrayLen(c.out, len(keys))
		for i := range keys {
			switch {
			case errs[i] != nil && !errors.Is(errs[i], scheme.ErrNotFound):
				c.out = appendError(c.out, errReply(errs[i]))
				cm.failed = true
				if out == obs.OutOK {
					out = outcomeFor(errs[i])
				}
			case !found[i]:
				c.out = appendNil(c.out)
			default:
				c.out = appendBulk(c.out, vals[i])
			}
		}
		c.tr.OpEnd(obs.OpGet, out, begin)
	case obs.RESPMSet:
		keys, vals := c.keys[:0], c.vals[:0]
		for i := 1; i < len(args); i += 2 {
			keys, vals = append(keys, args[i]), append(vals, args[i+1])
		}
		c.keys, c.vals = keys, vals
		m.Run(len(keys))
		m.WriteRun(len(keys))
		begin := c.tr.OpBegin(obs.OpUpdate)
		errs := c.sess.MultiPut(keys, vals)
		out := obs.OutOK
		var firstErr error
		for _, err := range errs {
			if err != nil {
				firstErr = err
				out = outcomeFor(err)
				break
			}
		}
		c.tr.OpEnd(obs.OpUpdate, out, begin)
		// MSET is atomic in reply shape only: earlier pairs may have landed
		// when a later pair fails, and the error reply says which error hit
		// first.
		if firstErr != nil {
			c.out = appendError(c.out, errReply(firstErr))
			cm.failed = true
		} else {
			c.out = appendSimple(c.out, "OK")
		}
	case obs.RESPInfo:
		section := ""
		if len(args) == 2 {
			section = string(args[1])
		}
		info := c.s.opts.Info
		if info == nil {
			info = builtinInfo
		}
		if text, ok := info(section); ok {
			c.out = appendBulk(c.out, []byte(text))
		} else {
			c.out = appendError(c.out, fmt.Sprintf("ERR unknown INFO section '%.32s'", section))
			cm.failed = true
		}
	case obs.RESPOther: // COMMAND
		c.out = appendArrayLen(c.out, 0)
	}
}

// builtinInfo is the Options.Info fallback: enough of a Server section to
// keep redis-cli's INFO probe happy when no provider is wired in.
func builtinInfo(section string) (string, bool) {
	switch strings.ToLower(section) {
	case "", "default", "all", "everything", "server":
		return "# Server\r\nhdnh_version:1\r\n\r\n", true
	default:
		return "", false
	}
}

// errReply maps a store verdict onto the wire error taxonomy. Clients
// dispatch on the leading word: CONTENDED and FULL are retryable-with-
// backoff and capacity conditions respectively; ERR is everything else.
func errReply(err error) string {
	switch {
	case errors.Is(err, scheme.ErrContended):
		return "CONTENDED operation contended, retry"
	case errors.Is(err, scheme.ErrFull), errors.Is(err, vlog.ErrLogFull):
		return "FULL store full"
	default:
		return "ERR " + strings.Map(func(r rune) rune {
			if r == '\r' || r == '\n' {
				return ' '
			}
			return r
		}, err.Error())
	}
}

// outcomeFor maps a store verdict onto the flight-span outcome.
func outcomeFor(err error) obs.Outcome {
	switch {
	case err == nil:
		return obs.OutOK
	case errors.Is(err, scheme.ErrContended):
		return obs.OutContended
	case errors.Is(err, scheme.ErrFull), errors.Is(err, vlog.ErrLogFull):
		return obs.OutFull
	case errors.Is(err, scheme.ErrNotFound):
		return obs.OutNotFound
	default:
		return obs.OutError
	}
}

// opFor maps a batchrun kind onto the flight-span op label. Puts are
// upserts, which the store taxonomy calls updates.
func opFor(k batchrun.Kind) obs.Op {
	switch k {
	case batchrun.Get:
		return obs.OpGet
	case batchrun.Put:
		return obs.OpUpdate
	default:
		return obs.OpDelete
	}
}
