package resp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hdnh/internal/obs"
)

// pipeListener hands Serve one end of a net.Pipe per dial. A pipe has no
// buffer: every client Write is consumed by server Reads before it returns,
// so a test decides exactly which bytes each Read can see.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not accept")
	}
	client.SetDeadline(time.Now().Add(20 * time.Second))
	t.Cleanup(func() { client.Close() })
	return client
}

func startPipeServer(t *testing.T, be Backend, opts Options) *pipeListener {
	t.Helper()
	srv := NewServer(be, opts)
	l := newPipeListener()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l
}

// converse writes the given pieces, one Write each, while collecting replies
// (the pipe's writer blocks until the peer reads, on both sides), and checks
// the reply bytes and, when asked, that the server hung up after them.
func converse(t *testing.T, nc net.Conn, pieces [][]byte, want string, wantClose bool) {
	t.Helper()
	got := make(chan string, 1)
	go func() {
		var b []byte
		if wantClose {
			b, _ = io.ReadAll(nc)
		} else {
			b = make([]byte, len(want))
			n, _ := io.ReadFull(nc, b)
			b = b[:n]
		}
		got <- string(b)
	}()
	for _, p := range pieces {
		if _, err := nc.Write(p); err != nil {
			if wantClose {
				break // the server hung up before the tail was sent
			}
			t.Fatalf("write: %v", err)
		}
	}
	select {
	case g := <-got:
		if g != want {
			t.Fatalf("replies:\n got  %q\n want %q", g, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("timed out waiting for replies")
	}
}

func chunks(b []byte, size int) [][]byte {
	var out [][]byte
	for len(b) > size {
		out, b = append(out, b[:size]), b[size:]
	}
	return append(out, b)
}

// TestConformanceAcrossReads replays every conformance conversation with the
// client's bytes arriving one per Read, and split in two at every offset:
// where a Read ends must never change what is answered.
func TestConformanceAcrossReads(t *testing.T) {
	st := newTestStore(t, 1)
	m := obs.NewRESPMetrics()
	l := startPipeServer(t, StoreBackend{St: st}, Options{Metrics: m})

	for _, cv := range conformanceCases() {
		send := []byte(cv.send)
		t.Run(cv.name+"/byte by byte", func(t *testing.T) {
			converse(t, l.dial(t), chunks(send, 1), cv.want, cv.close)
		})
		t.Run(cv.name+"/every split", func(t *testing.T) {
			for i := 1; i < len(send); i++ {
				converse(t, l.dial(t), [][]byte{send[:i], send[i:]}, cv.want, cv.close)
			}
		})
	}
	if s := settled(t, m); s.InFlight != 0 {
		t.Errorf("InFlight = %d after all connections closed, want 0", s.InFlight)
	}
}

// TestLargeCommandsStraddleReads: a value at the size cap and an MSET at the
// argument cap arrive over many Reads; the buffer has to grow for one
// command, keep the bytes already received, and give the memory back after.
func TestLargeCommandsStraddleReads(t *testing.T) {
	st := newTestStore(t, 1)
	l := startPipeServer(t, StoreBackend{St: st}, Options{})
	nc := l.dial(t)

	big := strings.Repeat("0123456789abcdef", 4096) // 64 KiB
	converse(t, nc, chunks([]byte(bulk("SET", "big", big)), 1500), "+OK\r\n", false)
	converse(t, nc, [][]byte{[]byte(bulk("GET", "big"))},
		fmt.Sprintf("$%d\r\n%s\r\n", len(big), big), false)

	args := []string{"MSET"}
	for i := 0; i < 4096; i++ {
		args = append(args, fmt.Sprintf("m%05d", i), fmt.Sprintf("v%05d", i))
	}
	converse(t, nc, chunks([]byte(bulk(args...)), 4093), "+OK\r\n", false)
	converse(t, nc, [][]byte{[]byte(bulk("MGET", "m00000", "m02047", "m04095", "m04096"))},
		"*4\r\n$6\r\nv00000\r\n$6\r\nv02047\r\n$6\r\nv04095\r\n$-1\r\n", false)
	// Small talk after the big commands runs from the small buffer again.
	converse(t, nc, [][]byte{[]byte("PING\r\n")}, "+PONG\r\n", false)
}

// TestStoredValueSurvivesBufferReuse: arguments alias the read buffer, which
// every later command overwrites; what was stored must have been copied.
func TestStoredValueSurvivesBufferReuse(t *testing.T) {
	st := newTestStore(t, 1)
	l := startPipeServer(t, StoreBackend{St: st}, Options{})
	nc := l.dial(t)

	keep := strings.Repeat("keep-me!", 125) // 1000 bytes, goes through the value log
	converse(t, nc, [][]byte{[]byte(bulk("SET", "kept", keep) + bulk("SET", "tiny", "inline"))},
		"+OK\r\n+OK\r\n", false)
	for i := 0; i < 100; i++ {
		junk := strings.Repeat(fmt.Sprintf("%08d", i), 130)
		converse(t, nc, [][]byte{[]byte(bulk("SET", fmt.Sprintf("junk%d", i%7), junk) + bulk("GET", "absent"))},
			"+OK\r\n$-1\r\n", false)
	}
	converse(t, nc, [][]byte{[]byte(bulk("GET", "kept") + bulk("GET", "tiny"))},
		fmt.Sprintf("$%d\r\n%s\r\n$6\r\ninline\r\n", len(keep), keep), false)
}

// TestInFlightGaugeBalances: every parsed command is served or dropped on
// every way out of a connection, so the gauge returns to zero. Commands
// pipelined behind a QUIT used to be counted in and never out.
func TestInFlightGaugeBalances(t *testing.T) {
	cases := []conversation{
		{
			name:  "commands behind QUIT",
			send:  bulk("SET", "g1", "v") + "QUIT\r\n" + bulk("GET", "g1") + bulk("GET", "g1"),
			want:  "+OK\r\n+OK\r\n",
			close: true,
		},
		{
			name:  "protocol error mid-burst",
			send:  bulk("SET", "g2", "v") + bulk("GET", "g2") + "*1\r\n:1\r\n" + bulk("GET", "g2"),
			want:  "+OK\r\n$1\r\nv\r\n-ERR Protocol error: expected bulk string, got \":1\"\r\n",
			close: true,
		},
		{
			name:  "burst deeper than the pipeline depth, then QUIT",
			send:  strings.Repeat(bulk("GET", "nope"), 9) + "QUIT\r\n",
			want:  strings.Repeat("$-1\r\n", 9) + "+OK\r\n",
			close: true,
		},
	}
	for _, cv := range cases {
		t.Run(cv.name, func(t *testing.T) {
			st := newTestStore(t, 1)
			m := obs.NewRESPMetrics()
			_, addr := startServer(t, StoreBackend{St: st}, Options{Metrics: m, PipelineDepth: 4})
			runConversation(t, addr, cv)
			// The client saw EOF, so the connection's last burst is accounted.
			if s := m.Snapshot(); s.InFlight != 0 {
				t.Fatalf("InFlight = %d after the connection closed, want 0", s.InFlight)
			}
		})
	}

	t.Run("client gone before the replies", func(t *testing.T) {
		st := newTestStore(t, 1)
		m := obs.NewRESPMetrics()
		l := startPipeServer(t, StoreBackend{St: st}, Options{Metrics: m})
		nc := l.dial(t)
		// The pipe's Write returns once the server has read the burst; the
		// server's reply Write then finds the pipe closed.
		if _, err := nc.Write([]byte(bulk("GET", "a") + bulk("GET", "b"))); err != nil {
			t.Fatal(err)
		}
		nc.Close()
		if s := settled(t, m); s.InFlight != 0 {
			t.Fatalf("InFlight = %d after a failed write, want 0", s.InFlight)
		}
	})
}

// staticSession answers every batch call from slices made once.
type staticSession struct {
	vals  [][]byte
	found []bool
	errs  []error
}

func (s *staticSession) MultiGet(keys [][]byte) ([][]byte, []bool, []error) {
	return s.vals[:len(keys)], s.found[:len(keys)], s.errs[:len(keys)]
}
func (s *staticSession) MultiPut(keys, _ [][]byte) []error { return s.errs[:len(keys)] }
func (s *staticSession) MultiDelete(keys [][]byte) []error { return s.errs[:len(keys)] }
func (s *staticSession) SyncObs()                          {}
func (s *staticSession) Close() error                      { return nil }

// TestBurstSteadyStateZeroAllocs pins the wire path's own cost: a
// 16-command GET/SET burst parsed in place, classified, run through the
// connection's Runner and encoded allocates nothing once the connection's
// scratch has grown — with the metrics on, too.
func TestBurstSteadyStateZeroAllocs(t *testing.T) {
	var burst strings.Builder
	var want bytes.Buffer
	sess := &staticSession{vals: make([][]byte, 16), found: make([]bool, 16), errs: make([]error, 16)}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if i%5 == 2 {
			burst.WriteString(bulk("SET", key, "a-value-longer-than-inline"))
			want.WriteString("+OK\r\n")
			continue
		}
		if i == 9 {
			key = "key-0002" // reads a key the burst wrote: a second stretch
		}
		burst.WriteString(bulk("get", key))
		want.WriteString("$5\r\nvalue\r\n")
	}
	for i := range sess.vals {
		sess.vals[i], sess.found[i] = []byte("value"), true
	}

	srv := NewServer(fakeBackend{}, Options{Metrics: obs.NewRESPMetrics()})
	c := newConn(srv, nil, sess, nil)
	round := func() {
		c.r, c.w, c.need = 0, copy(c.in, burst.String()), 1
		if perr := c.parseBurst(); perr != nil || len(c.cmds) != 16 || c.r != c.w {
			t.Fatalf("parsed %d commands, %d bytes left, error %v", len(c.cmds), c.w-c.r, perr)
		}
		c.execute()
		if !bytes.Equal(c.out, want.Bytes()) {
			t.Fatalf("replies:\n got  %q\n want %q", c.out, want.Bytes())
		}
		c.out = c.out[:0]
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a 16-command burst allocates %.1f times, want 0", n)
	}
}
