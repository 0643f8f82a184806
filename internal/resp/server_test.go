package resp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
	"hdnh/internal/obs"
	"hdnh/internal/scheme"
)

// newTestStore builds a small in-memory store; shards > 1 exercises the
// router path.
func newTestStore(t *testing.T, shards int) *bigkv.Store {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	opts := bigkv.DefaultOptions()
	opts.Table.Shards = shards
	opts.Table.Metrics = obs.New(obs.Config{})
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// startServer serves be on a loopback listener and returns its address.
func startServer(t *testing.T, be Backend, opts Options) (*Server, string) {
	t.Helper()
	srv := NewServer(be, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

// conversation writes raw bytes and asserts the exact reply bytes, the
// whole protocol surface pinned down at the wire level.
type conversation struct {
	name  string
	send  string
	want  string
	close bool // server must close the connection after want
}

func runConversation(t *testing.T, addr string, cv conversation) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write([]byte(cv.send)); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(cv.want))
	if _, err := io.ReadFull(nc, got); err != nil {
		t.Fatalf("read replies: %v (got %q so far)", err, got)
	}
	if string(got) != cv.want {
		t.Fatalf("replies:\n got  %q\n want %q", got, cv.want)
	}
	if cv.close {
		one := make([]byte, 1)
		if n, err := nc.Read(one); err != io.EOF {
			t.Fatalf("connection still open after %q: n=%d err=%v", cv.name, n, err)
		}
	}
}

// settled waits for every connection the server accepted to finish and
// returns the metrics as they stand then. A reply counts as served once it has
// left, so a client that has read its replies and hung up can still be ahead
// of the connection's last accounting; only a conversation the server itself
// closes (the client's EOF follows it) needs no wait.
func settled(t *testing.T, m *obs.RESPMetrics) *obs.RESPSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := m.Snapshot(); s.ConnsOpen == 0 {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatal("connections never closed")
		}
		time.Sleep(time.Millisecond)
	}
}

func bulk(parts ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(parts))
	for _, p := range parts {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(p), p)
	}
	return b.String()
}

// conformanceCases is the protocol surface as conversations. Each leaves the
// store as it found it or re-creates what it needs, so the list can be
// replayed against one store any number of times.
func conformanceCases() []conversation {
	binKey := "a\r\nb\x00!"
	binVal := "v\x00\r\n$-1\r\nv"
	// Keys a URL path would mangle (slashes, dot-segments, percent escapes,
	// control bytes) are plain bytes on this wire: each reads back its own
	// value, and "a%41" is not "aA".
	hostile := []string{"a/b", "a b", "..", "x//y", "a%41", "\x00\x01\x02"}
	var hostileSend, hostileWant strings.Builder
	for i, k := range hostile {
		v := fmt.Sprintf("val-%d", i)
		hostileSend.WriteString(bulk("SET", k, v) + bulk("GET", k))
		fmt.Fprintf(&hostileWant, "+OK\r\n$%d\r\n%s\r\n", len(v), v)
	}
	hostileSend.WriteString(bulk("GET", "aA") + bulk(append([]string{"DEL"}, hostile...)...))
	fmt.Fprintf(&hostileWant, "$-1\r\n:%d\r\n", len(hostile))
	return []conversation{
		{name: "inline ping", send: "PING\r\n", want: "+PONG\r\n"},
		{name: "bulk ping echo", send: bulk("PING", "hello"), want: "$5\r\nhello\r\n"},
		{name: "empty inline skipped", send: "\r\nPING\r\n", want: "+PONG\r\n"},
		{
			name: "pipelined set/get/del burst",
			send: bulk("SET", "k1", "v1") + bulk("GET", "k1") + bulk("DEL", "k1") +
				bulk("GET", "k1") + bulk("DEL", "k1"),
			want: "+OK\r\n$2\r\nv1\r\n:1\r\n$-1\r\n:0\r\n",
		},
		{
			name: "binary keys and values round-trip",
			send: bulk("SET", binKey, binVal) + bulk("GET", binKey),
			want: "+OK\r\n" + fmt.Sprintf("$%d\r\n%s\r\n", len(binVal), binVal),
		},
		{
			name: "URL-hostile keys round-trip",
			send: hostileSend.String(),
			want: hostileWant.String(),
		},
		{
			name: "unknown command keeps connection",
			send: bulk("HELLO", "3") + "PING\r\n",
			want: "-ERR unknown command 'HELLO'\r\n+PONG\r\n",
		},
		{
			name: "wrong arity keeps connection",
			send: bulk("GET") + "PING\r\n",
			want: "-ERR wrong number of arguments for 'get' command\r\n+PONG\r\n",
		},
		{
			name: "oversized key is a command error",
			send: bulk("GET", "12345678901234567"),
			want: "-ERR key longer than 16 bytes\r\n",
		},
		{
			name: "empty value rejected",
			send: bulk("SET", "k2", ""),
			want: "-ERR empty value\r\n",
		},
		{
			name: "mset then mget with a miss",
			send: bulk("MSET", "k7a", "v7a", "k7b", "v7b") + bulk("MGET", "k7a", "nope", "k7b"),
			want: "+OK\r\n*3\r\n$3\r\nv7a\r\n$-1\r\n$3\r\nv7b\r\n",
		},
		{
			name: "multi-key del counts existing",
			send: bulk("MSET", "k9a", "v", "k9b", "v") + bulk("DEL", "k9a", "nope9", "k9b"),
			want: "+OK\r\n:2\r\n",
		},
		{
			name: "mset odd arity",
			send: bulk("MSET", "k8", "v8", "dangling"),
			want: "-ERR wrong number of arguments for 'mset' command\r\n",
		},
		{
			name: "command introspection stub",
			send: bulk("COMMAND", "DOCS"),
			want: "*0\r\n",
		},
		{
			name:  "quit closes after replying",
			send:  "PING\r\nQUIT\r\n",
			want:  "+PONG\r\n+OK\r\n",
			close: true,
		},
		{
			name:  "framing error closes",
			send:  "*2\r\nPING\r\n",
			want:  "-ERR Protocol error: expected bulk string, got \"PING\"\r\n",
			close: true,
		},
		{
			name:  "zero-length array is a framing error",
			send:  "*0\r\n",
			want:  "-ERR Protocol error: bad array length 0\r\n",
			close: true,
		},
		{
			name:  "oversized bulk is a framing error",
			send:  "*2\r\n$3\r\nGET\r\n$999999999\r\n",
			want:  "-ERR Protocol error: bad bulk length 999999999 (max 65536)\r\n",
			close: true,
		},
	}
}

func TestConformance(t *testing.T) {
	st := newTestStore(t, 1)
	m := obs.NewRESPMetrics()
	_, addr := startServer(t, StoreBackend{St: st}, Options{Metrics: m})

	cases := conformanceCases()
	for _, cv := range cases {
		t.Run(cv.name, func(t *testing.T) { runConversation(t, addr, cv) })
	}

	s := settled(t, m)
	if s.ConnsTotal != uint64(len(cases)) {
		t.Errorf("ConnsTotal = %d, want %d", s.ConnsTotal, len(cases))
	}
	if s.ProtoErrors != 3 {
		t.Errorf("ProtoErrors = %d, want 3", s.ProtoErrors)
	}
	if s.InFlight != 0 {
		t.Errorf("InFlight = %d after all connections closed, want 0", s.InFlight)
	}
	if s.Runs == 0 || s.Flushes == 0 {
		t.Errorf("runs/flushes not recorded: %+v", s)
	}
	if s.Commands["get"] == 0 || s.Commands["set"] == 0 || s.Commands["ping"] == 0 {
		t.Errorf("command counters missing: %v", s.Commands)
	}
}

// fakeSession scripts store verdicts so the wire taxonomy is testable
// without provoking real contention: keys prefixed "c-" answer
// ErrContended, "f-" ErrFull.
type fakeSession struct {
	mu   sync.Mutex
	data map[string][]byte
}

func (f *fakeSession) verdict(k []byte) error {
	switch {
	case strings.HasPrefix(string(k), "c-"):
		return scheme.ErrContended
	case strings.HasPrefix(string(k), "f-"):
		return scheme.ErrFull
	}
	return nil
}

func (f *fakeSession) MultiGet(keys [][]byte) ([][]byte, []bool, []error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		if errs[i] = f.verdict(k); errs[i] != nil {
			continue
		}
		v, ok := f.data[string(k)]
		vals[i], found[i] = v, ok
	}
	return vals, found, errs
}

func (f *fakeSession) MultiPut(keys, values [][]byte) []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	errs := make([]error, len(keys))
	for i, k := range keys {
		if errs[i] = f.verdict(k); errs[i] == nil {
			f.data[string(k)] = append([]byte(nil), values[i]...)
		}
	}
	return errs
}

func (f *fakeSession) MultiDelete(keys [][]byte) []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	errs := make([]error, len(keys))
	for i, k := range keys {
		if errs[i] = f.verdict(k); errs[i] != nil {
			continue
		}
		if _, ok := f.data[string(k)]; !ok {
			errs[i] = scheme.ErrNotFound
		}
		delete(f.data, string(k))
	}
	return errs
}

func (f *fakeSession) SyncObs()     {}
func (f *fakeSession) Close() error { return nil }

type fakeBackend struct{ sess *fakeSession }

func (b fakeBackend) NewSession() BackendSession { return b.sess }

// TestMidPipelineTypedErrors pins the behaviour the client depends on: a
// CONTENDED or FULL verdict inside a coalesced run answers only its own
// command; the surrounding pipeline keeps its replies and its order.
func TestMidPipelineTypedErrors(t *testing.T) {
	be := fakeBackend{sess: &fakeSession{data: map[string][]byte{}}}
	_, addr := startServer(t, be, Options{})
	runConversation(t, addr, conversation{
		name: "contended and full mid-burst",
		send: bulk("SET", "a", "1") + bulk("SET", "c-x", "2") + bulk("SET", "f-y", "3") +
			bulk("GET", "a") + bulk("GET", "c-x"),
		want: "+OK\r\n-CONTENDED operation contended, retry\r\n-FULL store full\r\n" +
			"$1\r\n1\r\n-CONTENDED operation contended, retry\r\n",
	})
}

// TestSessionsReleasedOnDisconnect asserts the per-connection store session
// is Closed when the client goes away: live epoch slots return to the
// baseline (the store's own GC workers), not accumulate per connection.
func TestSessionsReleasedOnDisconnect(t *testing.T) {
	st := newTestStore(t, 1)
	_, addr := startServer(t, StoreBackend{St: st}, Options{})
	baseline := st.EpochSlotsLive()

	for i := 0; i < 5; i++ {
		runConversation(t, addr, conversation{
			name: "ping", send: "PING\r\n", want: "+PONG\r\n",
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.EpochSlotsLive() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("EpochSlotsLive = %d, want baseline %d", st.EpochSlotsLive(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownForceClosesIdleConnections: a parked client connection must
// not wedge Shutdown past its context.
func TestShutdownForceClosesIdleConnections(t *testing.T) {
	st := newTestStore(t, 1)
	srv := NewServer(StoreBackend{St: st}, Options{})
	reads := make(chan struct{}, 4)
	srv.testHookRead = func() { reads <- struct{}{} }
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Ensure the connection is fully accepted before shutting down.
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	pong := make([]byte, 7)
	if _, err := io.ReadFull(nc, pong); err != nil {
		t.Fatal(err)
	}
	// The connection reads once for the PING and once more after the PONG,
	// past its draining check: only then is it parked, and only a parked
	// connection holds Shutdown to its deadline.
	<-reads
	<-reads

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (idle conn force-closed)", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	one := make([]byte, 1)
	if _, err := nc.Read(one); err != io.EOF {
		t.Fatalf("idle conn read = %v, want EOF", err)
	}
}

// TestConcurrentPipelinesThroughResizes drives pipelined writes from many
// connections into a tiny sharded store so the bursts cross table
// expansions; run with -race this is the listener's data-race probe.
func TestConcurrentPipelinesThroughResizes(t *testing.T) {
	st := newTestStore(t, 4)
	_, addr := startServer(t, StoreBackend{St: st}, Options{PipelineDepth: 32})

	const (
		workers = 4
		ops     = 400
		depth   = 16
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				errCh <- err
				return
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(30 * time.Second))

			var send strings.Builder
			var want strings.Builder
			flush := func() error {
				if send.Len() == 0 {
					return nil
				}
				if _, err := nc.Write([]byte(send.String())); err != nil {
					return fmt.Errorf("worker %d write: %w", g, err)
				}
				got := make([]byte, want.Len())
				if _, err := io.ReadFull(nc, got); err != nil {
					return fmt.Errorf("worker %d read: %w", g, err)
				}
				if got := string(got); got != want.String() {
					return fmt.Errorf("worker %d replies:\n got  %q\n want %q", g, got, want.String())
				}
				send.Reset()
				want.Reset()
				return nil
			}
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%d-%06d", g, i)
				val := fmt.Sprintf("val-%d-%d", g, i)
				send.WriteString(bulk("SET", key, val))
				want.WriteString("+OK\r\n")
				send.WriteString(bulk("GET", key))
				fmt.Fprintf(&want, "$%d\r\n%s\r\n", len(val), val)
				if i%3 == 0 {
					send.WriteString(bulk("DEL", key))
					want.WriteString(":1\r\n")
				}
				if (i+1)%depth == 0 {
					if err := flush(); err != nil {
						errCh <- err
						return
					}
				}
			}
			if err := flush(); err != nil {
				errCh <- err
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
