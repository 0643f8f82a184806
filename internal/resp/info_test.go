package resp

import (
	"fmt"
	"strings"
	"testing"

	"hdnh/internal/obs"
)

// TestInfoCommand pins the INFO surface at the wire level against a scripted
// provider: section dispatch, the full dump, unknown sections answering an
// error reply with the connection kept, and arity errors.
func TestInfoCommand(t *testing.T) {
	st := newTestStore(t, 1)
	m := obs.NewRESPMetrics()
	serverSec := "# Server\r\nhdnh_version:1\r\n\r\n"
	statsSec := "# Stats\r\nkeyspace_hits:42\r\n\r\n"
	info := func(section string) (string, bool) {
		switch strings.ToLower(section) {
		case "", "default", "all", "everything":
			return serverSec + statsSec, true
		case "server":
			return serverSec, true
		case "stats":
			return statsSec, true
		default:
			return "", false
		}
	}
	_, addr := startServer(t, StoreBackend{St: st}, Options{Metrics: m, Info: info})

	asBulk := func(s string) string { return fmt.Sprintf("$%d\r\n%s\r\n", len(s), s) }
	cases := []conversation{
		{name: "bare info dumps everything", send: bulk("INFO"), want: asBulk(serverSec + statsSec)},
		{name: "section select", send: bulk("INFO", "stats"), want: asBulk(statsSec)},
		{name: "section is case-insensitive", send: bulk("INFO", "SERVER"), want: asBulk(serverSec)},
		{name: "inline info works", send: "INFO server\r\n", want: asBulk(serverSec)},
		{
			name: "unknown section keeps connection",
			send: bulk("INFO", "bogus") + "PING\r\n",
			want: "-ERR unknown INFO section 'bogus'\r\n+PONG\r\n",
		},
		{
			name: "wrong arity keeps connection",
			send: bulk("INFO", "a", "b") + "PING\r\n",
			want: "-ERR wrong number of arguments for 'info' command\r\n+PONG\r\n",
		},
		{
			name: "info coexists with pipelined data commands",
			send: bulk("SET", "ik", "iv") + bulk("INFO", "server") + bulk("GET", "ik"),
			want: "+OK\r\n" + asBulk(serverSec) + "$2\r\niv\r\n",
		},
	}
	for _, cv := range cases {
		t.Run(cv.name, func(t *testing.T) { runConversation(t, addr, cv) })
	}

	// The command rides the metrics like any other: served info commands and
	// the unknown-section error are both attributed to cmd="info".
	snap := settled(t, m)
	if snap.Commands["info"] < 6 {
		t.Fatalf("info commands counted = %d, want >= 6", snap.Commands["info"])
	}
	if snap.CommandErrors["info"] < 2 {
		t.Fatalf("info command errors counted = %d, want >= 2 (unknown section + arity)", snap.CommandErrors["info"])
	}
}

// TestInfoBuiltinFallback: with no provider wired in, INFO still answers a
// minimal Server section so a bare redis-cli session does not break.
func TestInfoBuiltinFallback(t *testing.T) {
	st := newTestStore(t, 1)
	_, addr := startServer(t, StoreBackend{St: st}, Options{})

	fallback := "# Server\r\nhdnh_version:1\r\n\r\n"
	cases := []conversation{
		{name: "bare info", send: bulk("INFO"), want: fmt.Sprintf("$%d\r\n%s\r\n", len(fallback), fallback)},
		{name: "server section", send: bulk("INFO", "server"), want: fmt.Sprintf("$%d\r\n%s\r\n", len(fallback), fallback)},
		{
			name: "unknown section keeps connection",
			send: bulk("INFO", "memory") + "PING\r\n",
			want: "-ERR unknown INFO section 'memory'\r\n+PONG\r\n",
		},
	}
	for _, cv := range cases {
		t.Run(cv.name, func(t *testing.T) { runConversation(t, addr, cv) })
	}
}
