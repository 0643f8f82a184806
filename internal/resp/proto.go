// Package resp serves the HDNH store over a length-prefixed binary wire
// protocol: a RESP2-compatible subset (GET/SET/DEL/MGET/MSET/PING/QUIT)
// with per-connection pipelining. Because the framing is RESP, existing
// Redis clients, redis-cli, redis-benchmark and memtier drive the store
// unmodified; because keys and values travel as binary-safe bulk strings,
// every byte sequence the store accepts round-trips unchanged — no escaping
// layer and no path cleaning.
//
// The point of the protocol is the pipelining contract: a client may write
// any number of commands before reading replies. One goroutine per
// connection reads what the socket holds into a buffer it owns, parses every
// complete command there in place (arguments alias the buffer; nothing is
// copied until the store copies it), runs the burst's GET/SET/DEL commands
// through internal/batchrun — one MultiGet, one MultiPut and one MultiDelete
// per stretch of the burst in which no key occurs under two kinds — appends
// the replies, in request order, to one reused byte slice and hands that to
// the socket with one Write. A connection does not read while it executes:
// that is all the back-pressure there is. BENCH_5's conclusion — batching
// pays at the protocol boundary — is this package.
//
// Wire format and reply taxonomy are documented in docs/PROTOCOL.md.
package resp

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Framing limits. Commands are arrays of bulk strings; both bounds exist so
// a hostile client cannot make the server allocate unboundedly.
const (
	// DefaultMaxArgs bounds one command's argument count (an MSET of 4096
	// pairs plus the command name).
	DefaultMaxArgs = 1 + 2*4096
	// maxLineBytes bounds one protocol line (array/bulk headers, inline
	// commands), terminator included.
	maxLineBytes = 16 << 10
)

// ProtoError is a framing-level violation: the server answers it with one
// -ERR reply and closes the connection, because the byte stream can no
// longer be trusted to be in sync.
type ProtoError struct{ Msg string }

func (e *ProtoError) Error() string { return "resp: protocol error: " + e.Msg }

func protoErrf(format string, args ...any) *ProtoError {
	return &ProtoError{Msg: fmt.Sprintf(format, args...)}
}

// parseLine splits the first \r\n-terminated line off buf: line excludes the
// terminator, n counts it. n == 0 with a nil error means buf holds no whole
// line yet. Bare \n and lines over maxLineBytes are errors.
func parseLine(buf []byte) (line []byte, n int, err *ProtoError) {
	window := buf
	if len(window) > maxLineBytes {
		window = window[:maxLineBytes]
	}
	i := bytes.IndexByte(window, '\n')
	if i < 0 {
		if len(buf) >= maxLineBytes {
			return nil, 0, protoErrf("line longer than %d bytes", maxLineBytes)
		}
		return nil, 0, nil
	}
	if i < 1 || buf[i-1] != '\r' {
		return nil, 0, protoErrf("line not terminated by CRLF")
	}
	return buf[:i-1], i + 1, nil
}

// parseLen parses a decimal length from a header line the way strconv.Atoi
// does (optional sign, digits only, overflow rejected), without converting
// the bytes to a string.
func parseLen(b []byte) (int, *ProtoError) {
	digits := b
	neg := false
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		neg = digits[0] == '-'
		digits = digits[1:]
	}
	if len(digits) == 0 {
		return 0, protoErrf("bad length %q", b)
	}
	const (
		maxInt = uint64(math.MaxInt)
		cutoff = maxInt/10 + 1 // the smallest n for which n*10 passes maxInt+1
	)
	var n uint64
	for _, c := range digits {
		if c < '0' || c > '9' || n >= cutoff {
			return 0, protoErrf("bad length %q", b)
		}
		n = n*10 + uint64(c-'0')
	}
	if n > maxInt && !(neg && n == maxInt+1) {
		return 0, protoErrf("bad length %q", b)
	}
	if neg {
		return -int(n), nil
	}
	return int(n), nil
}

// parse decodes the first client command in buf: a RESP array of bulk
// strings, or an inline (space-separated plain text) command for
// telnet-style debugging. It is a pure function of buf: the arguments it
// appends to argv (command name first) alias buf, and nothing else is kept.
//
//   - n > 0: buf[:n] held one command, or an empty inline line when argv
//     comes back no longer than it went in (the caller skips it).
//   - n == 0, err == nil: buf ends inside the command; argv comes back as it
//     went in, and need is the least len(buf) at which another attempt can
//     come out differently (the end of the bulk string buf stops in, else
//     one byte more). Every attempt starts over, so a command trickling in
//     costs one scan of its header lines per attempt; MaxArgs bounds that.
//   - err != nil: a framing violation.
func parse(buf []byte, argv [][]byte, maxArgs, maxBulk int) (out [][]byte, n, need int, err *ProtoError) {
	line, pos, err := parseLine(buf)
	if err != nil || pos == 0 {
		return argv, 0, len(buf) + 1, err
	}
	if len(line) == 0 {
		return argv, pos, 0, nil
	}
	out = argv
	if line[0] != '*' {
		// Inline command: fields split on spaces, no quoting.
		for lo := 0; lo < len(line); {
			for lo < len(line) && line[lo] == ' ' {
				lo++
			}
			hi := lo
			for hi < len(line) && line[hi] != ' ' {
				hi++
			}
			if hi > lo {
				out = append(out, line[lo:hi:hi])
			}
			lo = hi
		}
		if got := len(out) - len(argv); got > maxArgs {
			return argv, 0, 0, protoErrf("too many arguments (%d > %d)", got, maxArgs)
		}
		return out, pos, 0, nil
	}
	count, err := parseLen(line[1:])
	if err != nil {
		return argv, 0, 0, err
	}
	if count < 1 {
		return argv, 0, 0, protoErrf("bad array length %d", count)
	}
	if count > maxArgs {
		return argv, 0, 0, protoErrf("too many arguments (%d > %d)", count, maxArgs)
	}
	for i := 0; i < count; i++ {
		hdr, hn, err := parseLine(buf[pos:])
		if err != nil {
			return argv, 0, 0, err
		}
		if hn == 0 {
			return argv, 0, len(buf) + 1, nil
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return argv, 0, 0, protoErrf("expected bulk string, got %q", hdr)
		}
		ln, err := parseLen(hdr[1:])
		if err != nil {
			return argv, 0, 0, err
		}
		if ln < 0 || ln > maxBulk {
			return argv, 0, 0, protoErrf("bad bulk length %d (max %d)", ln, maxBulk)
		}
		pos += hn
		end := pos + ln
		if len(buf) < end+2 {
			return argv, 0, end + 2, nil
		}
		if buf[end] != '\r' || buf[end+1] != '\n' {
			return argv, 0, 0, protoErrf("bulk string not terminated by CRLF")
		}
		out = append(out, buf[pos:end:end])
		pos = end + 2
	}
	return out, pos, 0, nil
}

// Reply encoders. All append to the connection's reply buffer, which goes to
// the socket once per burst.

// appendSimple appends a +simple string reply.
func appendSimple(b []byte, s string) []byte {
	b = append(b, '+')
	b = append(b, s...)
	return append(b, '\r', '\n')
}

// appendError appends an -error reply. msg must not contain CR or LF.
func appendError(b []byte, msg string) []byte {
	b = append(b, '-')
	b = append(b, msg...)
	return append(b, '\r', '\n')
}

// appendInt appends a :integer reply.
func appendInt(b []byte, n int64) []byte {
	b = append(b, ':')
	b = strconv.AppendInt(b, n, 10)
	return append(b, '\r', '\n')
}

// appendBulk appends a $bulk string reply carrying v verbatim (binary-safe).
func appendBulk(b, v []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, '\r', '\n')
	b = append(b, v...)
	return append(b, '\r', '\n')
}

// appendNil appends the RESP2 null bulk reply ($-1), the "not found" answer.
func appendNil(b []byte) []byte { return append(b, "$-1\r\n"...) }

// appendArrayLen appends a *array header; the caller appends the elements.
func appendArrayLen(b []byte, n int) []byte {
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\r', '\n')
}
