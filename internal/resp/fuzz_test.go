package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"unsafe"
)

// refReadCommand is the reader the listener used before it parsed in place:
// one command off a bufio.Reader, every argument copied out. It stays here
// as the reference parse is compared against.
func refReadCommand(br *bufio.Reader, maxArgs, maxBulk int) ([][]byte, error) {
	readLine := func() ([]byte, error) {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err == bufio.ErrBufferFull {
				return nil, protoErrf("line longer than %d bytes", maxLineBytes)
			}
			return nil, err
		}
		if len(line) < 2 || line[len(line)-2] != '\r' {
			return nil, protoErrf("line not terminated by CRLF")
		}
		return line[:len(line)-2], nil
	}
	parseLen := func(b []byte) (int, error) {
		n, err := strconv.Atoi(string(b))
		if err != nil {
			return 0, protoErrf("bad length %q", b)
		}
		return n, nil
	}
	line, err := readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, nil
	}
	if line[0] != '*' {
		var args [][]byte
		for lo := 0; lo < len(line); {
			for lo < len(line) && line[lo] == ' ' {
				lo++
			}
			hi := lo
			for hi < len(line) && line[hi] != ' ' {
				hi++
			}
			if hi > lo {
				args = append(args, append([]byte(nil), line[lo:hi]...))
			}
			lo = hi
		}
		if len(args) > maxArgs {
			return nil, protoErrf("too many arguments (%d > %d)", len(args), maxArgs)
		}
		return args, nil
	}
	n, err := parseLen(line[1:])
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, protoErrf("bad array length %d", n)
	}
	if n > maxArgs {
		return nil, protoErrf("too many arguments (%d > %d)", n, maxArgs)
	}
	args := make([][]byte, n)
	for i := range args {
		hdr, err := readLine()
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, protoErrf("expected bulk string, got %q", hdr)
		}
		ln, err := parseLen(hdr[1:])
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > maxBulk {
			return nil, protoErrf("bad bulk length %d (max %d)", ln, maxBulk)
		}
		buf := make([]byte, ln+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		if buf[ln] != '\r' || buf[ln+1] != '\n' {
			return nil, protoErrf("bulk string not terminated by CRLF")
		}
		args[i] = buf[:ln]
	}
	return args, nil
}

// The fuzz runs with small limits so that short inputs reach them.
const (
	fuzzMaxArgs = 8
	fuzzMaxBulk = 64
)

// transcript is what a byte stream parses to: its commands, then the framing
// violation that ended it, if any. A stream that just stops, mid-command or
// not, ends with neither.
type transcript struct {
	cmds [][][]byte
	perr string
}

func (tr transcript) String() string { return fmt.Sprintf("%q then %q", tr.cmds, tr.perr) }

func refTranscript(data []byte) transcript {
	var tr transcript
	br := bufio.NewReaderSize(bytes.NewReader(data), maxLineBytes)
	for {
		args, err := refReadCommand(br, fuzzMaxArgs, fuzzMaxBulk)
		var pe *ProtoError
		switch {
		case errors.As(err, &pe):
			tr.perr = pe.Msg
			return tr
		case err != nil: // the stream ended
			return tr
		case args != nil:
			tr.cmds = append(tr.cmds, args)
		}
	}
}

// within reports whether arg's bytes lie inside buf's.
func within(arg, buf []byte) bool {
	if len(arg) == 0 {
		return true
	}
	if len(buf) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&buf[len(buf)-1]))
	first, last := uintptr(unsafe.Pointer(&arg[0])), uintptr(unsafe.Pointer(&arg[len(arg)-1]))
	return lo <= first && last <= hi
}

// parseTranscript drives parse over data the way a connection does, and
// checks on the way that no argument points outside the input.
func parseTranscript(t *testing.T, data []byte) transcript {
	var tr transcript
	var argv [][]byte
	for off := 0; ; {
		out, n, need, perr := parse(data[off:], argv[:0], fuzzMaxArgs, fuzzMaxBulk)
		if perr != nil {
			tr.perr = perr.Msg
			return tr
		}
		if n == 0 {
			if need <= len(data)-off {
				t.Fatalf("need %d of the %d bytes already there", need, len(data)-off)
			}
			return tr
		}
		if len(out) > 0 {
			cmd := make([][]byte, len(out))
			for i, a := range out {
				if !within(a, data[off:off+n]) {
					t.Fatalf("argument %d of the command at %d lies outside its bytes", i, off)
				}
				if cap(a) != len(a) {
					t.Fatalf("argument %d of the command at %d can be appended to in place", i, off)
				}
				cmd[i] = append([]byte(nil), a...)
			}
			tr.cmds = append(tr.cmds, cmd)
		}
		argv = out
		off += n
	}
}

// scriptedConn is the read side of a connection whose Reads return the
// given pieces, one each, then io.EOF.
type scriptedConn struct {
	net.Conn
	pieces [][]byte
}

func (s *scriptedConn) Read(b []byte) (int, error) {
	for len(s.pieces) > 0 && len(s.pieces[0]) == 0 {
		s.pieces = s.pieces[1:]
	}
	if len(s.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(b, s.pieces[0])
	s.pieces[0] = s.pieces[0][n:]
	return n, nil
}

// connTranscript runs the pieces through a connection's own buffer
// management — fill's compaction and growth, parseBurst's need gate — from a
// read buffer of the given size.
func connTranscript(srv *Server, bufBytes int, pieces ...[]byte) transcript {
	c := newConn(srv, &scriptedConn{pieces: pieces}, nil, nil)
	c.in = make([]byte, bufBytes)
	var tr transcript
	for {
		perr := c.parseBurst()
		for _, cm := range c.cmds {
			cmd := make([][]byte, cm.hi-cm.lo)
			for i, a := range c.argv[cm.lo:cm.hi] {
				cmd[i] = append([]byte(nil), a...)
			}
			tr.cmds = append(tr.cmds, cmd)
		}
		if perr != nil {
			tr.perr = perr.Msg
			return tr
		}
		if len(c.cmds) == 0 && c.fill() != nil {
			return tr
		}
	}
}

// FuzzParseCommand: arbitrary bytes never panic the parser, never yield an
// argument outside the input, parse to what the old bufio reader made of
// them, and parse the same however the stream is cut into Reads.
func FuzzParseCommand(f *testing.F) {
	for _, cv := range conformanceCases() {
		f.Add([]byte(cv.send), uint16(len(cv.send)/2))
	}
	for i, seed := range []string{
		"*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nQUIT\r\n",
		"*1\n$4\r\nPING\r\n",          // bare LF
		"*1\r\n$4\r\nPINGxx",          // bulk not terminated by CRLF
		"*1\r\n$-1\r\n",               // negative bulk length
		"*-3\r\n",                     // negative array length
		"*9\r\n",                      // over fuzzMaxArgs
		"*1\r\n$65\r\n",               // over fuzzMaxBulk
		"*+1\r\n$+4\r\nPING\r\n",      // Atoi takes a sign
		"*1\r\n$4_0\r\n",              // and no underscore
		"*99999999999999999999\r\n",   // overflow
		"*-9223372036854775808\r\n",   // the one negative that needs the extra bit
		"a b c d e f g h i\r\n",       // nine inline fields
		"  get   k  \r\n\r\n\r\nPING", // spaces, empty lines, an unfinished tail
		"\r",
		"",
	} {
		f.Add([]byte(seed), uint16(i))
	}
	// The longest line that fits, and one byte more.
	fits := bytes.Repeat([]byte{'a'}, maxLineBytes-2)
	f.Add(append(fits[:len(fits):len(fits)], "\r\nPING\r\n"...), uint16(maxLineBytes-1))
	f.Add(append(fits[:len(fits):len(fits)], "a\r\nPING\r\n"...), uint16(maxLineBytes-1))
	srv := NewServer(fakeBackend{}, Options{MaxArgs: fuzzMaxArgs, MaxValueBytes: fuzzMaxBulk, PipelineDepth: 3})

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		want := refTranscript(data)
		if got := parseTranscript(t, data); got.String() != want.String() {
			t.Fatalf("parse and the reference disagree:\n parse     %s\n reference %s", got, want)
		}
		if got := connTranscript(srv, readBufBytes, data); got.String() != want.String() {
			t.Fatalf("one Read:\n got  %s\n want %s", got, want)
		}
		// A sixteen-byte buffer makes nearly every command outgrow it.
		splits := []int{int(cut) % (len(data) + 1)}
		if len(data) <= 64 {
			splits = splits[:0]
			for i := 0; i <= len(data); i++ {
				splits = append(splits, i)
			}
		}
		for _, i := range splits {
			if got := connTranscript(srv, 16, data[:i], data[i:]); got.String() != want.String() {
				t.Fatalf("split at %d:\n got  %s\n want %s", i, got, want)
			}
		}
	})
}
