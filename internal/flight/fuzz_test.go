package flight

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hdnh/internal/obs"
)

// FuzzFlightReader pins ReadBinary's hostile-input discipline: on arbitrary
// bytes it must return a Dump or an error — never panic, never allocate
// unboundedly — and accepted dumps must re-encode and re-read to the same
// events (the reader never invents data).
func FuzzFlightReader(f *testing.F) {
	// Seed with real dumps of increasing richness, plus truncations and
	// single-byte corruptions of a valid dump.
	r := New(Config{RingEvents: 32, SlowOpThreshold: 1})
	tr := r.Handle("session")
	b := tr.OpBegin(obs.OpGet)
	tr.Probe(3, 1, 2)
	time.Sleep(5 * time.Microsecond)
	tr.OpEnd(obs.OpGet, obs.OutMiss, b)
	tr.GCPhase(GCPersist, 4, time.Microsecond, 7)
	tr.RecoveryStep(recHot, time.Microsecond, 3)

	var valid bytes.Buffer
	if err := WriteBinary(&valid, r.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var empty bytes.Buffer
	WriteBinary(&empty, Dump{})
	f.Add(empty.Bytes())
	for _, cut := range []int{1, 15, 16, 20, len(valid.Bytes()) - 7} {
		if cut > 0 && cut < valid.Len() {
			f.Add(valid.Bytes()[:cut])
		}
	}
	for _, flip := range []int{0, 8, 16, 21, 40} {
		if flip < valid.Len() {
			mut := bytes.Clone(valid.Bytes())
			mut[flip] ^= 0x80
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadDump) {
				t.Fatalf("non-ErrBadDump error: %v", err)
			}
			return
		}
		// Anything accepted must survive a write/read round trip intact.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatalf("re-encoding accepted dump: %v", err)
		}
		d2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading re-encoded dump: %v", err)
		}
		if len(d2.Rings) != len(d.Rings) || len(d2.Events) != len(d.Events) || len(d2.Slow) != len(d.Slow) {
			t.Fatalf("round trip changed shape: %d/%d/%d -> %d/%d/%d",
				len(d.Rings), len(d.Events), len(d.Slow),
				len(d2.Rings), len(d2.Events), len(d2.Slow))
		}
		for i := range d.Events {
			if d.Events[i] != d2.Events[i] {
				t.Fatalf("round trip changed event %d", i)
			}
		}
	})
}
