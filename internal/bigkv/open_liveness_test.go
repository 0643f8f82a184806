package bigkv

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/vlog"
)

// Open rebuilds the per-segment live-word counters from the pointers the
// recovered index holds and reads no log record to do it. These tests pin
// what that buys (cost independent of dead log, counts immune to damage in
// dead records), what it must refuse (a pointer into nothing), and keep the
// old log-driven recount alive as an oracle that shares no code with it.

// auditLivenessFromLog is the recount Open used to run, kept as a reference:
// walk every SEALED and ACTIVE segment's records, ask the index whether it
// still points at each one, and compare the per-segment sums with the
// maintained counters. AuditLiveness right after an Open compares the index
// with itself; this compares it with the log. Valid on a quiesced store
// whose log holds no damaged record (a segment walk stops at the first bad
// header).
func auditLivenessFromLog(t *testing.T, st *Store, when string) {
	t.Helper()
	if err := st.WaitRecovered(); err != nil { // the counters are whole once the sweep is over
		t.Fatalf("%s: %v", when, err)
	}
	h := st.dev.NewHandle()
	for si, log := range st.logs {
		s := st.idx.NewShardSession(si)
		for seg := int64(0); seg < log.Segments(); seg++ {
			if state := log.State(seg); state != vlog.SegSealed && state != vlog.SegActive {
				if got := log.SegLive(seg); got != 0 {
					t.Errorf("%s: shard %d %s segment %d counts %d live words", when, si, state, seg, got)
				}
				continue
			}
			var want int64
			log.ScanSegment(h, seg, func(addr, words int64, key kv.Key, _ []byte) bool {
				if sv, ok := s.Get(key); ok && sv == packPointer(addr, words) {
					want += words
				}
				return true
			})
			if got := log.SegLive(seg); got != want {
				t.Errorf("%s: shard %d segment %d live counter %d, log walk says %d", when, si, seg, got, want)
			}
		}
		s.Close()
	}
	if t.Failed() {
		t.FailNow()
	}
}

// recordHeaderOff returns the device word holding the header of the record
// at addr in log — the one place these tests spell out the log's layout
// (meta block: 4 words plus 2 per segment, rounded up to a media block). The
// caller proves the offset right by finding the expected header there.
func recordHeaderOff(log *vlog.Log, addr int64) int64 {
	meta := 4 + 2*log.Segments()
	meta = (meta + nvm.BlockWords - 1) / nvm.BlockWords * nvm.BlockWords
	return log.Base() + meta + addr
}

// TestOpenLivenessIgnoresDamagedDeadRecord: a sealed segment whose first
// record is dead and damaged, followed by live records. A recount that walks
// the log stops at the bad header, counts the segment empty, and the next GC
// pass zeroes seven live values; the index-driven recount never looks at the
// dead record.
func TestOpenLivenessIgnoresDamagedDeadRecord(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SegmentWords = 256
	opts.Segments = 8
	opts.DisableAutoGC = true
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	key := func(i int) []byte { return []byte(fmt.Sprintf("dmg-%02d", i)) }
	val := func(i, gen int) []byte { return bytes.Repeat([]byte{byte(i), byte(gen)}, 40) }
	s := st.NewSession()
	for i := 0; i < keys; i++ {
		if err := s.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st.Log().SealActive(st.h)
	if st.Log().State(0) != vlog.SegSealed {
		t.Fatalf("segment 0 is %s, want sealed", st.Log().State(0))
	}
	// Overwrite key 0: its first record, at address 0, is now dead.
	if err := s.Put(key(0), val(0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	k0, _ := kv.MakeKey(key(0))
	off := recordHeaderOff(st.Log(), 0)
	if want := uint64(len(val(0, 0)))<<32 | uint64(vlog.Checksum(k0, val(0, 0))); dev.Load(off) != want {
		t.Fatalf("word %d holds %#x, not the header of the record at address 0 (%#x)", off, dev.Load(off), want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dev.NewHandle().StorePersist(off, 0xffff<<32|0xdead) // absurd length, wrong checksum

	st2, err := Open(dev, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st2.Close()
	if err := st2.AuditLiveness(); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
	if got := st2.Log().SegLive(0); got != (keys-1)*vlog.RecordWords(len(val(1, 0))) {
		t.Fatalf("segment 0 counts %d live words, want the %d live records' %d", got, keys-1, (keys-1)*vlog.RecordWords(len(val(1, 0))))
	}
	drainGC(t, st2)
	s2 := st2.NewSession()
	defer s2.Close()
	for i := 0; i < keys; i++ {
		gen := 0
		if i == 0 {
			gen = 1
		}
		got, ok, err := s2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(got, val(i, gen)) {
			t.Errorf("key %d after reopen and GC: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestOpenRejectsDanglingPointer: an index entry whose pointer lands in a
// FREE segment, or past the appended words of the active one, must fail the
// recovery loudly — Open plus WaitRecovered — counted dead it would surface
// only when someone reads the key. The entries are written through the index
// itself, so each is as durable as any other.
func TestOpenRejectsDanglingPointer(t *testing.T) {
	cases := []struct {
		name  string
		addr  func(log *vlog.Log) int64
		words int64
	}{
		{"free-segment", func(log *vlog.Log) int64 { return 3 * log.SegmentWords() }, 8},
		{"past-active-head", func(log *vlog.Log) int64 { return log.SegUsed(0) - 4 }, 8},
		{"outside-the-log", func(log *vlog.Log) int64 { return log.Capacity() + 5 }, 8},
	}
	for _, shards := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("shards%d/%s", shards, tc.name), func(t *testing.T) {
				dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultOptions()
				opts.Table.Shards = shards
				opts.SegmentWords = 256
				opts.Segments = 8 * int64(shards)
				opts.DisableAutoGC = true
				st, err := Create(dev, opts)
				if err != nil {
					t.Fatal(err)
				}
				s := st.NewSession()
				for i := 0; i < 10*shards; i++ { // a few honest records in every shard's log
					if err := s.Put([]byte(fmt.Sprintf("ok-%02d", i)), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
						t.Fatal(err)
					}
				}
				s.Close()
				k, _ := kv.MakeKey([]byte("dangling"))
				shard := st.idx.ShardForKey(k)
				log := st.logs[shard]
				if log.State(0) != vlog.SegActive || log.State(3) != vlog.SegFree {
					t.Fatalf("shard %d segments 0 and 3 are %s and %s, want active and free", shard, log.State(0), log.State(3))
				}
				addr := tc.addr(log)
				is := st.idx.NewSession()
				if _, _, err := is.PutExchange(k, packPointer(addr, tc.words)); err != nil {
					t.Fatal(err)
				}
				is.Close()
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				for attempt := 0; attempt < 2; attempt++ { // the failed Open leaves nothing behind that blocks the next
					// Open serves at once; the recovery sweep finds the
					// pointer. A Get of the key, which builds its segment
					// itself if the sweep has not, fails and serves nothing,
					// and WaitRecovered and the audit report it.
					st2, err := Open(dev, opts)
					if err == nil {
						s2 := st2.NewSession()
						if v, _, gerr := s2.Get([]byte("dangling")); !errors.Is(gerr, vlog.ErrCorrupt) || v != nil {
							t.Fatalf("Get of the dangling key = %q, %v; want nothing and vlog.ErrCorrupt", v, gerr)
						}
						s2.Close()
						err = st2.WaitRecovered()
						if aerr := st2.AuditLiveness(); aerr == nil || aerr.Error() != fmt.Sprint(err) {
							t.Fatalf("AuditLiveness = %v, WaitRecovered = %v; want the same corruption", aerr, err)
						}
						st2.Close()
					}
					if err == nil {
						t.Fatalf("Open accepted a pointer to address %d", addr)
					}
					if !errors.Is(err, vlog.ErrCorrupt) {
						t.Fatalf("Open error %q does not wrap vlog.ErrCorrupt", err)
					}
					if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("shard %d", shard)) || !strings.Contains(msg, fmt.Sprintf("address %d", addr)) {
						t.Fatalf("Open error %q names neither shard %d nor address %d", msg, shard, addr)
					}
				}
			})
		}
	}
}

// openBlockReads returns the media block reads charged to every handle the
// Open that built st created: the index shards' recovery handles and the
// store's own, which opens the logs (and has done nothing else yet).
func openBlockReads(st *Store) uint64 {
	reads := st.h.Stats().MediaBlockReads
	for _, rs := range st.idx.LastRecovery() {
		reads += rs.MediaBlockReads
	}
	return reads
}

// TestOpenDoesNotReadDeadLog pins the mechanism with counts, not a clock:
// two stores hold the same keys in tables of the same size, one with an
// empty log (inline values) and one with a log that is nine tenths dead
// records. Open may read one state word pair per segment and the active
// segment's unsynced tail; it used to read every record.
func TestOpenDoesNotReadDeadLog(t *testing.T) {
	const (
		keys     = 2000
		versions = 10
	)
	opts := DefaultOptions()
	opts.SegmentWords = 1 << 12
	opts.Segments = 128
	opts.DisableAutoGC = true
	build := func(logged bool) (*Store, uint64) {
		t.Helper()
		dev, err := nvm.New(nvm.DefaultConfig(1 << 23))
		if err != nil {
			t.Fatal(err)
		}
		st, err := Create(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := st.NewSession()
		for gen := 0; gen < versions; gen++ {
			for i := 0; i < keys; i++ {
				v := []byte{byte(i), byte(i >> 8), byte(gen)}
				if logged {
					v = bytes.Repeat(v, 30)
				}
				if err := s.Put([]byte(fmt.Sprintf("cnt-%05d", i)), v); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st2.Close() })
		auditLivenessFromLog(t, st2, "after reopen")
		return st2, openBlockReads(st2)
	}
	empty, emptyReads := build(false)
	dead, deadReads := build(true)
	if empty.Log().UsedWords() != 0 {
		t.Fatalf("inline store appended %d log words", empty.Log().UsedWords())
	}
	used, live := dead.Log().UsedWords(), dead.Log().LiveWords()
	if live == 0 || used < versions*live {
		t.Fatalf("logged store: %d of %d log words live, want a log at least %d/%d dead", live, used, versions-1, versions)
	}
	if empty.Index().Capacity() != dead.Index().Capacity() {
		t.Fatalf("index capacities differ (%d, %d): the two Opens walk different tables", empty.Index().Capacity(), dead.Index().Capacity())
	}
	// headSyncInterval is 1024 words; one block more for a tail that starts
	// mid-block.
	allowance := uint64(dead.Log().Segments() + 1024/nvm.BlockWords + 1)
	t.Logf("Open read %d media blocks over an empty log, %d over %d log blocks (%d live); allowance %d",
		emptyReads, deadReads, used/nvm.BlockWords, live/nvm.BlockWords, allowance)
	if emptyReads == 0 {
		t.Fatal("Open over the empty log charged no reads: the count is not wired")
	}
	if deadReads > emptyReads+allowance {
		t.Fatalf("Open read %d media blocks with a dead log, %d with an empty one: %d more, allowance %d",
			deadReads, emptyReads, deadReads-emptyReads, allowance)
	}
}
