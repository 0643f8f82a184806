package bigkv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hdnh/internal/nvm"
)

// TestSweepRacesLoggedWrites reopens a two-shard store and races its
// recovery sweep with readers and writers — logged and inline puts,
// deletes, a batch — then checks the index's invariants and that the
// liveness the sweep rebuilt met every retire the writers made: a write that
// reaches a record first builds its segment, visitor call included, before
// it retires the record. Run it under -race at -cpu 1,2.
func TestSweepRacesLoggedWrites(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Table.Shards = 2
	opts.Table.SegmentBuckets = 16
	opts.Table.InitBottomSegments = 8
	const n = 800
	val := func(i, gen int) []byte {
		if i%2 == 0 {
			return []byte(fmt.Sprintf("v%d.%d", i, gen)) // inline
		}
		return bytes.Repeat([]byte(fmt.Sprintf("logged %d.%d ", i, gen)), 6)
	}
	st, err := Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	gen := 0
	for round := 0; round < 3; round++ {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Open(dev, opts); err != nil {
			t.Fatal(err)
		}
		gen++
		const writers = 3
		var wg sync.WaitGroup
		errs := make(chan error, 2*writers)
		for g := 0; g < writers; g++ {
			wg.Add(2)
			go func(g int) { // writer: rewrites its keys ≡ g mod writers, those ≡ 0 mod 4 excepted
				defer wg.Done()
				s := st.NewSession()
				defer s.Close()
				var batchKeys, batchVals [][]byte
				for i := g; i < n; i += writers {
					if i%4 == 0 {
						continue
					}
					k := []byte(fmt.Sprintf("k%05d", i))
					if i%4 == 3 { // these go through the batch
						batchKeys, batchVals = append(batchKeys, k), append(batchVals, val(i, gen))
						continue
					}
					if err := s.Put(k, val(i, gen)); err != nil {
						errs <- fmt.Errorf("writer %d key %d: %w", g, i, err)
						return
					}
				}
				for j, err := range s.MultiPut(batchKeys, batchVals) {
					if err != nil {
						errs <- fmt.Errorf("writer %d batch key %s: %w", g, batchKeys[j], err)
						return
					}
				}
			}(g)
			go func(g int) { // reader: keys ≡ 0 mod 4 keep their first value
				defer wg.Done()
				s := st.NewSession()
				defer s.Close()
				for i := 4 * g; i < n; i += 4 * writers {
					v, ok, err := s.Get([]byte(fmt.Sprintf("k%05d", i)))
					if err != nil || !ok || !bytes.Equal(v, val(i, 0)) {
						errs <- fmt.Errorf("reader %d: key %d = %q, %v, %v", g, i, v, ok, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := st.WaitRecovered(); err != nil {
			t.Fatal(err)
		}
		if errs := st.Index().CheckInvariants(); len(errs) != 0 {
			t.Fatalf("round %d: %v", round, errs[0])
		}
		if err := st.AuditLiveness(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		auditLivenessFromLog(t, st, fmt.Sprintf("round %d", round))
		s := st.NewSession()
		for i := 0; i < n; i++ {
			want := val(i, gen)
			if i%4 == 0 {
				want = val(i, 0)
			}
			if v, ok, err := s.Get([]byte(fmt.Sprintf("k%05d", i))); err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("round %d: key %d = %q, %v, %v; want %q", round, i, v, ok, err, want)
			}
		}
		s.Close()
	}
	st.Close()
}
