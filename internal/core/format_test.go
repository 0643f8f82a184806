package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"hdnh/internal/nvm"
)

// TestPersistedFormatPinned holds the on-device format still across changes
// that are meant to touch only DRAM state (the fingerprint derivation, the
// OCF, the hot table): a fixed single-session history on a pre-sized table
// must leave the exact image it left at the commit that recorded the hash
// below (PR 13, 2ba2a4d), and that image must reopen and serve every key.
// A change that moves record placement, the slot format or the root and
// meta words on purpose re-records the hash and says so.
func TestPersistedFormatPinned(t *testing.T) {
	const want = "f3d443b015ced94c39215865f97ac8760d8c7b8a3d6dad8dc4f3133cdd3e3708"
	const words = 1 << 17
	opts := DefaultOptions()
	opts.InitBottomSegments = 4 // 6144 slots: the history below never resizes
	dev, err := nvm.New(nvm.StrictConfig(words))
	if err != nil {
		t.Fatal(err)
	}
	r, err := CreateRouter(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.shards[0]
	created := tbl.Generation()
	s := sessionOn(tbl)
	const n = 3600
	for i := 0; i < n; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := s.Update(key(i), value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i < n; i += 11 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Generation() != created {
		t.Fatal("the table resized; the pinned history must not")
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	img := dev.PersistedImage()
	sum := sha256.New()
	var w [8]byte
	for _, word := range img {
		binary.LittleEndian.PutUint64(w[:], word)
		sum.Write(w[:])
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("persisted image hash %s, want %s: the on-device format or record placement changed", got, want)
	}

	redev, err := nvm.FromImage(nvm.StrictConfig(words), img)
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenRouter(redev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs := re.NewSession()
	for i := 0; i < n; i++ {
		v, ok := rs.Get(key(i))
		switch {
		case i%11 == 3:
			if ok {
				t.Fatalf("deleted key %d served after reopen", i)
			}
		case !ok:
			t.Fatalf("key %d missing after reopen", i)
		case i%7 == 0 && v != value(i+1), i%7 != 0 && v != value(i):
			t.Fatalf("key %d = %q after reopen", i, v.String())
		}
	}
	if errs := re.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants after reopen: %v", errs[0])
	}
}
