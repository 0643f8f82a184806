package core

import (
	"errors"
	"testing"

	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

func TestInsertErrFullOnDeviceExhaustion(t *testing.T) {
	// A deliberately tiny device: expansion eventually cannot allocate a
	// new level and Insert must surface scheme.ErrFull, leaving the table
	// readable.
	dev := newDev(t, 2048)
	opts := DefaultOptions()
	opts.SegmentBuckets = 4
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	inserted := 0
	var lastErr error
	for i := 0; i < 100000; i++ {
		lastErr = s.Insert(key(i), value(i))
		if lastErr != nil {
			break
		}
		inserted++
	}
	if lastErr == nil {
		t.Fatal("tiny device never filled")
	}
	if !errors.Is(lastErr, scheme.ErrFull) {
		t.Fatalf("expected ErrFull, got %v", lastErr)
	}
	if inserted == 0 {
		t.Fatal("nothing inserted before ErrFull")
	}
	// Everything inserted remains intact and readable.
	for i := 0; i < inserted; i++ {
		if v, ok := s.Get(key(i)); !ok || v != value(i) {
			t.Fatalf("key %d lost after ErrFull", i)
		}
	}
	// Deletes must still work and free space for a new insert.
	if err := s.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(key(999999), value(1)); err != nil {
		t.Fatalf("insert after freeing space: %v", err)
	}
}

func TestUpdateErrFullOnDeviceExhaustion(t *testing.T) {
	// Updates are out-of-place, so a completely slot-saturated candidate
	// set with an unexpandable device must produce ErrFull, not corruption.
	dev := newDev(t, 2048)
	opts := DefaultOptions()
	opts.SegmentBuckets = 4
	opts.maxExpansions = 2
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	inserted := 0
	for i := 0; i < 100000; i++ {
		if s.Insert(key(i), value(i)) != nil {
			break
		}
		inserted++
	}
	// Update every record; some may hit ErrFull (no free slot anywhere in
	// the candidate set), but none may corrupt or lose the record.
	for i := 0; i < inserted; i++ {
		err := s.Update(key(i), value(i+7))
		if err != nil && !errors.Is(err, scheme.ErrFull) {
			t.Fatalf("update %d: %v", i, err)
		}
		v, ok := s.Get(key(i))
		if !ok {
			t.Fatalf("key %d lost by update under pressure", i)
		}
		if v != value(i) && v != value(i+7) {
			t.Fatalf("key %d corrupt: %q", i, v.String())
		}
	}
}

func TestCreateOnTooSmallDevice(t *testing.T) {
	dev, err := nvm.New(nvm.DefaultConfig(nvm.SuperblockWords + nvm.BlockWords))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := create(dev, DefaultOptions()); err == nil {
		t.Fatal("Create on a device too small for one level succeeded")
	}
}

func TestMaxExpansionsBoundsWork(t *testing.T) {
	// With maxExpansions = 1 and a workload needing several doublings, the
	// insert stream must eventually return ErrFull instead of looping.
	dev := newDev(t, 1<<16)
	opts := DefaultOptions()
	opts.SegmentBuckets = 4
	opts.maxExpansions = 1
	tbl, err := create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	sawFull := false
	for i := 0; i < 100000; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			if !errors.Is(err, scheme.ErrFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	// Either the device was big enough for the whole run (fine) or the
	// error was ErrFull — never a hang, never another error.
	_ = sawFull
}
