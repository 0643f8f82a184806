package core

import (
	"errors"
	"sync"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/scheme"
)

func TestUpdateExchangeReturnsOldValue(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	old, err := s.UpdateExchange(key(1), value(2))
	if err != nil {
		t.Fatal(err)
	}
	if old != value(1) {
		t.Fatalf("exchange returned %v, want %v", old, value(1))
	}
	if got, ok := s.Get(key(1)); !ok || got != value(2) {
		t.Fatalf("after exchange got %v %v", got, ok)
	}
	if _, err := s.UpdateExchange(key(2), value(9)); !errors.Is(err, scheme.ErrNotFound) {
		t.Fatalf("exchange of absent key: %v", err)
	}
}

func TestUpdateIfConditional(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(1)); err != nil {
		t.Fatal(err)
	}
	// Matching expectation: the update lands.
	if err := s.UpdateIf(key(1), value(1), value(2)); err != nil {
		t.Fatal(err)
	}
	// Stale expectation: aborted, nothing changed.
	if err := s.UpdateIf(key(1), value(1), value(3)); !errors.Is(err, scheme.ErrConflict) {
		t.Fatalf("stale UpdateIf: %v", err)
	}
	if got, _ := s.Get(key(1)); got != value(2) {
		t.Fatalf("aborted UpdateIf changed the value to %v", got)
	}
	// The key must remain usable after the aborted attempt (slot unlocked).
	if err := s.Update(key(1), value(4)); err != nil {
		t.Fatalf("update after aborted UpdateIf: %v", err)
	}
	if err := s.UpdateIf(key(2), value(1), value(2)); !errors.Is(err, scheme.ErrNotFound) {
		t.Fatalf("UpdateIf of absent key: %v", err)
	}
}

func TestDeleteExchangeReturnsOldValue(t *testing.T) {
	tbl := newTable(t, nil)
	s := sessionOn(tbl)
	if err := s.Insert(key(1), value(7)); err != nil {
		t.Fatal(err)
	}
	old, err := s.DeleteExchange(key(1))
	if err != nil {
		t.Fatal(err)
	}
	if old != value(7) {
		t.Fatalf("delete exchange returned %v, want %v", old, value(7))
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("key survived DeleteExchange")
	}
	if _, err := s.DeleteExchange(key(1)); !errors.Is(err, scheme.ErrNotFound) {
		t.Fatalf("second delete: %v", err)
	}
}

// TestExchangeObservesEachValueOnce is the accounting property bigkv's
// liveness counters rely on: with writers racing UpdateExchange and
// DeleteExchange on one key, every committed value is observed as "old"
// by exactly one subsequent winner (or survives as the final value).
func TestExchangeObservesEachValueOnce(t *testing.T) {
	tbl := newTable(t, nil)
	boot := sessionOn(tbl)
	if err := boot.Insert(key(1), value(0)); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 200
	var mu sync.Mutex
	displaced := map[kv.Value]int{}
	written := map[kv.Value]bool{value(0): true}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessionOn(tbl)
			for i := 0; i < perWorker; i++ {
				v := value(1 + w*perWorker + i)
				old, err := s.UpdateExchange(key(1), v)
				switch {
				case err == nil:
					mu.Lock()
					displaced[old]++
					written[v] = true
					mu.Unlock()
				case errors.Is(err, scheme.ErrNotFound):
					// A concurrent deleter (below) removed the key; put it back
					// so the churn continues.
					if err := s.Insert(key(1), v); err == nil {
						mu.Lock()
						written[v] = true
						mu.Unlock()
					}
				case errors.Is(err, scheme.ErrContended):
				default:
					t.Errorf("exchange: %v", err)
					return
				}
				if i%17 == 0 {
					if old, err := s.DeleteExchange(key(1)); err == nil {
						mu.Lock()
						displaced[old]++
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := sessionOn(tbl)
	if final, ok := s.Get(key(1)); ok {
		displaced[final]++
	}
	for v, n := range displaced {
		if n != 1 {
			t.Fatalf("value %v observed %d times, want exactly 1", v, n)
		}
		if !written[v] {
			t.Fatalf("value %v displaced but never written", v)
		}
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
