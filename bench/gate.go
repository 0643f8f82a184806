package main

import (
	"fmt"

	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
)

const (
	gatePuts    = 2000
	gateDeletes = 500
)

// durabilityGate checks what no timed run can: that an acknowledged write
// survives a power failure. On a strict-mode device it acknowledges 2,000
// Puts (inline and 128-byte, alternating) and 500 Deletes, halts background
// work, crashes the device with no unflushed line surviving and without
// closing the store, opens the store from the persisted image, and expects
// every Put readable and every Delete absent. Operations count into res as
// attempted/failed.
func durabilityGate(seed uint64, res *result) error {
	cfg := nvm.StrictConfig(1 << 22)
	cfg.EvictProb = 0
	cfg.Seed = seed
	dev, err := nvm.New(cfg)
	if err != nil {
		return err
	}
	opts := bigkv.DefaultOptions()
	opts.Table.SyncWrites = false // no writer pool: the store is abandoned at the crash, not closed
	opts.DisableAutoGC = true
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		return err
	}
	keys := newKeySet(seed, tagPresent, gatePuts)
	valueLen := func(i int) int {
		if i%2 == 0 {
			return 8
		}
		return loggedLen
	}
	s := st.NewSession()
	buf := make([]byte, loggedLen)
	fail := func(format string, args ...any) {
		res.Failed++
		res.problem("durability gate: "+format, args...)
	}
	for i := 0; i < gatePuts; i++ {
		v := buf[:valueLen(i)]
		fillValue(v, uint32(i), 0)
		if err := s.Put(keys.at(i), v); err != nil {
			fail("put %d: %v", i, err)
		}
	}
	for i := 0; i < gateDeletes; i++ {
		if err := s.Delete(keys.at(i)); err != nil {
			fail("delete %d: %v", i, err)
		}
	}
	res.Attempted += gatePuts + gateDeletes
	// After a power failure nothing runs. Here the abandoned store's drain
	// workers would: 2,000 inserts grow the default table, and a drain still
	// in flight keeps writing into the device under the reopened store (half
	// of all gates failed that way when looped). StopBackground lets the
	// drain finish and marks nothing clean.
	st.Index().StopBackground()
	if err := dev.Crash(); err != nil {
		return fmt.Errorf("durability gate: crash: %w", err)
	}
	st2, err := bigkv.Open(dev, opts)
	if err != nil {
		return fmt.Errorf("durability gate: open after crash: %w", err)
	}
	defer st2.Close()
	s2 := st2.NewSession()
	defer s2.Close()
	for i := 0; i < gatePuts; i++ {
		v, ok, err := s2.Get(keys.at(i))
		switch {
		case err != nil:
			fail("get %d after crash: %v", i, err)
		case i < gateDeletes && ok:
			fail("deleted key %d is back after the crash", i)
		case i >= gateDeletes && (!ok || !checkValue(v, uint32(i), valueLen(i))):
			fail("acknowledged key %d lost or damaged by the crash", i)
		}
	}
	res.Attempted += gatePuts
	if err := st2.AuditLiveness(); err != nil {
		fail("liveness after crash: %v", err)
	}
	return nil
}
