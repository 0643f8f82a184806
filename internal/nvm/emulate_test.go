package nvm

import (
	"testing"
	"time"
)

func TestEmulateModeDelaysReads(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := EmulateConfig(4096)
	cfg.ReadLatency = 20 * time.Microsecond // large enough to measure
	cfg.ReadBandwidth = 0
	cfg.WriteBandwidth = 0
	d := newTestDevice(t, cfg)
	h := d.NewHandle()

	start := time.Now()
	const reads = 20
	for i := 0; i < reads; i++ {
		h.ReadAccess(0, 8)
	}
	elapsed := time.Since(start)
	if want := reads * cfg.ReadLatency / 2; elapsed < want {
		t.Fatalf("20 emulated reads took %v, want at least %v", elapsed, want)
	}
}

func TestEmulateModeBandwidthThrottles(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := EmulateConfig(1 << 16)
	cfg.ReadLatency = 0
	cfg.WriteLatency = 0
	cfg.FenceLatency = 0
	cfg.ReadBandwidth = 32 << 20 // 32 MB/s: 1024 block reads = 256KB = ~8ms
	d := newTestDevice(t, cfg)
	h := d.NewHandle()

	start := time.Now()
	for i := 0; i < 1024; i++ {
		h.ReadAccess(0, BlockWords)
	}
	elapsed := time.Since(start)
	if elapsed < 4*time.Millisecond {
		t.Fatalf("1024 block reads at 32MB/s took %v, want >= 4ms", elapsed)
	}
}

func TestModelModeDoesNotDelay(t *testing.T) {
	cfg := DefaultConfig(4096)
	cfg.ReadLatency = time.Second // would be catastrophic if actually waited
	d := newTestDevice(t, cfg)
	h := d.NewHandle()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		h.ReadAccess(0, 8)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("model mode spent %v on 1000 reads", elapsed)
	}
	if h.Stats().ModeledNanos == 0 {
		t.Fatal("model mode must still accumulate modeled time")
	}
}

// TestBarrierChargesOneLineLikeFlush pins the staged-flush latency model: a
// one-line FlushBarrier is charged what a one-line Flush is (both wait one
// write latency), and each further line of a burst adds its bandwidth drain.
func TestBarrierChargesOneLineLikeFlush(t *testing.T) {
	cfg := DefaultConfig(4096)
	cfg.WriteBandwidth = 1 << 30 // the model charges bandwidth without waiting on it
	d := newTestDevice(t, cfg)
	drain := time.Duration(float64(time.Second) * CachelineBytes / float64(cfg.WriteBandwidth))

	flush, barrier := d.NewHandle(), d.NewHandle()
	flush.Flush(0, 1)
	barrier.StageFlush(0, 1)
	barrier.FlushBarrier()
	if f, b := flush.Stats().Modeled(), barrier.Stats().Modeled(); f != b || b != cfg.WriteLatency {
		t.Fatalf("one line: Flush charged %v, FlushBarrier %v, want both %v", f, b, cfg.WriteLatency)
	}

	burst := d.NewHandle()
	burst.StageFlush(0, 5*CachelineWords)
	burst.FlushBarrier()
	if got, want := burst.Stats().Modeled(), cfg.WriteLatency+4*drain; got != want {
		t.Fatalf("five-line barrier charged %v, want %v", got, want)
	}
}

func TestSpinWaitZeroReturnsImmediately(t *testing.T) {
	start := time.Now()
	spinWait(0)
	spinWait(-time.Second)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("spinWait(<=0) waited")
	}
}

func TestTokenBucketIdleCreditIsBounded(t *testing.T) {
	tb := newTokenBucket(1 << 30)
	time.Sleep(5 * time.Millisecond) // idle: credit must cap at ~1ms
	start := time.Now()
	tb.consume(4 << 20) // 4MB at 1GB/s ≈ 4ms of cost, ~1ms credit
	if time.Since(start) < time.Millisecond {
		t.Skip("scheduling noise; consume returned unexpectedly fast")
	}
}
