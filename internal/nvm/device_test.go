package nvm

import (
	"bytes"
	"flag"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"too small", func(c *Config) { c.Words = SuperblockWords - 1 }, false},
		{"unaligned", func(c *Config) { c.Words = BlockWords*4 + 1 }, false},
		{"bad evict prob", func(c *Config) { c.EvictProb = 1.5 }, false},
		{"evict prob zero", func(c *Config) { c.EvictProb = 0 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1024)
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeModel: "model", ModeEmulate: "emulate", ModeStrict: "strict", Mode(9): "Mode(9)"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestModeSetRoundTrip(t *testing.T) {
	var _ flag.Value = new(Mode)
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{ModeModel.String(), ModeModel, true},
		{ModeEmulate.String(), ModeEmulate, true},
		{ModeStrict.String(), ModeStrict, true},
		{"", 0, false},
		{"bogus", 0, false},
		{"Mode(9)", 0, false},
	} {
		m := Mode(-1)
		err := m.Set(tc.in)
		if tc.ok && (err != nil || m != tc.want) {
			t.Errorf("Set(%q) = %v, mode %v; want %v", tc.in, err, m, tc.want)
		}
		if !tc.ok && (err == nil || m != Mode(-1)) {
			t.Errorf("Set(%q) = %v, mode %v; want an error and no change", tc.in, err, m)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(1024))
	d.Store(100, 0xdeadbeef)
	if got := d.Load(100); got != 0xdeadbeef {
		t.Fatalf("Load(100) = %#x, want 0xdeadbeef", got)
	}
	if got := d.Load(101); got != 0 {
		t.Fatalf("Load(101) = %#x, want 0 (untouched word)", got)
	}
}

func TestCAS(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(1024))
	d.Store(64, 7)
	if d.CAS(64, 8, 9) {
		t.Fatal("CAS with wrong old value succeeded")
	}
	if !d.CAS(64, 7, 9) {
		t.Fatal("CAS with correct old value failed")
	}
	if got := d.Load(64); got != 9 {
		t.Fatalf("after CAS, Load = %d, want 9", got)
	}
}

func TestAdd(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(1024))
	if got := d.Add(70, 5); got != 5 {
		t.Fatalf("Add returned %d, want 5", got)
	}
	if got := d.Add(70, 3); got != 8 {
		t.Fatalf("second Add returned %d, want 8", got)
	}
}

func TestConcurrentStoresAreAtomic(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(1024))
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d.Add(128, 1)
			}
		}()
	}
	wg.Wait()
	if got := d.Load(128); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestSpanHelpers(t *testing.T) {
	cases := []struct {
		w, n           int64
		blocks, caches int64
	}{
		{0, 0, 0, 0},
		{0, 1, 1, 1},
		{0, 32, 1, 4},
		{31, 2, 2, 1}, // crosses a block boundary but stays in line 3..4? words 31,32: lines 3,4
		{0, 33, 2, 5},
		{60, 8, 2, 2},
	}
	for _, tc := range cases {
		if got := blocksSpanned(tc.w, tc.n); got != tc.blocks {
			t.Errorf("blocksSpanned(%d,%d) = %d, want %d", tc.w, tc.n, got, tc.blocks)
		}
	}
	if got := linesSpanned(0, 8); got != 1 {
		t.Errorf("linesSpanned(0,8) = %d, want 1", got)
	}
	if got := linesSpanned(7, 2); got != 2 {
		t.Errorf("linesSpanned(7,2) = %d, want 2", got)
	}
}

func TestSpanHelpersProperty(t *testing.T) {
	// Spanned counts must equal the size of the set of distinct block/line
	// indexes covered by the range.
	f := func(wRaw uint16, nRaw uint8) bool {
		w := int64(wRaw)
		n := int64(nRaw)
		distinct := func(unit int64) int64 {
			seen := map[int64]struct{}{}
			for i := int64(0); i < n; i++ {
				seen[(w+i)/unit] = struct{}{}
			}
			return int64(len(seen))
		}
		return blocksSpanned(w, n) == distinct(BlockWords) && linesSpanned(w, n) == distinct(CachelineWords)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHandleAccounting(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(4096))
	h := d.NewHandle()

	h.ReadAccess(0, 32) // exactly one block
	h.ReadAccess(30, 4) // straddles two blocks
	s := h.Stats()
	if s.ReadAccesses != 2 || s.ReadWords != 36 || s.MediaBlockReads != 3 {
		t.Fatalf("read stats = %+v, want accesses=2 words=36 blocks=3", s)
	}

	h.WriteWords(512, []uint64{1, 2, 3})
	h.Flush(512, 3)
	h.Fence()
	s = h.Stats()
	if s.WriteAccesses != 1 || s.WriteWords != 3 {
		t.Fatalf("write stats = %+v, want accesses=1 words=3", s)
	}
	if s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("flush/fence stats = %+v, want 1/1", s)
	}
	if s.ModeledNanos == 0 {
		t.Fatal("modeled time did not accumulate")
	}
	for i := int64(0); i < 3; i++ {
		if got := d.Load(512 + i); got != uint64(i+1) {
			t.Fatalf("word %d = %d, want %d", 512+i, got, i+1)
		}
	}

	h.ResetStats()
	if h.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestReadWords(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(1024))
	h := d.NewHandle()
	h.WriteWords(256, []uint64{10, 20, 30, 40})
	dst := make([]uint64, 4)
	h.ReadWords(256, dst)
	for i, want := range []uint64{10, 20, 30, 40} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want)
		}
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{ReadAccesses: 3, ReadWords: 12, MediaBlockReads: 4, WriteAccesses: 1, WriteWords: 2, Flushes: 5, Fences: 6, ModeledNanos: 700}
	b := Stats{ReadAccesses: 1, ReadWords: 4, MediaBlockReads: 1, WriteAccesses: 1, WriteWords: 1, Flushes: 2, Fences: 3, ModeledNanos: 200}
	var sum Stats
	sum.Add(a)
	sum.Add(b)
	if sum.ReadAccesses != 4 || sum.Flushes != 7 || sum.ModeledNanos != 900 {
		t.Fatalf("Add produced %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub produced %+v, want %+v", diff, a)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{ReadWords: 4, MediaBlockReads: 1, WriteWords: 8, ModeledNanos: uint64(time.Microsecond)}
	if s.ReadBytes() != 32 || s.WriteBytes() != 64 || s.MediaReadBytes() != 256 {
		t.Fatalf("byte helpers wrong: %+v", s)
	}
	if amp := s.ReadAmplification(); amp != 8 {
		t.Fatalf("ReadAmplification = %v, want 8", amp)
	}
	if (Stats{}).ReadAmplification() != 0 {
		t.Fatal("zero stats should have zero amplification")
	}
	if s.Modeled() != time.Microsecond {
		t.Fatalf("Modeled = %v", s.Modeled())
	}
	if s.String() == "" {
		t.Fatal("String is empty")
	}
}

func TestMergeStats(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(1024))
	h1, h2 := d.NewHandle(), d.NewHandle()
	h1.ReadAccess(0, 8)
	h2.ReadAccess(0, 8)
	h2.Fence()
	total := MergeStats([]*Handle{h1, h2})
	if total.ReadAccesses != 2 || total.Fences != 1 {
		t.Fatalf("MergeStats = %+v", total)
	}
}

func TestSaveLoadImage(t *testing.T) {
	d := newTestDevice(t, DefaultConfig(2048))
	h := d.NewHandle()
	h.WriteWords(1000, []uint64{11, 22, 33})
	h.Flush(1000, 3)
	d.SetRoot(h, 0, 1000)

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	img, err := ReadImage(&buf)
	if err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	d2, err := FromImage(DefaultConfig(2048), img)
	if err != nil {
		t.Fatalf("FromImage: %v", err)
	}
	if got := d2.Root(0); got != 1000 {
		t.Fatalf("restored root = %d, want 1000", got)
	}
	if got := d2.Load(1001); got != 22 {
		t.Fatalf("restored word = %d, want 22", got)
	}
}

func TestReadImageRejectsGarbage(t *testing.T) {
	if _, err := ReadImage(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Fatal("ReadImage accepted zero magic")
	}
	if _, err := ReadImage(bytes.NewReader(nil)); err == nil {
		t.Fatal("ReadImage accepted empty input")
	}
}

func TestFromImageValidatesSuperblock(t *testing.T) {
	img := make([]uint64, 1024)
	if _, err := FromImage(DefaultConfig(1024), img); err == nil {
		t.Fatal("FromImage accepted an unformatted image")
	}
	if _, err := FromImage(DefaultConfig(2048), img); err == nil {
		t.Fatal("FromImage accepted a size mismatch")
	}
}
