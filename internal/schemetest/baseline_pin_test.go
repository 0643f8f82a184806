package schemetest_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"hdnh/internal/cceh"
	"hdnh/internal/kv"
	"hdnh/internal/levelhash"
	"hdnh/internal/nvm"
	"hdnh/internal/pathhash"
	"hdnh/internal/rewo"
	"hdnh/internal/scheme"
)

// The baseline pins hold the four baselines' persistence protocol still: the
// device calls each operation makes (every ReadAccess, WriteAccess, Flush,
// Fence and StorePersist, by offset and length) and the image a fixed history
// leaves. A change that only moves code between packages must pass both
// unmodified. The numbers below were recorded at commit a3b85a9; a change
// that fixes what a baseline charges re-records them and says so.

// counts flattens nvm.Stats in field order: ReadAccesses, ReadWords,
// MediaBlockReads, WriteAccesses, WriteWords, Flushes, Fences, ModeledNanos.
type counts [8]uint64

func countsOf(s nvm.Stats) counts {
	return counts{s.ReadAccesses, s.ReadWords, s.MediaBlockReads,
		s.WriteAccesses, s.WriteWords, s.Flushes, s.Fences, s.ModeledNanos}
}

const pinOps = 1000

func pinKey(i int) kv.Key      { return kv.MustKey([]byte(fmt.Sprintf("pin-key-%06d", i))) }
func pinMiss(i int) kv.Key     { return kv.MustKey([]byte(fmt.Sprintf("pin-miss-%06d", i))) }
func pinVal(i int) kv.Value    { return kv.MustValue([]byte(fmt.Sprintf("pin-val-%06d", i))) }
func pinUpdate(i int) kv.Value { return kv.MustValue([]byte(fmt.Sprintf("upd-%06d", i))) }

// wantAccessCounts is each session's device traffic over 1,000 operations of
// one kind, on a store presized for 4,000 records (it never resizes).
var wantAccessCounts = map[string]map[string]counts{
	"LEVEL": {
		"insert":   {17261, 69044, 17261, 36522, 38522, 36522, 2000, 8890500},
		"get-hit":  {1261, 5044, 1261, 2522, 2522, 2522, 0, 630500},
		"get-miss": {16000, 64000, 16000, 32000, 32000, 32000, 0, 8000000},
		"update":   {1261, 5044, 1261, 4522, 6522, 4522, 2000, 890500},
		"delete":   {1261, 5044, 1261, 3522, 3522, 3522, 1000, 760500},
	},
	"CCEH": {
		"insert":   {6000, 34000, 6000, 4000, 6000, 4000, 2000, 2260000},
		"get-hit":  {2015, 9120, 2015, 2000, 2000, 2000, 0, 804500},
		"get-miss": {5000, 33000, 5000, 2000, 2000, 2000, 0, 1700000},
		"update":   {2015, 9120, 2015, 4000, 6000, 4000, 2000, 1064500},
		"delete":   {2015, 9120, 2015, 3000, 3000, 3000, 1000, 934500},
	},
	"CCEH-DRAMDIR": {
		"insert":   {4000, 32000, 4000, 4000, 6000, 4000, 2000, 1660000},
		"get-hit":  {1015, 8120, 1015, 2000, 2000, 2000, 0, 504500},
		"get-miss": {4000, 32000, 4000, 2000, 2000, 2000, 0, 1400000},
		"update":   {1015, 8120, 1015, 4000, 6000, 4000, 2000, 764500},
		"delete":   {1015, 8120, 1015, 3000, 3000, 3000, 1000, 634500},
	},
	"PATH": {
		"insert":   {17901, 71604, 17901, 4000, 6000, 4000, 2000, 5830300},
		"get-hit":  {1159, 4636, 1159, 2000, 2000, 2000, 0, 547700},
		"get-miss": {17861, 71444, 17861, 2000, 2000, 2000, 0, 5558300},
		"update":   {1159, 4636, 1159, 4000, 6000, 4000, 2000, 807700},
		"delete":   {1159, 4636, 1159, 3000, 3000, 3000, 1000, 677700},
	},
	"REWO": {
		"insert":   {2000, 64000, 2000, 2000, 4000, 2000, 2000, 860000},
		"get-hit":  {0, 0, 0, 0, 0, 0, 0, 0},
		"get-miss": {2000, 64000, 2000, 0, 0, 0, 0, 600000},
		"update":   {1000, 32000, 1000, 2000, 4000, 2000, 2000, 560000},
		"delete":   {1000, 32000, 1000, 1000, 1000, 1000, 1000, 430000},
	},
}

// TestBaselineAccessCounts pins all eight access counters per operation kind.
func TestBaselineAccessCounts(t *testing.T) {
	for _, name := range []string{"LEVEL", "CCEH", "CCEH-DRAMDIR", "PATH", "REWO"} {
		t.Run(name, func(t *testing.T) {
			dev, err := nvm.New(nvm.StrictConfig(1 << 20))
			if err != nil {
				t.Fatal(err)
			}
			st, err := scheme.Open(name, dev, 4*pinOps)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			capacity := st.Capacity()
			s := st.NewSession()
			defer s.Close()
			phases := []struct {
				op  string
				run func(i int) error
			}{
				{"insert", func(i int) error { return s.Insert(pinKey(i), pinVal(i)) }},
				{"get-hit", func(i int) error {
					if v, ok := s.Get(pinKey(i)); !ok || v != pinVal(i) {
						return fmt.Errorf("get %d = (%q, %v)", i, v.String(), ok)
					}
					return nil
				}},
				{"get-miss", func(i int) error {
					if _, ok := s.Get(pinMiss(i)); ok {
						return fmt.Errorf("phantom hit %d", i)
					}
					return nil
				}},
				{"update", func(i int) error { return s.Update(pinKey(i), pinUpdate(i)) }},
				{"delete", func(i int) error { return s.Delete(pinKey(i)) }},
			}
			got := map[string]counts{}
			for _, p := range phases {
				before := s.NVMStats()
				for i := 0; i < pinOps; i++ {
					if err := p.run(i); err != nil {
						t.Fatalf("%s %d: %v", p.op, i, err)
					}
				}
				got[p.op] = countsOf(s.NVMStats().Sub(before))
			}
			if st.Capacity() != capacity {
				t.Fatalf("capacity %d -> %d: the pinned history must not resize", capacity, st.Capacity())
			}
			for _, p := range phases {
				if want := wantAccessCounts[name][p.op]; got[p.op] != want {
					t.Errorf("%s: got %v, want %v", p.op, got[p.op], want)
				}
			}
			if t.Failed() {
				t.Logf("recorded: %#v", got)
			}
		})
	}
}

// imagePin is what a fixed history leaves on the device: the sha256 of the
// persisted image and the device's persist barriers, which count resize
// traffic no session sees.
type imagePin struct {
	sha     string
	flushes int64
}

var wantImagePins = map[string]imagePin{
	"LEVEL":        {"73e7dc712ae20551423e4f150d282311646da19c37dacf80ba586299d5a64c11", 118931},
	"CCEH":         {"836ece70d49f3e6759d55d800f41347fe757daab18f63d38cd0995e805d6bada", 19263},
	"CCEH-DRAMDIR": {"836ece70d49f3e6759d55d800f41347fe757daab18f63d38cd0995e805d6bada", 19263},
	"PATH":         {"ed21215b4273ca385ca7599b9f81c300f0e7c1cb824c2b6e077b7b0ccbbae375", 11632},
	"REWO":         {"726815ea843aa5b5c4195e1900d14c6aac637fef8a4110194cd4bb5869d0ed8c", 13518},
}

// reopeners reopen a persisted image through each package's constructor,
// returning the reopened store's read path and record count.
type reader struct {
	get   func(kv.Key) (kv.Value, bool)
	count int64
}

var reopeners = map[string]func(*nvm.Device) (reader, error){
	"LEVEL": func(dev *nvm.Device) (reader, error) {
		t, err := levelhash.New(dev, levelhash.Options{})
		if err != nil {
			return reader{}, err
		}
		return reader{t.NewSession().Get, t.Count()}, nil
	},
	"CCEH": func(dev *nvm.Device) (reader, error) {
		t, err := cceh.New(dev, cceh.Options{})
		if err != nil {
			return reader{}, err
		}
		return reader{t.NewSession().Get, t.Count()}, nil
	},
	"CCEH-DRAMDIR": func(dev *nvm.Device) (reader, error) {
		t, err := cceh.New(dev, cceh.Options{DRAMDirectory: true})
		if err != nil {
			return reader{}, err
		}
		return reader{t.NewSession().Get, t.Count()}, nil
	},
	"PATH": func(dev *nvm.Device) (reader, error) {
		t, err := pathhash.New(dev, pathhash.Options{})
		if err != nil {
			return reader{}, err
		}
		return reader{t.NewSession().Get, t.Count()}, nil
	},
	"REWO": func(dev *nvm.Device) (reader, error) {
		t, err := rewo.New(dev, rewo.Options{})
		if err != nil {
			return reader{}, err
		}
		return reader{t.NewSession().Get, t.Count()}, nil
	},
}

// TestBaselineImagePinned runs one single-session history per baseline — it
// takes LEVEL, CCEH and REWO through at least two resizes or splits — and
// pins the persisted image and the device's barrier count, then reopens the
// image and checks every key.
func TestBaselineImagePinned(t *testing.T) {
	const words = 1 << 20
	for _, c := range []struct {
		name    string
		hint    int64
		resizes int // at least this many capacity changes
	}{
		{"LEVEL", 0, 2},
		{"CCEH", 0, 2},
		{"CCEH-DRAMDIR", 0, 2},
		{"PATH", 3000, 0},
		{"REWO", 0, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev, err := nvm.New(nvm.StrictConfig(words))
			if err != nil {
				t.Fatal(err)
			}
			st, err := scheme.Open(c.name, dev, c.hint)
			if err != nil {
				t.Fatal(err)
			}
			s := st.NewSession()
			model := map[kv.Key]kv.Value{}
			const n = 2400
			resizes, capacity := 0, st.Capacity()
			for i := 0; i < n; i++ {
				if err := s.Insert(pinKey(i), pinVal(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				model[pinKey(i)] = pinVal(i)
				if cp := st.Capacity(); cp != capacity {
					resizes, capacity = resizes+1, cp
				}
			}
			for i := 0; i < n; i += 7 {
				if err := s.Update(pinKey(i), pinUpdate(i)); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				model[pinKey(i)] = pinUpdate(i)
			}
			for i := 3; i < n; i += 11 {
				if err := s.Delete(pinKey(i)); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				delete(model, pinKey(i))
			}
			if resizes < c.resizes {
				t.Fatalf("%d resizes, the history needs at least %d", resizes, c.resizes)
			}
			s.Close()
			st.Close()

			img := dev.PersistedImage()
			sum := sha256.New()
			var w [8]byte
			for _, word := range img {
				binary.LittleEndian.PutUint64(w[:], word)
				sum.Write(w[:])
			}
			got := imagePin{hex.EncodeToString(sum.Sum(nil)), dev.TotalFlushes()}
			if want := wantImagePins[c.name]; got != want {
				t.Errorf("image pin %+v, want %+v (%d resizes)", got, want, resizes)
			}

			redev, err := nvm.FromImage(nvm.StrictConfig(words), img)
			if err != nil {
				t.Fatal(err)
			}
			re, err := reopeners[c.name](redev)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if re.count != int64(len(model)) {
				t.Fatalf("reopened count %d, want %d", re.count, len(model))
			}
			for k, want := range model {
				if v, ok := re.get(k); !ok || v != want {
					t.Fatalf("key %q after reopen = (%q, %v), want %q", k.String(), v.String(), ok, want.String())
				}
			}
		})
	}
}
