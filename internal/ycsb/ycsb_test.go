package ycsb

import (
	"flag"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/rng"
)

func TestMixValidate(t *testing.T) {
	for _, m := range []Mix{WorkloadA, WorkloadB, WorkloadC, InsertOnly, ReadOnly, NegativeRead, DeleteOnly, InsertHalfRead} {
		if err := m.Validate(); err != nil {
			t.Errorf("standard mix %+v invalid: %v", m, err)
		}
	}
	if err := (Mix{Read: 0.5}).Validate(); err == nil {
		t.Error("under-full mix accepted")
	}
	if err := (Mix{Read: 1.5, Update: -0.5}).Validate(); err == nil {
		t.Error("negative proportion accepted")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{RecordCount: 0, Mix: ReadOnly}); err == nil {
		t.Error("zero record count accepted")
	}
	if _, err := New(Config{RecordCount: 10, Mix: ReadOnly, Distribution: Zipfian, Theta: 0}); err == nil {
		t.Error("zipfian with theta 0 accepted")
	}
	if _, err := New(Config{RecordCount: 10, Mix: ReadOnly, Distribution: Distribution(99)}); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestWorkerDeterminism(t *testing.T) {
	g, err := New(Config{RecordCount: 1000, Mix: WorkloadA, Distribution: ScrambledZipfian, Theta: 0.99, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Worker(3), g.Worker(3)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same worker id diverged")
		}
	}
	c := g.Worker(4)
	same := 0
	a2 := g.Worker(3)
	for i := 0; i < 1000; i++ {
		if a2.Next() == c.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different worker ids produced %d/1000 identical ops", same)
	}
}

func TestMixProportions(t *testing.T) {
	g, err := New(Config{RecordCount: 1000, Mix: Mix{Read: 0.4, Update: 0.3, Insert: 0.2, Delete: 0.05, ReadNegative: 0.05}, Distribution: Uniform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := g.Worker(0)
	counts := map[OpKind]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Next().Kind]++
	}
	check := func(k OpKind, want float64) {
		got := float64(counts[k]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%v proportion %.3f, want %.2f", k, got, want)
		}
	}
	check(OpRead, 0.4)
	check(OpUpdate, 0.3)
	check(OpInsert, 0.2)
	check(OpDelete, 0.05)
	check(OpReadNegative, 0.05)
}

func TestInsertIndexesInterleave(t *testing.T) {
	g, err := New(Config{RecordCount: 10, Mix: InsertOnly, Distribution: Uniform, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	const workers = 4
	for id := 0; id < workers; id++ {
		w := g.Worker(id)
		w.SetWorkers(workers)
		for i := 0; i < 100; i++ {
			op := w.Next()
			if op.Kind != OpInsert {
				t.Fatalf("InsertOnly produced %v", op.Kind)
			}
			if seen[op.Index] {
				t.Fatalf("insert index %d produced twice", op.Index)
			}
			seen[op.Index] = true
		}
	}
	if len(seen) != workers*100 {
		t.Fatalf("got %d distinct insert indexes", len(seen))
	}
}

func TestSetWorkersGuardsZero(t *testing.T) {
	g, _ := New(Config{RecordCount: 10, Mix: InsertOnly, Distribution: Uniform, Seed: 2})
	w := g.Worker(0)
	w.SetWorkers(0)
	a := w.Next().Index
	b := w.Next().Index
	if b-a != 1 {
		t.Fatalf("stride with SetWorkers(0) = %d, want 1", b-a)
	}
}

func TestNegativeIndexesAdvance(t *testing.T) {
	g, _ := New(Config{RecordCount: 10, Mix: NegativeRead, Distribution: Uniform, Seed: 2})
	w := g.Worker(0)
	if w.Next().Index != 0 || w.Next().Index != 1 {
		t.Fatal("negative read cursor did not advance")
	}
}

func TestUniformCoverage(t *testing.T) {
	g, err := New(Config{RecordCount: 100, Mix: ReadOnly, Distribution: Uniform, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := g.Worker(0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[w.Next().Index]++
	}
	for k, c := range counts {
		if c < 500 || c > 2000 {
			t.Fatalf("key %d drawn %d times, expected ~1000", k, c)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	for _, theta := range []float64{0.5, 0.99, 1.22} {
		g, err := New(Config{RecordCount: 10000, Mix: ReadOnly, Distribution: Zipfian, Theta: theta, Seed: 4})
		if err != nil {
			t.Fatalf("theta %v: %v", theta, err)
		}
		w := g.Worker(0)
		const draws = 200000
		hot := 0 // draws landing in the hottest 1% of ranks
		for i := 0; i < draws; i++ {
			if w.Next().Index < 100 {
				hot++
			}
		}
		frac := float64(hot) / draws
		switch theta {
		case 0.5:
			if frac < 0.05 || frac > 0.25 {
				t.Errorf("theta 0.5: hot-1%% fraction %.3f outside [0.05, 0.25]", frac)
			}
		case 0.99:
			if frac < 0.35 || frac > 0.75 {
				t.Errorf("theta 0.99: hot-1%% fraction %.3f outside [0.35, 0.75]", frac)
			}
		case 1.22:
			if frac < 0.75 {
				t.Errorf("theta 1.22: hot-1%% fraction %.3f, want >= 0.75 (extreme skew)", frac)
			}
		}
	}
}

func TestZipfSkewMonotoneInTheta(t *testing.T) {
	fracFor := func(theta float64) float64 {
		z, err := NewZipf(1000, theta)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(5)
		hot := 0
		for i := 0; i < 50000; i++ {
			if z.Sample(r) < 10 {
				hot++
			}
		}
		return float64(hot) / 50000
	}
	prev := 0.0
	for _, theta := range []float64{0.3, 0.6, 0.9, 1.1, 1.3} {
		f := fracFor(theta)
		if f < prev {
			t.Fatalf("hot fraction decreased from %.3f to %.3f at theta %v", prev, f, theta)
		}
		prev = f
	}
}

func TestZipfSampleRange(t *testing.T) {
	for _, theta := range []float64{0.2, 0.99, 1.5} {
		z, err := NewZipf(50, theta)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(6)
		for i := 0; i < 10000; i++ {
			v := z.Sample(r)
			if v < 0 || v >= 50 {
				t.Fatalf("theta %v: sample %d outside [0,50)", theta, v)
			}
		}
		if z.N() != 50 || z.Theta() != theta {
			t.Fatal("accessors wrong")
		}
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 0.9); err == nil {
		t.Error("NewZipf(0) accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("negative theta accepted")
	}
}

func TestScrambledZipfianScatters(t *testing.T) {
	g, err := New(Config{RecordCount: 10000, Mix: ReadOnly, Distribution: ScrambledZipfian, Theta: 0.99, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := g.Worker(0)
	counts := map[int64]int{}
	for i := 0; i < 100000; i++ {
		counts[w.Next().Index]++
	}
	// Find the two hottest keys: under scrambling they should not be
	// adjacent indexes (as raw zipfian rank 0 and 1 would be).
	var hot1, hot2 int64
	for k, c := range counts {
		if c > counts[hot1] {
			hot1, hot2 = k, hot1
		} else if c > counts[hot2] {
			hot2 = k
		}
	}
	if hot1-hot2 == 1 || hot2-hot1 == 1 {
		t.Fatalf("hottest scrambled keys are adjacent: %d, %d", hot1, hot2)
	}
}

func TestLatestFavoursRecent(t *testing.T) {
	g, err := New(Config{RecordCount: 1000, Mix: ReadOnly, Distribution: Latest, Theta: 0.99, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w := g.Worker(0)
	recent := 0
	for i := 0; i < 10000; i++ {
		if w.Next().Index >= 900 {
			recent++
		}
	}
	if recent < 5000 {
		t.Fatalf("only %d/10000 draws in the newest 10%%", recent)
	}
}

func TestKeySpacesDisjointAndUnique(t *testing.T) {
	seen := map[kv.Key]string{}
	for i := int64(0); i < 2000; i++ {
		for name, k := range map[string]kv.Key{"record": RecordKey(i), "insert": InsertKey(i), "neg": NegativeKey(i)} {
			if prev, dup := seen[k]; dup {
				t.Fatalf("key collision between %s(%d) and %s", name, i, prev)
			}
			seen[k] = name
		}
	}
}

func TestValueForDeterministic(t *testing.T) {
	if ValueFor(5) != ValueFor(5) {
		t.Fatal("ValueFor not deterministic")
	}
	if ValueFor(5) == ValueFor(6) {
		t.Fatal("adjacent values identical")
	}
}

func TestOpKindAndDistributionStrings(t *testing.T) {
	if OpInsert.String() != "insert" || OpReadNegative.String() != "read-" || OpKind(42).String() == "" {
		t.Fatal("OpKind.String broken")
	}
	if ScrambledZipfian.String() != "scrambled-zipfian" || Distribution(42).String() == "" {
		t.Fatal("Distribution.String broken")
	}
}

func TestDistributionSetRoundTrip(t *testing.T) {
	var _ flag.Value = new(Distribution)
	for _, tc := range []struct {
		in   string
		want Distribution
		ok   bool
	}{
		{Uniform.String(), Uniform, true},
		{Zipfian.String(), Zipfian, true},
		{ScrambledZipfian.String(), ScrambledZipfian, true},
		{Latest.String(), Latest, true},
		{"", 0, false},
		{"bogus", 0, false},
		{"Distribution(42)", 0, false},
	} {
		d := Distribution(-1)
		err := d.Set(tc.in)
		if tc.ok && (err != nil || d != tc.want) {
			t.Errorf("Set(%q) = %v, distribution %v; want %v", tc.in, err, d, tc.want)
		}
		if !tc.ok && (err == nil || d != Distribution(-1)) {
			t.Errorf("Set(%q) = %v, distribution %v; want an error and no change", tc.in, err, d)
		}
	}
}

func TestWorkloadFRMWMix(t *testing.T) {
	g, err := New(Config{RecordCount: 1000, Mix: WorkloadF, Distribution: Uniform, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	w := g.Worker(0)
	counts := map[OpKind]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[w.Next().Kind]++
	}
	for _, k := range []OpKind{OpRead, OpReadModifyWrite} {
		frac := float64(counts[k]) / n
		if frac < 0.47 || frac > 0.53 {
			t.Errorf("%v fraction %.3f, want ~0.5", k, frac)
		}
	}
	if counts[OpInsert]+counts[OpDelete]+counts[OpUpdate] != 0 {
		t.Errorf("workload F produced foreign ops: %v", counts)
	}
	if OpReadModifyWrite.String() != "rmw" {
		t.Error("rmw String broken")
	}
}

func TestWorkloadDMix(t *testing.T) {
	g, err := New(Config{RecordCount: 1000, Mix: WorkloadD, Distribution: Latest, Theta: 0.99, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	w := g.Worker(0)
	reads, inserts := 0, 0
	for i := 0; i < 20000; i++ {
		switch w.Next().Kind {
		case OpRead:
			reads++
		case OpInsert:
			inserts++
		}
	}
	if frac := float64(inserts) / 20000; frac < 0.03 || frac > 0.08 {
		t.Errorf("insert fraction %.3f, want ~0.05", frac)
	}
	if reads == 0 {
		t.Error("no reads generated")
	}
}
