package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// No test here runs a store: `go test` in this directory stays a matter of
// seconds. The stores are exercised by the benchmark itself, whose gates
// fail a run.

func TestSameSeedSameInputs(t *testing.T) {
	m := mix{records: 5000, absent: 5000, writePct: 30, missPct: 10, zipfian: true}
	z, err := m.newZipf()
	if err != nil {
		t.Fatal(err)
	}
	a, b := genStream(7, 1, m, z), genStream(7, 1, m, z)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, client and mix gave different streams")
	}
	if slices.Equal(a, genStream(8, 1, m, z)) || slices.Equal(a, genStream(7, 0, m, z)) {
		t.Fatal("another seed or client gave the same stream")
	}
	var writes, misses int
	for _, e := range a {
		switch {
		case e&flagWrite != 0:
			writes++
		case e&flagAbsent != 0:
			misses++
		}
		if int(e&idxMask) >= m.records {
			t.Fatalf("entry %#x indexes past %d records", e, m.records)
		}
	}
	if w := 100 * float64(writes) / streamLen; w < 29 || w > 31 {
		t.Errorf("writes are %.2f%% of the stream, want 30%%", w)
	}
	if w := 100 * float64(misses) / streamLen; w < 9.5 || w > 10.5 {
		t.Errorf("misses are %.2f%% of the stream, want 10%%", w)
	}

	if !bytes.Equal(newKeySet(7, tagPresent, 100).flat, newKeySet(7, tagPresent, 100).flat) {
		t.Fatal("same seed gave different keys")
	}
	present, absent := newKeySet(7, tagPresent, 20000), newKeySet(7, tagAbsent, 20000)
	seen := map[string]bool{}
	for i := 0; i < present.n; i++ {
		seen[string(present.at(i))] = true
	}
	if len(seen) != present.n {
		t.Fatalf("%d distinct present keys of %d", len(seen), present.n)
	}
	for i := 0; i < absent.n; i++ {
		if seen[string(absent.at(i))] {
			t.Fatalf("absent key %d is a present key", i)
		}
	}
}

func TestValueCheck(t *testing.T) {
	for _, n := range []int{8, 15, 128} {
		v := make([]byte, n)
		fillValue(v, 123456, 9)
		if !checkValue(v, 123456, n) {
			t.Fatalf("a %d-byte value does not check", n)
		}
		if checkValue(v, 123457, n) || checkValue(v[:n-1], 123456, n) || checkValue(v, 123456, n+1) {
			t.Fatalf("%d bytes: wrong key or length passed", n)
		}
		v[n-1] ^= 1
		if checkValue(v, 123456, n) {
			t.Fatalf("%d bytes: a flipped fill bit passed", n)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for p, want := range map[float64]uint32{50: 500, 99: 990, 99.9: 999, 100: 1000, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v of 1..1000 = %d, want %d", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]uint32{7}, 99) != 7 {
		t.Error("percentile of none or one")
	}
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
}

// A client that does 100 operations per chunk, each slice at its own speed:
// the phase's rate is the median slice's, not the mean.
func TestSliceMedians(t *testing.T) {
	var c clientLog
	var now time.Duration
	for slice := 0; slice < nSlices; slice++ {
		chunkTime := 20 * time.Millisecond // 100 ops per 20 ms: 5,000 ops/s
		if slice == 3 {
			chunkTime = time.Second // a noisy neighbour
		}
		for chunk := 0; chunk < 20; chunk++ {
			now += chunkTime
			for i := 0; i < 100; i++ {
				lat := uint32(1000 + slice) // the slice's p50 and p99
				if slice == 3 {
					lat = 90000
				}
				c.lat[kRead] = append(c.lat[kRead], lat)
			}
			c.attempted += 100
			m := mark{t: now, ops: c.attempted}
			m.n[kRead] = int32(len(c.lat[kRead]))
			c.marks = append(c.marks, m)
		}
	}
	st := phaseLog{elapsed: now, clients: []clientLog{c, c}}.stats()
	if got, want := st.opsPerS, 10000.0; got < want*0.999 || got > want*1.001 {
		t.Errorf("ops_per_s = %v, want two clients at 5,000", got)
	}
	// Slices hold 1000..1009 us/1000 with slice 3 at 90: the median of ten
	// is between the 5th and 6th smallest, 1.005 and 1.006.
	if got := st.lat[kRead].p50us; got != 1.0055 {
		t.Errorf("p50 = %v us, want 1.0055", got)
	}
	if st.lat[kRead].samples != 2*nSlices*20*100 || st.attempted != 2*c.attempted {
		t.Errorf("samples %d, attempted %d", st.lat[kRead].samples, st.attempted)
	}
	if st.lat[kWrite].samples != 0 || st.lat[kWrite].p50us != 0 {
		t.Error("a kind with no samples must read zero")
	}

	// Too few samples for ten slices of 1000: fewer slices, same data.
	few := clientLog{marks: []mark{{t: time.Second, ops: 2500}}}
	few.lat[kBurst] = make([]uint32, 2500)
	few.marks[0].n[kBurst] = 2500
	if got := (phaseLog{elapsed: time.Second, clients: []clientLog{few}}).stats(); got.lat[kBurst].samples != 2500 || got.opsPerS != 2500 {
		t.Errorf("short phase: %+v", got)
	}
}

// Phases alternated in rounds make the calls each would make in one piece,
// in the same order, and each one's log reads as one phase's.
func TestAlternate(t *testing.T) {
	var seen [2][]int
	var begun, ended int
	mk := func(j, calls int) *phase {
		return &phase{name: "p", calls: []int{calls}, chunk: 7, every: 2, fns: []callFn{func(i int) (kind, int, int) {
			seen[j] = append(seen[j], i)
			return kRead, 1, 0
		}}}
	}
	a, b := mk(0, 103), mk(1, 50)
	a.begin, a.end = func() { begun++ }, func() { ended++ }
	b.first = []int{1000}
	logs := alternate(4, a, b)
	if begun != 4 || ended != 4 {
		t.Errorf("begin ran %d times, end %d, want 4 each", begun, ended)
	}
	for j, want := range []struct{ first, n int }{{0, 103}, {1000, 50}} {
		if len(seen[j]) != want.n {
			t.Fatalf("phase %d made %d calls, want %d", j, len(seen[j]), want.n)
		}
		for k, i := range seen[j] {
			if i != want.first+k {
				t.Fatalf("phase %d: call %d had index %d, want %d", j, k, i, want.first+k)
			}
		}
		c := logs[j].clients[0]
		if c.attempted != int64(want.n) || c.next != want.first+want.n {
			t.Errorf("phase %d: attempted %d, next %d", j, c.attempted, c.next)
		}
		var prev mark
		for _, m := range c.marks {
			if m.t < prev.t || m.ops <= prev.ops || m.n[kRead] < prev.n[kRead] {
				t.Fatalf("phase %d: mark %+v after %+v", j, m, prev)
			}
			prev = m
		}
		if prev.ops != int64(want.n) || int(prev.n[kRead]) != len(c.lat[kRead]) || len(c.lat[kRead]) != (want.n+1)/2 {
			t.Errorf("phase %d: last mark %+v, %d samples", j, prev, len(c.lat[kRead]))
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "x_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	stat := func(runs ...float64) suiteStat { return newSuiteStat("u", runs) }
	for _, c := range []struct {
		d        metricDef
		old, new suiteStat
		want     string
	}{
		{lower, stat(100, 101, 102), stat(103, 104, 105), unchanged},
		{lower, stat(100, 101, 102), stat(120, 121, 122), regressed},
		{lower, stat(100, 101, 102), stat(80, 81, 82), improved},
		{higher, stat(100, 101, 102), stat(80, 81, 82), regressed},
		{higher, stat(100, 101, 102), stat(120, 121, 122), improved},
		{lower, stat(100, 120, 140), stat(110, 130, 150), unresolved}, // wide and overlapping
		{lower, stat(100, 120, 140), stat(200, 230, 260), regressed},  // wide but apart
		{lower, stat(), stat(1), unresolved},
	} {
		if got, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.old.Runs, c.new.Runs, got, c.want)
		}
	}
}

func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := newResult("get-hot", 1, 10, traced)
		res.Attempted = 5
		line, err := res.contractLine()
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Fatalf("keys %v", keys)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s is %+v", traced, d.Name, m)
			}
		}
	}
	bad := newResult("get-hot", 1, 10, false)
	bad.problem("count at end: 1, want 2")
	if line, _ := bad.contractLine(); !bytes.Contains(line, []byte(`"correct":false`)) {
		t.Errorf("a failed gate must read correct=false: %s", line)
	}
}

// BENCHMARK.json at the root must say what the driver does: same workloads,
// same metrics, units, directions and bounds, names the contract accepts —
// and every metric name must be one the driver's code assigns.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) || !slices.Equal(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the driver's table:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the driver's table")
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, driver has %d", len(b.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q differs from the driver's %q, or its why is too long", i, w.Name, specs[i].name)
		}
	}

	var code strings.Builder
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if f == "result.go" || strings.HasSuffix(f, "_test.go") {
			continue // the table itself, and this test, do not count as use
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		code.Write(src)
	}
	hasSetup := false
	for _, d := range slices.Concat(b.EndToEnd, b.PerLayer) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		if !strings.Contains(code.String(), `"`+d.Name+`"`) {
			t.Errorf("metric %s is assigned nowhere in the driver", d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
