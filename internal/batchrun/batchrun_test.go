package batchrun

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

var errBad = errors.New("bad key")

// mapExec is a map-backed Executor that logs the batch calls it receives.
// Keys prefixed "bad" fail with errBad. It copies what it stores, as the
// real store does: callers reuse their buffers.
type mapExec struct {
	data  map[string]string
	calls []string
}

func newMapExec() *mapExec { return &mapExec{data: map[string]string{}} }

func (m *mapExec) log(kind string, keys, values [][]byte) {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = string(k)
		if values != nil {
			parts[i] += "=" + string(values[i])
		}
	}
	m.calls = append(m.calls, kind+" "+strings.Join(parts, ","))
}

func (m *mapExec) MultiGet(keys [][]byte) ([][]byte, []bool, []error) {
	m.log("get", keys, nil)
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	errs := make([]error, len(keys))
	for i, k := range keys {
		if strings.HasPrefix(string(k), "bad") {
			errs[i] = errBad
			continue
		}
		if v, ok := m.data[string(k)]; ok {
			vals[i], found[i] = []byte(v), true
		}
	}
	return vals, found, errs
}

func (m *mapExec) MultiPut(keys, values [][]byte) []error {
	m.log("put", keys, values)
	errs := make([]error, len(keys))
	for i, k := range keys {
		if strings.HasPrefix(string(k), "bad") {
			errs[i] = errBad
			continue
		}
		m.data[string(k)] = string(values[i])
	}
	return errs
}

func (m *mapExec) MultiDelete(keys [][]byte) []error {
	m.log("del", keys, nil)
	errs := make([]error, len(keys))
	for i, k := range keys {
		switch _, ok := m.data[string(k)]; {
		case strings.HasPrefix(string(k), "bad"):
			errs[i] = errBad
		case !ok:
			errs[i] = scheme.ErrNotFound
		}
		delete(m.data, string(k))
	}
	return errs
}

// runLog records what a RunVisitor is told.
type runLog struct {
	t      *testing.T
	begins []string
	ends   []string
	open   bool
}

func (l *runLog) RunBegin(kind Kind, n int) {
	if l.open {
		l.t.Errorf("RunBegin(%s, %d) inside an open run", kind, n)
	}
	l.open = true
	l.begins = append(l.begins, fmt.Sprintf("%s:%d", kind, n))
}

func (l *runLog) RunEnd(kind Kind, pos []int) {
	if !l.open {
		l.t.Errorf("RunEnd(%s, %v) without a RunBegin", kind, pos)
	}
	l.open = false
	l.ends = append(l.ends, fmt.Sprintf("%s:%v", kind, pos))
}

func get(k string) Op    { return Op{Kind: Get, Key: []byte(k)} }
func put(k, v string) Op { return Op{Kind: Put, Key: []byte(k), Value: []byte(v)} }
func del(k string) Op    { return Op{Kind: Delete, Key: []byte(k)} }

// show renders one result for comparison: value, found and verdict.
func show(r Result) string {
	switch {
	case r.Err != nil:
		return "err(" + r.Err.Error() + ")"
	case r.Found:
		return "hit(" + string(r.Value) + ")"
	default:
		return "ok"
	}
}

func showAll(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = show(r)
	}
	return out
}

func TestExecuteCoalescesRunsAndPreservesOrder(t *testing.T) {
	ops := []Op{
		get("a"),
		get("miss1"),
		put("p1", "x"),
		put("bad2", "y"),
		put("p3", "z"),
		del("d1"),
		get("bad3"),
	}
	x := newMapExec()
	x.data["a"], x.data["d1"] = "v-a", "v-d1"
	results := make([]Result, len(ops))
	visit := &runLog{t: t}
	Execute(x, ops, results, visit)

	// No key occurs twice, so the stream is one stretch: one call per kind,
	// each holding its operations in submission order.
	wantCalls := []string{"get a,miss1,bad3", "put p1=x,bad2=y,p3=z", "del d1"}
	if fmt.Sprint(x.calls) != fmt.Sprint(wantCalls) {
		t.Fatalf("calls = %q, want %q", x.calls, wantCalls)
	}
	wantBegins := []string{"get:3", "put:3", "delete:1"}
	if fmt.Sprint(visit.begins) != fmt.Sprint(wantBegins) {
		t.Fatalf("RunBegin calls = %v, want %v", visit.begins, wantBegins)
	}
	wantEnds := []string{"get:[0 1 6]", "put:[2 3 4]", "delete:[5]"}
	if fmt.Sprint(visit.ends) != fmt.Sprint(wantEnds) {
		t.Fatalf("RunEnd calls = %v, want %v", visit.ends, wantEnds)
	}

	if !results[0].Found || string(results[0].Value) != "v-a" {
		t.Fatalf("results[0] = %+v", results[0])
	}
	if results[1].Found || results[1].Err != nil {
		t.Fatalf("results[1] = %+v, want clean miss", results[1])
	}
	if results[2].Err != nil || results[4].Err != nil {
		t.Fatalf("good puts failed: %v %v", results[2].Err, results[4].Err)
	}
	if !errors.Is(results[3].Err, errBad) {
		t.Fatalf("results[3].Err = %v, want errBad", results[3].Err)
	}
	if results[5].Err != nil {
		t.Fatalf("delete failed: %v", results[5].Err)
	}
	if !errors.Is(results[6].Err, errBad) {
		t.Fatalf("results[6].Err = %v, want errBad", results[6].Err)
	}
}

func TestExecuteEmptyAndSingle(t *testing.T) {
	x := newMapExec()
	Execute(x, nil, nil, nil)
	if len(x.calls) != 0 {
		t.Fatalf("calls on empty stream: %v", x.calls)
	}
	results := make([]Result, 1)
	Execute(x, []Op{del("k")}, results, nil)
	if len(x.calls) != 1 || x.calls[0] != "del k" {
		t.Fatalf("calls = %v", x.calls)
	}
}

// TestCutRule pins where a stretch ends: only before an operation whose key
// the stretch already holds under another kind.
func TestCutRule(t *testing.T) {
	cases := []struct {
		name    string
		have    map[string]string
		ops     []Op
		calls   []string
		results []string
	}{
		{
			name:    "a read repeated around an unrelated write is one stretch",
			have:    map[string]string{"a": "1"},
			ops:     []Op{get("a"), put("b", "2"), get("a")},
			calls:   []string{"get a,a", "put b=2"},
			results: []string{"hit(1)", "ok", "hit(1)"},
		},
		{
			name:    "a read of a key just written starts a new stretch",
			ops:     []Op{put("a", "1"), get("a")},
			calls:   []string{"put a=1", "get a"},
			results: []string{"ok", "hit(1)"},
		},
		{
			name:    "two writes of one key stay in one MultiPut, in order",
			ops:     []Op{put("a", "v1"), get("b"), put("a", "v2"), get("c")},
			calls:   []string{"get b,c", "put a=v1,a=v2"},
			results: []string{"ok", "ok", "ok", "ok"},
		},
		{
			name:    "two deletes of one key stay in one MultiDelete, in order",
			have:    map[string]string{"a": "1"},
			ops:     []Op{del("a"), get("b"), del("a")},
			calls:   []string{"get b", "del a,a"},
			results: []string{"ok", "ok", "err(" + scheme.ErrNotFound.Error() + ")"},
		},
		{
			name:    "a write after a read of the key cuts, and so does the next read",
			have:    map[string]string{"a": "0"},
			ops:     []Op{get("a"), put("a", "1"), get("a"), del("a"), get("a")},
			calls:   []string{"get a", "put a=1", "get a", "del a", "get a"},
			results: []string{"hit(0)", "ok", "hit(1)", "ok", "ok"},
		},
		{
			name:    "the cut carries only the conflicting key's history forward",
			ops:     []Op{put("a", "1"), put("b", "2"), get("a"), get("b"), put("c", "3")},
			calls:   []string{"put a=1,b=2", "get a,b", "put c=3"},
			results: []string{"ok", "ok", "hit(1)", "hit(2)", "ok"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := newMapExec()
			for k, v := range tc.have {
				x.data[k] = v
			}
			results := make([]Result, len(tc.ops))
			var r Runner
			r.Execute(x, tc.ops, results, nil)
			if fmt.Sprint(x.calls) != fmt.Sprint(tc.calls) {
				t.Errorf("calls = %q, want %q", x.calls, tc.calls)
			}
			if got := showAll(results); fmt.Sprint(got) != fmt.Sprint(tc.results) {
				t.Errorf("results = %q, want %q", got, tc.results)
			}
			if tc.name == "two writes of one key stay in one MultiPut, in order" && x.data["a"] != "v2" {
				t.Errorf("a = %q after both writes, want the later one", x.data["a"])
			}
		})
	}
}

// randomStream draws n operations over a small key set, so that keys repeat
// across kinds often.
func randomStream(rng *rand.Rand, n, keys int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		k := fmt.Sprintf("key-%02d", rng.Intn(keys))
		switch rng.Intn(4) {
		case 0:
			ops[i] = put(k, fmt.Sprintf("value-%d-%d", i, rng.Intn(1000)))
		case 1:
			ops[i] = del(k)
		default:
			ops[i] = get(k)
		}
	}
	return ops
}

// oneAtATime is the reference: every operation its own batch call, in order.
func oneAtATime(x Executor, ops []Op, results []Result) {
	for i, op := range ops {
		keys := [][]byte{op.Key}
		switch op.Kind {
		case Get:
			vals, found, errs := x.MultiGet(keys)
			results[i] = Result{Value: vals[0], Found: found[0], Err: errs[0]}
		case Put:
			results[i] = Result{Err: x.MultiPut(keys, [][]byte{op.Value})[0]}
		case Delete:
			results[i] = Result{Err: x.MultiDelete(keys)[0]}
		}
	}
}

func newStore(t *testing.T, shards int) *bigkv.Store {
	t.Helper()
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	opts := bigkv.DefaultOptions()
	opts.Table.Shards = shards
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestExecuteMatchesSequentialModel: whatever Execute reorders, every
// operation must answer exactly what it answers when the stream runs one
// operation at a time — against a map, and against a real two-shard store
// (whose MultiPut and MultiDelete fan out per shard).
func TestExecuteMatchesSequentialModel(t *testing.T) {
	st := newStore(t, 2)
	sess := st.NewSession()
	defer sess.Close()

	rng := rand.New(rand.NewSource(18))
	model := newMapExec() // lives across rounds, like the store
	fake := newMapExec()
	var r Runner
	calls, ops := 0, 0
	for round := 0; round < 300; round++ {
		stream := randomStream(rng, 1+rng.Intn(48), 2+rng.Intn(10))
		want := make([]Result, len(stream))
		oneAtATime(model, stream, want)

		got := make([]Result, len(stream))
		fake.calls = fake.calls[:0]
		r.Execute(fake, stream, got, nil)
		calls += len(fake.calls)
		ops += len(stream)
		for i := range stream {
			if show(got[i]) != show(want[i]) {
				t.Fatalf("round %d, map: results[%d] (%s %s) = %s, want %s\ncalls: %q",
					round, i, stream[i].Kind, stream[i].Key, show(got[i]), show(want[i]), fake.calls)
			}
		}

		onStore := make([]Result, len(stream))
		Execute(sess, stream, onStore, nil)
		for i := range stream {
			if show(onStore[i]) != show(want[i]) {
				t.Fatalf("round %d, store: results[%d] (%s %s) = %s, want %s",
					round, i, stream[i].Kind, stream[i].Key, show(onStore[i]), show(want[i]))
			}
		}
	}
	if calls >= ops {
		t.Fatalf("%d batch calls for %d operations: nothing was coalesced", calls, ops)
	}
	t.Logf("%d operations in %d batch calls", ops, calls)
}

// staticExec answers every call from slices made once, so what is left to
// count is Execute's own allocation.
type staticExec struct {
	vals  [][]byte
	found []bool
	errs  []error
}

func (s *staticExec) MultiGet(keys [][]byte) ([][]byte, []bool, []error) {
	return s.vals[:len(keys)], s.found[:len(keys)], s.errs[:len(keys)]
}
func (s *staticExec) MultiPut(keys, _ [][]byte) []error { return s.errs[:len(keys)] }
func (s *staticExec) MultiDelete(keys [][]byte) []error { return s.errs[:len(keys)] }

// TestExecuteSteadyStateAllocs: a Runner the caller keeps allocates nothing
// per burst, and the package-level Execute (pooled Runner) stays under what
// it cost when every run made its own key and value slices — seven
// allocations for this burst's five runs, two of them puts.
func TestExecuteSteadyStateAllocs(t *testing.T) {
	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = get(fmt.Sprintf("key-%02d", i))
	}
	ops[5] = put("key-05", "five")
	ops[11] = put("key-03", "again") // conflicts with the GET at 3: a second stretch
	results := make([]Result, len(ops))
	x := &staticExec{vals: make([][]byte, 16), found: make([]bool, 16), errs: make([]error, 16)}

	var r Runner
	r.Execute(x, ops, results, nil)
	if n := testing.AllocsPerRun(200, func() { r.Execute(x, ops, results, nil) }); n != 0 {
		t.Errorf("Runner.Execute allocates %.1f times per burst, want 0", n)
	}
	Execute(x, ops, results, nil)
	if n := testing.AllocsPerRun(200, func() { Execute(x, ops, results, nil) }); n > 7 {
		t.Errorf("Execute allocates %.1f times per burst, want <= 7", n)
	}
}
