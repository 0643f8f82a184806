package core

import (
	"fmt"
	"runtime"
	"testing"

	"hdnh/internal/kv"
	"hdnh/internal/nvm"
)

// TestCrashAtEveryPersistCallDuringDrain crashes a doubling at every line
// write-back it makes — the insert that triggers it, each group's staged
// key/value words, commit words and source clears, each progress word, the
// state words — and then crashes the recovery that resumes it. A drain moves
// records in groups (resize.go), so the images in between hold whole groups
// half-moved: destinations durable with their sources still valid, some of a
// group's clears durable and others not, a progress word that must never
// cover a clear that is not. After every recovery each acknowledged write is
// there with its value, each acknowledged delete stays deleted, no key is
// there twice and the count is exact.
func TestCrashAtEveryPersistCallDuringDrain(t *testing.T) {
	for _, c := range []struct {
		name    string
		workers int
		churn   bool
	}{
		{"workers1", 1, false},
		{"workers4", 4, false},
		{"workers4/updates and deletes of moved keys", 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := drainCrashWorld{workers: c.workers, churn: c.churn}
			w.findTrigger(t)
			w.run(t, 0, 0)
			seeds := []uint64{1, 2, 3}
			if testing.Short() {
				seeds = seeds[:1]
			}
			var landed, resumed, recrashed int
			for n := int64(1); n <= w.window; n++ {
				for _, seed := range seeds {
					img := w.run(t, seed, n)
					if img == nil {
						continue // this run's drain made fewer calls than the recorded one
					}
					landed++
					// The second crashes ride on the first seed only: they
					// are six more recoveries each.
					a, b := w.recoverTwice(t, fmt.Sprintf("crash at call %d, seed %d", n, seed), seed, img, seed == seeds[0])
					resumed += a
					recrashed += b
				}
			}
			// Drain workers and the writer that helps them interleave freely,
			// so runs differ by a few calls; most points must still land.
			if want := int(w.window) * len(seeds) * 9 / 10; landed < want {
				t.Errorf("%d of %d crash points landed, want >= %d", landed, int(w.window)*len(seeds), want)
			}
			if resumed == 0 || recrashed == 0 {
				t.Errorf("no crash point left a drain to resume (%d) or crashed the resumed one (%d)", resumed, recrashed)
			}
			if c.churn && w.churned == 0 {
				t.Errorf("no update or delete of a moved key ran while its drain did")
			}
			t.Logf("%d persist calls x %d seeds: %d images, %d resumed a drain, %d second crashes inside a resumed drain, %d writes to moved keys mid-drain",
				w.window, len(seeds), landed, resumed, recrashed, w.churned)
		})
	}
}

// drainCrashWorld is one configuration of the sweep: a table small enough
// that its first doubling is a few hundred persist calls, loaded with the
// same keys every run up to the insert that triggers it.
type drainCrashWorld struct {
	workers int
	churn   bool

	trigger int   // index of the insert that starts the doubling
	window  int64 // persist calls from before that insert to the drain's end
	churned int   // updates and deletes of moved keys begun mid-drain, all runs

	// The model of one run: what every key must read after recovery, and the
	// one write the crash may have caught in flight.
	want   map[int]kv.Value // acknowledged and present
	unsure int              // key of the write in flight, -1 when none
	after  *kv.Value        // that key's value if the write made it; nil = absent
}

const drainCrashWords = 1 << 13

func (w *drainCrashWorld) opts() Options {
	o := DefaultOptions()
	o.SegmentBuckets = 4
	o.InitBottomSegments = 2 // the first doubling drains 8 buckets
	o.drainWorkers = w.workers
	o.drainChunkBuckets = 2
	o.batchChunk = 6 // groups of one bucket and of two
	return o
}

func (w *drainCrashWorld) config(seed uint64) nvm.Config {
	cfg := nvm.StrictConfig(drainCrashWords)
	cfg.EvictProb = 0.3
	cfg.Seed = seed*2654435761 + 1
	return cfg
}

// findTrigger loads until an insert starts the first doubling.
func (w *drainCrashWorld) findTrigger(t *testing.T) {
	t.Helper()
	dev, err := nvm.New(w.config(0))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := create(dev, w.opts())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	gen := tbl.Generation()
	for i := 0; !tbl.Resizing() && tbl.Generation() == gen; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
		w.trigger = i
	}
}

// run replays the load, arms the crash n persist calls ahead (n = 0: never,
// and the run measures the window instead) and lets the doubling run to its
// end. It returns the crash image, nil when the run was over before the n-th
// call, and leaves the run's model in w.
func (w *drainCrashWorld) run(t *testing.T, seed uint64, n int64) []uint64 {
	t.Helper()
	dev, err := nvm.New(w.config(seed))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := create(dev, w.opts())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s := sessionOn(tbl)
	w.want, w.unsure, w.after = map[int]kv.Value{}, -1, nil
	for i := 0; i < w.trigger; i++ {
		if err := s.Insert(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
		w.want[i] = value(i)
	}
	if tbl.Resizing() {
		t.Fatalf("the doubling began before insert %d", w.trigger)
	}
	before := dev.PersistCalls()
	if n > 0 {
		if err := dev.SetCrashAfterFlushes(n); err != nil {
			t.Fatal(err)
		}
	}
	if w.churn {
		w.pacedDrain(t, dev, tbl, s)
	} else {
		v := value(w.trigger)
		w.write(t, dev, w.trigger, &v, func() error { return s.Insert(key(w.trigger), v) })
	}
	tbl.waitDrain()
	if n == 0 {
		w.window = dev.PersistCalls() - before
	}
	return dev.CrashImage()
}

// pacedDrain runs the doubling with foreground writes between its chunks,
// in an order no scheduler can change: the test holds the OCF lock of the last
// record of every chunk, so each worker stages its chunk up to there and
// waits — as it would for any foreground holder, with the group it has staged
// still locked — until the test lets that chunk go. In between, every key
// whose record has moved and whose source slot is released is updated or
// deleted, alternately: the crash points that follow hold a moved record
// whose new copy has changed or gone, over a source slot that a resumed
// drain must not bring back. The doubling is started directly, not by an
// insert: a fresh key's probe could wait on one of the held slots.
func (w *drainCrashWorld) pacedDrain(t *testing.T, dev *nvm.Device, tbl *Table, s *RouterSession) {
	t.Helper()
	src := tbl.pair().bottom
	chunk := int64(w.opts().drainChunkBuckets)
	type seat struct {
		key  int
		ref  slotRef
		ctrl uint32
		fp   uint8
	}
	var seats []seat
	last := map[int64]int{} // chunk -> index into seats of its last record
	for i := 0; i < w.trigger; i++ {
		k := key(i)
		h1, h2, fp := hashKV(k[:])
		var ps probeStats
		s.ss[0].enterCritical()
		ht, _ := tbl.walk(s.ss[0].h, k, h1, h2, fp, &ps, walkRead)
		s.ss[0].exitCritical()
		if ht.ref.lvl != src {
			continue
		}
		seats = append(seats, seat{i, ht.ref, ht.ctrl, fp})
		c := ht.ref.b / chunk
		if j, ok := last[c]; !ok || posLess(seats[j].ref, ht.ref) {
			last[c] = len(seats) - 1
		}
	}
	for _, j := range last {
		if st := seats[j]; !src.ocfTryLock(st.ref.b, st.ref.s, st.ctrl) {
			t.Fatalf("key %d's slot would not lock", st.key)
		}
	}

	if err := tbl.expand(tbl.Generation()); err != nil {
		t.Fatal(err)
	}
	task := tbl.draining.Load()
	for _, r := range task.ranges { // every chunk claimed: the session's own help finds none
		for r.next.Load() < r.hi {
			runtime.Gosched()
		}
	}
	written := map[int]bool{}
	writeMoved := func() {
		for _, st := range seats {
			if c := src.ocfLoad(st.ref.b, st.ref.s); written[st.key] || ocfIsLocked(c) || ocfIsValid(c) {
				continue
			}
			written[st.key] = true
			w.churned++
			if i := st.key; i%2 == 0 {
				v := value(i + 100000)
				w.write(t, dev, i, &v, func() error { return s.Update(key(i), v) })
			} else {
				w.write(t, dev, i, nil, func() error { return s.Delete(key(i)) })
			}
		}
	}
	for c := int64(0); c*chunk < src.buckets(); c++ {
		j, ok := last[c]
		if !ok {
			continue
		}
		left := task.remaining.Load()
		seats[j].ref.release(true, seats[j].fp, seats[j].ctrl)
		for task.remaining.Load() == left {
			runtime.Gosched()
		}
		writeMoved()
	}
}

// write runs one foreground write against the model: in flight while it
// runs, acknowledged once it has returned with the crash still ahead. A
// write begun after the crash point is not part of the image at all.
func (w *drainCrashWorld) write(t *testing.T, dev *nvm.Device, k int, after *kv.Value, op func() error) {
	t.Helper()
	if dev.CrashImage() != nil {
		return
	}
	w.unsure, w.after = k, after
	if err := op(); err != nil {
		t.Fatalf("key %d: %v", k, err)
	}
	if dev.CrashImage() != nil {
		return // the crash fell inside this write: either outcome is legal
	}
	w.unsure, w.after = -1, nil
	if after == nil {
		delete(w.want, k)
	} else {
		w.want[k] = *after
	}
}

// recoverTwice opens the image and checks it against the model, then — when
// asked to, and that recovery resumed a drain — crashes the recovery itself at three points
// and checks what a second recovery makes of each. It reports whether a drain
// was resumed and how many second crashes landed inside one.
func (w *drainCrashWorld) recoverTwice(t *testing.T, what string, seed uint64, img []uint64, again bool) (resumed, recrashed int) {
	t.Helper()
	cfg := w.config(seed ^ 0x5bd1e995)
	open := func(what string, img []uint64, crashAfter int64) (*nvm.Device, *Table) {
		dev, err := nvm.FromImage(cfg, img)
		if err != nil {
			t.Fatalf("%s: image does not boot: %v", what, err)
		}
		if crashAfter > 0 {
			if err := dev.SetCrashAfterFlushes(crashAfter); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := openRoot(dev, w.opts(), nil)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", what, err)
		}
		return dev, tbl
	}
	dev, tbl := open(what, img, 0)
	w.check(t, what, tbl)
	calls := dev.PersistCalls()
	wasResumed := tbl.LastRecovery().ResumedRehash
	tbl.Close()
	if !wasResumed {
		return 0, 0
	}
	if !again {
		return 1, 0
	}
	for _, m := range []int64{calls / 4, calls / 2, calls * 3 / 4} {
		if m < 1 {
			continue
		}
		what := fmt.Sprintf("%s, then at call %d of %d of the recovery", what, m, calls)
		dev, tbl := open(what, img, m)
		tbl.Close()
		img2 := dev.CrashImage()
		if img2 == nil {
			continue
		}
		_, tbl2 := open(what, img2, 0)
		w.check(t, what, tbl2)
		if tbl2.LastRecovery().ResumedRehash {
			recrashed++
		}
		tbl2.Close()
	}
	return 1, recrashed
}

// check holds a recovered table against the run's model.
func (w *drainCrashWorld) check(t *testing.T, what string, tbl *Table) {
	t.Helper()
	if errs := tbl.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("%s: %v", what, errs[0])
	}
	s := sessionOn(tbl)
	defer s.Close()
	present := int64(0)
	for i := 0; i <= w.trigger; i++ {
		got, ok := s.Get(key(i))
		if ok {
			present++
		}
		want, live := w.want[i]
		if ok == live && (!ok || got == want) {
			continue
		}
		if i == w.unsure && ((w.after == nil && !ok) || (w.after != nil && ok && got == *w.after)) {
			continue
		}
		switch {
		case !ok:
			t.Fatalf("%s: acknowledged key %d is gone", what, i)
		case !live:
			t.Fatalf("%s: deleted key %d is back, reading %q", what, i, got.String())
		default:
			t.Fatalf("%s: key %d reads %q, want %q", what, i, got.String(), want.String())
		}
	}
	if tbl.Count() != present {
		t.Fatalf("%s: table counts %d records, %d of the known keys are present", what, tbl.Count(), present)
	}
}
