// Bigvalues: HDNH as the index of a WiscKey-style key-value-separated
// store (extension; the paper cites WiscKey as [19]). Values of any size
// live in a crash-safe segmented NVM log; the HDNH slot holds either the
// value inline (≤ 13 bytes) or its log address — so point lookups keep
// HDNH's one-fingerprint-probe read path regardless of value size. Space
// freed by overwrites and deletes is reclaimed online by a background GC
// that recycles segments in place, so the log never grows past its fixed
// footprint.
package main

import (
	"bytes"
	"fmt"
	"log"

	"hdnh/internal/bigkv"
	"hdnh/internal/nvm"
)

func main() {
	dev, err := nvm.New(nvm.DefaultConfig(1 << 22))
	if err != nil {
		log.Fatal(err)
	}
	opts := bigkv.DefaultOptions()
	// A deliberately small log (1 MB) so the churn below laps it and the
	// online GC has to recycle segments.
	opts.SegmentWords = 1 << 12
	opts.Segments = 32
	st, err := bigkv.Create(dev, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	s := st.NewSession()

	// Small values stay inline in the HDNH slot.
	if err := s.Put([]byte("motto"), []byte("read-efficient")); err != nil {
		log.Fatal(err)
	}
	// Large values go to the value log; the slot stores the address.
	document := bytes.Repeat([]byte("HDNH separates keys from values. "), 300) // ~10KB
	if err := s.Put([]byte("paper:intro"), document); err != nil {
		log.Fatal(err)
	}

	v, ok, err := s.Get([]byte("motto"))
	if err != nil || !ok {
		log.Fatal("motto lost")
	}
	fmt.Printf("motto        -> %q (inline)\n", v)

	v, ok, err = s.Get([]byte("paper:intro"))
	if err != nil || !ok {
		log.Fatal("document lost")
	}
	fmt.Printf("paper:intro  -> %d bytes via the value log\n", len(v))

	// Overwrites are crash-safe: the new value commits in the log before
	// the index flips to it.
	if err := s.Put([]byte("paper:intro"), []byte("(retracted)")); err != nil {
		log.Fatal(err)
	}
	v, _, _ = s.Get([]byte("paper:intro"))
	fmt.Printf("after update -> %q\n", v)

	// Churn far past the log's capacity: the GC recycles dead segments in
	// place, so appended bytes can exceed the fixed footprint many times.
	for gen := 0; gen < 2000; gen++ {
		doc := bytes.Repeat([]byte{byte(gen)}, 2048)
		if err := s.Put([]byte("paper:intro"), doc); err != nil {
			log.Fatalf("overwrite generation %d: %v", gen, err)
		}
	}
	lg := st.Log()
	fmt.Printf("\nchurn: appended %.1f MB through a %.1f MB log (%d segment recycles)\n",
		float64(lg.AppendedWords())*8/1e6, float64(lg.Capacity())*8/1e6, lg.Recycles())

	fmt.Printf("\nindex: %s\n", st.Index().Stats()[0])
	fmt.Printf("log:   %d of %d words live, %d of %d segments free\n",
		lg.LiveWords(), lg.Capacity(), lg.FreeSegments(), lg.Segments())
}
