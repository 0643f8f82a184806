// Command hdnhload bulk-loads records into any of the four schemes, prints
// occupancy and NVM-traffic statistics, and can persist the device image
// for later inspection or recovery experiments.
//
//	hdnhload -scheme HDNH -n 100000 -verify
//	hdnhload -scheme CCEH -n 50000 -out /tmp/cceh.img
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hdnh/internal/harness"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
	"hdnh/internal/ycsb"
)

func main() {
	var (
		schemeName = flag.String("scheme", "HDNH", "scheme: "+fmt.Sprint(scheme.Names()))
		n          = flag.Int64("n", 100_000, "records to load")
		threads    = flag.Int("threads", 4, "loader goroutines")
		verify     = flag.Bool("verify", false, "read every record back after loading")
		out        = flag.String("out", "", "write the persisted device image to this file")
	)
	mode := nvm.ModeModel
	flag.Var(&mode, "mode", "device mode: model | emulate | strict")
	flag.Parse()

	if *n <= 0 {
		usageErr("-n %d must be positive", *n)
	}
	if *threads <= 0 {
		usageErr("-threads %d must be positive", *threads)
	}

	dev, err := nvm.New(harness.DeviceConfig(mode, harness.DeviceWords(*n, 0)))
	if err != nil {
		fatal("creating device: %v", err)
	}
	st, err := scheme.Open(*schemeName, dev, *n)
	if err != nil {
		fatal("opening scheme: %v", err)
	}
	defer st.Close()

	start := time.Now()
	if err := harness.Preload(st, *n, *threads); err != nil {
		fatal("loading: %v", err)
	}
	elapsed := time.Since(start)
	fmt.Printf("scheme      %s\n", st.Name())
	fmt.Printf("records     %d in %v (%.3f Mops/s)\n", *n, elapsed.Round(time.Millisecond),
		float64(*n)/elapsed.Seconds()/1e6)
	fmt.Printf("count       %d\n", st.Count())
	fmt.Printf("load factor %.3f\n", st.LoadFactor())
	fmt.Printf("device      %d of %d words used\n", dev.Words()-dev.FreeWords(), dev.Words())

	if *verify {
		s := st.NewSession()
		before := s.NVMStats()
		vStart := time.Now()
		for i := int64(0); i < *n; i++ {
			v, ok := s.Get(ycsb.RecordKey(i))
			if !ok || v != ycsb.ValueFor(i) {
				fatal("verify: record %d wrong (%q, %v)", i, v.String(), ok)
			}
		}
		vElapsed := time.Since(vStart)
		delta := s.NVMStats().Sub(before)
		fmt.Printf("verify      OK, %d records in %v (%.3f Mops/s)\n",
			*n, vElapsed.Round(time.Millisecond), float64(*n)/vElapsed.Seconds()/1e6)
		fmt.Printf("verify NVM  %s\n", delta)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating image file: %v", err)
		}
		if err := dev.SaveImage(f); err != nil {
			fatal("saving image: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("closing image file: %v", err)
		}
		fmt.Printf("image       %s\n", *out)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhload: "+format+"\n", args...)
	os.Exit(1)
}

// usageErr reports a bad flag value and exits with the usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hdnhload: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
