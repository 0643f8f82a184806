package harness

import (
	"hdnh/internal/bigkv"
	"hdnh/internal/core"
	"hdnh/internal/kv"
	"hdnh/internal/nvm"
	"hdnh/internal/scheme"
)

// DeviceWords sizes a device for a table of `records` records plus
// extraWords of other data (a value log). The table part is generous: bump
// allocation never reuses space, and growing schemes abandon old levels and
// segments, so live data needs several times its size in raw words. The
// result is at least 1<<20 words and a whole number of media blocks.
func DeviceWords(records, extraWords int64) int64 {
	words := (records+1024)*kv.SlotWords*24 + extraWords
	if words < 1<<20 {
		words = 1 << 20
	}
	if r := words % nvm.BlockWords; r != 0 {
		words += nvm.BlockWords - r
	}
	return words
}

// DeviceConfig is the device every tool runs a mode on: ModeModel only
// counts, ModeEmulate adds the Optane latency and bandwidth profile, and
// ModeStrict the crash-consistency overlay. Callers may adjust the returned
// Config (wear tracking, crash eviction odds) before nvm.New.
func DeviceConfig(mode nvm.Mode, words int64) nvm.Config {
	switch mode {
	case nvm.ModeEmulate:
		return nvm.EmulateConfig(words)
	case nvm.ModeStrict:
		return nvm.StrictConfig(words)
	default:
		return nvm.DefaultConfig(words)
	}
}

// hdnhOptions are the index options every harness-built HDNH table starts
// from, set the way the scheme registry sets them: the bottom level sized
// for hint records, and the installed metrics registry and flight recorder
// (core.DefaultMetrics, core.DefaultFlight) attached.
func hdnhOptions(hint int64) core.Options {
	opts := core.DefaultOptions()
	opts.InitBottomSegments = core.SizeBottomSegments(hint, opts.SegmentBuckets)
	opts.Metrics = core.DefaultMetrics()
	opts.Flight = core.DefaultFlight()
	return opts
}

// OpenHDNH creates an HDNH router on dev from hdnhOptions(hint); mutate,
// when non-nil, adjusts the options last. Tools that need a router the
// registry cannot describe (a shard count, a swept option) build it here.
func OpenHDNH(dev *nvm.Device, hint int64, mutate func(*core.Options)) (*core.Router, error) {
	opts := hdnhOptions(hint)
	if mutate != nil {
		mutate(&opts)
	}
	return core.CreateRouter(dev, opts)
}

// openHDNHWith builds an HDNH store through OpenHDNH on a fresh device of
// the scale's mode, sized for hint records and as many again of growth.
func openHDNHWith(sc Scale, hint int64, mutate func(*core.Options)) (scheme.Store, *core.Router, error) {
	dev, err := nvm.New(DeviceConfig(sc.Mode, DeviceWords(2*hint, 0)))
	if err != nil {
		return nil, nil, err
	}
	r, err := OpenHDNH(dev, hint, mutate)
	if err != nil {
		return nil, nil, err
	}
	return core.NewRouterStore(r), r, nil
}

// openBigKV builds a bigkv store on a fresh device of the scale's mode, its
// index options from hdnhOptions(hint). mutate adjusts the options last and
// sets the value log's geometry (SegmentWords, Segments); the device is
// sized for hint records and as many again of growth, plus that log.
func openBigKV(sc Scale, hint int64, mutate func(*bigkv.Options)) (*bigkv.Store, error) {
	opts := bigkv.Options{Table: hdnhOptions(hint)}
	mutate(&opts)
	dev, err := nvm.New(DeviceConfig(sc.Mode, DeviceWords(2*hint, opts.SegmentWords*opts.Segments)))
	if err != nil {
		return nil, err
	}
	return bigkv.Create(dev, opts)
}
