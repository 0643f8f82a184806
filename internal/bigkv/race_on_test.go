//go:build race

package bigkv

// raceEnabled reports that the race detector is on; wall-clock floors skip
// under it, because its instrumentation distorts the timings they compare.
const raceEnabled = true
