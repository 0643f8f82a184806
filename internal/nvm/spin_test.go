package nvm

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSpinWait measures what one emulated stall of each size costs on
// the CPU: a wait ends at the first clock read past its deadline, so its
// ns/op is the requested delay plus the clock reads' overshoot.
func BenchmarkSpinWait(b *testing.B) {
	for _, d := range []time.Duration{30 * time.Nanosecond, 100 * time.Nanosecond, 300 * time.Nanosecond} {
		b.Run(fmt.Sprint(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spinWait(d)
			}
		})
	}
}
