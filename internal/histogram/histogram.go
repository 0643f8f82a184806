// Package histogram implements a log-linear latency histogram in the spirit
// of HdrHistogram: values are bucketed by power-of-two magnitude with a fixed
// number of linear sub-buckets per magnitude, giving bounded relative error
// (≈3% at 32 sub-buckets) across nine decades with a few KB of memory and no
// allocation on the record path.
//
// Each worker goroutine records into its own Histogram; Merge combines them
// at the end of a run. Percentile and CDF queries drive the paper's Figure 15
// (tail-latency CDF under YCSB-A).
package histogram

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

const (
	subBucketBits  = 5
	subBuckets     = 1 << subBucketBits // 32 linear sub-buckets per magnitude
	magnitudes     = 40                 // covers ~1ns to ~17 minutes
	totalBuckets   = magnitudes * subBuckets
	maxTrackableNs = int64(1) << (magnitudes + subBucketBits - 1)
)

// Buckets is the total bucket count, exported so callers (internal/obs) can
// keep their own atomically updated count arrays with the same geometry.
const Buckets = totalBuckets

// BucketOf maps a nanosecond value to its bucket index in [0, Buckets).
func BucketOf(v int64) int { return bucketIndex(v) }

// FromCounts rebuilds a Histogram from an externally maintained count array
// of length Buckets (for example internal/obs's atomic histograms) plus the
// recorded value sum, so the usual percentile/CDF queries apply. Min and max
// are recovered at bucket resolution.
func FromCounts(counts []uint64, sum uint64) *Histogram {
	h := New()
	if len(counts) > totalBuckets {
		counts = counts[:totalBuckets]
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		h.counts[i] += c
		h.total += c
		ub := bucketUpperBound(i)
		if h.min < 0 {
			h.min = ub
		}
		if ub > h.max {
			h.max = ub
		}
	}
	h.sum = sum
	return h
}

// Histogram records int64 nanosecond values. The zero value is ready to use.
type Histogram struct {
	counts   [totalBuckets]uint64
	total    uint64
	sum      uint64
	min, max int64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{min: -1} }

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= maxTrackableNs {
		v = maxTrackableNs - 1
	}
	// Values below subBuckets land in the first linear region.
	if v < subBuckets {
		return int(v)
	}
	mag := bits.Len64(uint64(v)) - 1 - subBucketBits // which power-of-two region
	sub := v >> uint(mag)                            // in [subBuckets, 2*subBuckets)
	return int(mag+1)*subBuckets + int(sub-subBuckets)
}

// bucketUpperBound returns the largest value mapping to bucket i, used when
// reporting percentiles (bounded relative error comes from reporting bucket
// upper bounds).
func bucketUpperBound(i int) int64 {
	mag := i / subBuckets
	sub := i % subBuckets
	if mag == 0 {
		return int64(sub)
	}
	return (int64(subBuckets+sub+1) << uint(mag-1)) - 1
}

// Record adds one observation of v nanoseconds.
func (h *Histogram) Record(v int64) {
	h.counts[bucketIndex(v)]++
	h.total++
	if v > 0 {
		h.sum += uint64(v)
	}
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration adds one observation.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100).
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(p / 100 * float64(h.total))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			ub := bucketUpperBound(i)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if h.min < 0 || (other.min >= 0 && other.min < h.min) {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{min: -1} }

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	ValueNs  int64   // latency upper bound
	Fraction float64 // fraction of observations at or below ValueNs
}

// CDF returns the cumulative distribution over the occupied buckets,
// suitable for plotting Figure 15.
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var points []CDFPoint
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		ub := bucketUpperBound(i)
		if ub > h.max {
			ub = h.max
		}
		points = append(points, CDFPoint{ValueNs: ub, Fraction: float64(seen) / float64(h.total)})
	}
	return points
}

// Quantiles returns the standard reporting set used in EXPERIMENTS.md.
func (h *Histogram) Quantiles() map[string]int64 {
	return map[string]int64{
		"p50":  h.Percentile(50),
		"p90":  h.Percentile(90),
		"p99":  h.Percentile(99),
		"p999": h.Percentile(99.9),
		"max":  h.Max(),
	}
}

// String renders a one-line summary.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "histogram: empty"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.total,
		time.Duration(int64(h.Mean())).Round(time.Nanosecond),
		time.Duration(h.Percentile(50)),
		time.Duration(h.Percentile(99)),
		time.Duration(h.Percentile(99.9)),
		time.Duration(h.max))
}

// Table renders the CDF as aligned text rows (value, cumulative fraction),
// downsampled to at most maxRows rows.
func (h *Histogram) Table(maxRows int) string {
	points := h.CDF()
	if len(points) == 0 {
		return "(empty)\n"
	}
	step := 1
	if maxRows > 0 && len(points) > maxRows {
		step = (len(points) + maxRows - 1) / maxRows
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%12s  %8s\n", "latency", "cdf")
	for i := 0; i < len(points); i += step {
		p := points[i]
		fmt.Fprintf(&b, "%12v  %8.5f\n", time.Duration(p.ValueNs), p.Fraction)
	}
	last := points[len(points)-1]
	if (len(points)-1)%step != 0 {
		fmt.Fprintf(&b, "%12v  %8.5f\n", time.Duration(last.ValueNs), last.Fraction)
	}
	return b.String()
}

// MergeAll merges a set of per-worker histograms into one.
func MergeAll(hs []*Histogram) *Histogram {
	out := New()
	for _, h := range hs {
		out.Merge(h)
	}
	return out
}

// Exact is a tiny helper for tests: it computes an exact percentile over raw
// samples so histogram answers can be checked for bounded error.
func Exact(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p/100*float64(len(s))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
