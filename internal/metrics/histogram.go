package metrics

import (
	"fmt"
	"time"
)

// histBuckets is the fixed bucket layout every zero-value Histogram shares:
// upper bounds doubling from 1 ms up to ~18 hours, plus an implicit
// overflow bucket. Latencies in the simulator are simulated-clock
// durations — sub-millisecond stages do not occur (the fastest modeled
// link is 1 ms) and no experiment runs longer than a simulated day.
//
// Wall-clock front-door latencies (the RPC servers' per-method times, read
// by the benchmark's rpc_* workloads and TestRealtimeTCPRPCMatchesDiscreteEvent)
// live on a very different scale: most samples are well under a
// millisecond, and a run lasts minutes. NewWallHistogram keeps the same
// 26-bucket doubling shape but re-bases it at 1 µs (1µs << 25 ≈ 33.6 s
// before the overflow bucket), so microsecond-scale quantiles resolve
// instead of collapsing into the bottom bucket.
const (
	histBase       = time.Millisecond
	wallHistBase   = time.Microsecond
	histBucketBits = 26 // base << 25 is the last finite bound; index 26 is the overflow bucket
)

// bucketIndex returns the bucket whose upper bound is the smallest
// base<<i ≥ d (the overflow bucket for anything larger).
func bucketIndex(base, d time.Duration) int {
	for i := 0; i < histBucketBits; i++ {
		if d <= base<<i {
			return i
		}
	}
	return histBucketBits
}

// bucketBounds returns the (lower, upper] duration bounds of a bucket.
func bucketBounds(base time.Duration, i int) (time.Duration, time.Duration) {
	if i == 0 {
		return 0, base
	}
	if i >= histBucketBits {
		return base << (histBucketBits - 1), 1 << 62
	}
	return base << (i - 1), base << i
}

// Histogram is a fixed-bucket latency distribution: counts in
// exponentially sized buckets plus the exact sum, minimum, and maximum.
// Quantiles are estimated by linear interpolation inside the bucket the
// rank falls into, clamped by the exact extremes; everything is integer
// arithmetic on deterministic inputs, so two identical runs render
// identical summaries. The zero value is ready to use and carries the
// simulated-time layout (1 ms base); NewWallHistogram re-bases the same
// layout at 1 µs for wall-clock samples.
type Histogram struct {
	base   time.Duration // smallest bucket upper bound; 0 means histBase
	counts [histBucketBits + 1]uint64
	count  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// NewWallHistogram returns a histogram whose bucket layout starts at 1 µs,
// resolving the sub-millisecond latencies real-socket front doors produce.
func NewWallHistogram() *Histogram { return &Histogram{base: wallHistBase} }

// bucketBase returns the effective smallest bucket bound.
func (h *Histogram) bucketBase() time.Duration {
	if h.base == 0 {
		return histBase
	}
	return h.base
}

// Observe records one sample. Negative samples are clamped to zero (a
// defensive guard: stage boundaries are monotone simulated-clock readings).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(h.bucketBase(), d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest sample (zero when empty).
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest sample (zero when empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile estimates the q-th quantile (0 < q ≤ 1) from the bucket counts:
// it walks to the bucket containing the rank and interpolates linearly
// within it, clamping to the exact min/max so estimates never exceed the
// observed range.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum uint64
	for i := range h.counts {
		n := h.counts[i]
		if n == 0 {
			continue
		}
		if rank < cum+n {
			lo, hi := bucketBounds(h.bucketBase(), i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if hi <= lo {
				return hi
			}
			// Position of the rank inside this bucket, interpolated.
			frac := float64(rank-cum+1) / float64(n)
			return lo + time.Duration(float64(hi-lo)*frac)
		}
		cum += n
	}
	return h.max
}

// P50 returns the estimated median.
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 returns the estimated 95th percentile.
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 returns the estimated 99th percentile.
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Summary is a flattened histogram snapshot: the quantile set the stage
// tables print and the performance snapshots serialize.
type Summary struct {
	Count uint64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// Summarize extracts the quantile summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		P50:   h.P50(),
		P95:   h.P95(),
		P99:   h.P99(),
		Max:   h.max,
		Mean:  h.Mean(),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s max=%s",
		s.Count, s.P50, s.P95, s.P99, s.Max)
}
