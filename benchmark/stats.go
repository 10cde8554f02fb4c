package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileLadder is the set of percentiles a tail metric may report.
var percentileLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// supportedTail returns the highest percentile of the ladder, no higher
// than want, that keeps at least ten samples beyond it in a sample of n
// (choosing-metrics §1). A sample too small for any tail falls back to the
// median.
func supportedTail(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p <= want && float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is not quite 10
			return p
		}
	}
	return 0.50
}

// tail reports the want-percentile of xs, lowered to what the sample
// supports, together with the percentile actually used.
func tail(xs []float64, want float64) (value, used float64) {
	used = supportedTail(len(xs), want)
	return quantile(xs, used), used
}

// usage is a snapshot of the process counters the end-to-end metrics are
// differences of.
type usage struct {
	at    time.Time
	cpu   time.Duration // user + system
	alloc uint64        // runtime.MemStats.TotalAlloc
	gcs   uint32
	pause time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
		pause: time.Duration(ms.PauseTotalNs),
	}
}

// peakRSSMiB is the process's high-water resident set (ru_maxrss, KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// sleepUntil blocks until t with nanosleep(2). The Go runtime rounds timer
// waits below a millisecond up to one on Linux, which would make an
// open-loop generator at a few thousand requests per second late by half a
// millisecond on every request; nanosleep overshoots by well under 0.1 ms.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the caller check the clock sooner
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
