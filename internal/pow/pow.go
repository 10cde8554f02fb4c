// Package pow implements the proof-of-work block timer of the
// Ethereum-like chain: exponentially distributed block discovery (15 s mean
// in the paper's configuration, §VI).
//
// Mining is simulated: instead of hashing, the time until the next block is
// drawn from the exponential distribution that real PoW difficulty targets
// induce. A PoW chain has one canonical history; how deep a source header
// is on the target — the parameter p of §IV-A — is the target light
// client's check (core.HeaderStore.ConfirmedAt).
package pow

import (
	"math"
	"math/rand"
	"time"
)

// Timer draws block discovery intervals from the exponential distribution
// with the configured mean, seeded for reproducibility.
type Timer struct {
	rng  *rand.Rand
	mean time.Duration
}

// NewTimer returns a timer with the given mean block interval.
func NewTimer(seed int64, mean time.Duration) *Timer {
	return &Timer{rng: rand.New(rand.NewSource(seed)), mean: mean}
}

// Next returns the time until the next block is found. Samples are clamped
// to [1%, 10×] of the mean to keep simulations responsive under extreme
// draws.
func (t *Timer) Next() time.Duration {
	d := time.Duration(t.rng.ExpFloat64() * float64(t.mean))
	min := t.mean / 100
	max := 10 * t.mean
	return time.Duration(math.Min(math.Max(float64(d), float64(min)), float64(max)))
}
