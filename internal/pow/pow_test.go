package pow

import (
	"testing"
	"time"
)

func TestTimerMeanApproximation(t *testing.T) {
	timer := NewTimer(42, 15*time.Second)
	var total time.Duration
	const samples = 5000
	for i := 0; i < samples; i++ {
		d := timer.Next()
		if d <= 0 {
			t.Fatal("non-positive interval")
		}
		total += d
	}
	mean := total / samples
	if mean < 13*time.Second || mean > 17*time.Second {
		t.Fatalf("sample mean = %v, want ≈15 s", mean)
	}
}

func TestTimerDeterministic(t *testing.T) {
	a, b := NewTimer(7, time.Second), NewTimer(7, time.Second)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give the same sequence")
		}
	}
}

func TestTimerClamping(t *testing.T) {
	timer := NewTimer(1, 15*time.Second)
	for i := 0; i < 10000; i++ {
		d := timer.Next()
		if d < 150*time.Millisecond || d > 150*time.Second {
			t.Fatalf("interval %v outside clamp bounds", d)
		}
	}
}
