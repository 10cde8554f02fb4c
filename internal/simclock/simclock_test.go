package simclock

import (
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO broken: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []time.Duration
	s.After(time.Second, func() {
		fired = append(fired, s.Now())
		s.After(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New()
	ran := 0
	s.After(1*time.Second, func() { ran++ })
	s.After(5*time.Second, func() { ran++ })
	s.RunUntil(2 * time.Second)
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("now = %v", s.Now())
	}
	if at, ok := s.NextAt(); !ok || at != 5*time.Second {
		t.Fatalf("next event (%v, %v), want the one at 5s", at, ok)
	}
	s.Run()
	if ran != 2 {
		t.Fatal("remaining event must still run")
	}
}

func TestPastEventsRunNow(t *testing.T) {
	s := New()
	s.After(10*time.Second, func() {})
	s.Run()
	fired := time.Duration(-1)
	s.At(time.Second, func() { fired = s.Now() }) // in the past
	s.Run()
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v", fired)
	}
}

func TestNowUnix(t *testing.T) {
	s := New()
	s.After(90*time.Second, func() {})
	s.Run()
	if s.NowUnix() != 90 {
		t.Fatalf("unix = %d", s.NowUnix())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("empty queue must not step")
	}
}
