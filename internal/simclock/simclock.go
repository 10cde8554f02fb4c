// Package simclock implements a deterministic discrete-event scheduler.
//
// The paper's evaluation runs on an 80-machine cluster with emulated WAN
// latencies and waits out real block intervals (5 s Tendermint, 15 s
// Ethereum). This reproduction replays the same protocols in simulated
// time: every node action is an event on one totally-ordered timeline, so
// a multi-hour experiment executes in milliseconds and is reproducible
// bit-for-bit. Latency and throughput numbers reported by the benchmarks
// are simulated-clock readings.
package simclock

import (
	"time"
)

// Scheduler is a discrete-event clock. The zero value is ready to use.
// It is not safe for concurrent use: the simulation timeline is single-
// threaded by design, which is what makes runs deterministic. Goroutines
// outside the timeline (RPC handlers, socket readers) hand work to it
// through Realtime.Post.
//
// The event queue is a hand-rolled binary heap over event values (not
// pointers), so the queue allocates nothing beyond amortized slice growth —
// the scheduler sits on every hot path of the simulator. The func a caller
// hands in is the caller's cost: a closure literal capturing variables
// allocates at every call. Hot callers schedule a func value bound once
// instead, as simnet does with a pooled record per WAN message.
type Scheduler struct {
	now    time.Duration
	queue  []event
	nextID uint64
}

// New returns an empty scheduler at time zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time since the simulation epoch.
func (s *Scheduler) Now() time.Duration { return s.now }

// NowUnix returns the simulated time as unix-style seconds (block
// timestamps use this form).
func (s *Scheduler) NowUnix() uint64 { return uint64(s.now / time.Second) }

// At schedules fn to run at absolute simulated time t. Events scheduled in
// the past run at the current time, in scheduling order.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.nextID++
	s.queue = append(s.queue, event{at: t, seq: s.nextID, fn: fn})
	s.siftUp(len(s.queue) - 1)
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// Step runs the next event, if any, advancing the clock to its time.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue[0]
	last := len(s.queue) - 1
	s.queue[0] = s.queue[last]
	s.queue[last] = event{} // release the closure for GC
	s.queue = s.queue[:last]
	if last > 0 {
		s.siftDown(0)
	}
	s.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then sets the clock to the
// deadline. Events scheduled beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// NextAt peeks at the earliest queued event's time without running it.
// The realtime driver uses it to decide how long to sleep on the wall
// clock before the next due event.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

type event struct {
	at  time.Duration
	seq uint64 // tie-break: FIFO among same-time events
	fn  func()
}

// less orders events by time, then scheduling order. The (at, seq) pair is
// a strict total order, so the pop sequence — and with it simulation
// determinism — is independent of the heap's internal layout.
func (s *Scheduler) less(i, j int) bool {
	if s.queue[i].at != s.queue[j].at {
		return s.queue[i].at < s.queue[j].at
	}
	return s.queue[i].seq < s.queue[j].seq
}

func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s.queue[i], s.queue[parent] = s.queue[parent], s.queue[i]
		i = parent
	}
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.queue)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && s.less(right, left) {
			min = right
		}
		if !s.less(min, i) {
			return
		}
		s.queue[i], s.queue[min] = s.queue[min], s.queue[i]
		i = min
	}
}
