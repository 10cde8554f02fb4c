package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersIncAddGet(t *testing.T) {
	c := NewCounters()
	if c.Get("missing") != 0 {
		t.Fatal("unset counter must read zero")
	}
	c.Inc("a")
	c.Inc("a")
	c.Add("b", 5)
	if c.Get("a") != 2 || c.Get("b") != 5 {
		t.Fatalf("a=%d b=%d", c.Get("a"), c.Get("b"))
	}
}

func TestCountersNamesSorted(t *testing.T) {
	c := NewCounters()
	c.Inc("z.late")
	c.Inc("a.early")
	c.Inc("m.mid")
	names := c.Names()
	if len(names) != 3 || names[0] != "a.early" || names[1] != "m.mid" || names[2] != "z.late" {
		t.Fatalf("names = %v", names)
	}
}

func TestCountersSnapshotIsCopy(t *testing.T) {
	c := NewCounters()
	c.Inc("x")
	snap := c.Snapshot()
	c.Inc("x")
	if snap["x"] != 1 || c.Get("x") != 2 {
		t.Fatal("snapshot must not track later increments")
	}
}

func TestCountersSumByPrefix(t *testing.T) {
	c := NewCounters()
	c.Add("relay.move1_retries", 3)
	c.Add("relay.move2_retries", 4)
	c.Add("wan.dropped", 100)
	if got := c.Sum("relay."); got != 7 {
		t.Fatalf("Sum(relay.) = %d", got)
	}
	if got := c.Sum("nope."); got != 0 {
		t.Fatalf("Sum(nope.) = %d", got)
	}
}

func TestCountersStringTable(t *testing.T) {
	c := NewCounters()
	c.Add("wan.dropped", 42)
	s := c.String()
	if !strings.Contains(s, "wan.dropped") || !strings.Contains(s, "42") {
		t.Fatalf("table output missing row: %q", s)
	}
}

// TestHandleCountsIntoTheNamedCounter: a handle and the by-name calls are
// two ways to reach one counter.
func TestHandleCountsIntoTheNamedCounter(t *testing.T) {
	c := NewCounters()
	h := c.Handle("wan.delivered")
	h.Inc()
	h.Add(2)
	c.Inc("wan.delivered")
	if got := c.Get("wan.delivered"); got != 4 {
		t.Fatalf("wan.delivered = %d, want 4", got)
	}
	if got := c.Sum("wan."); got != 4 {
		t.Fatalf("Sum(wan.) = %d, want 4", got)
	}
	if snap := c.Snapshot(); len(snap) != 1 || snap["wan.delivered"] != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestUnusedHandleIsNotListed: run fingerprints list counters by name, so
// resolving a handle for an event that never fires must leave no trace,
// while a by-name Add of zero still lists, as it always has.
func TestUnusedHandleIsNotListed(t *testing.T) {
	c := NewCounters()
	h := c.Handle("wan.corrupted")
	c.Add("relay.retries", 0)
	if names := c.Names(); len(names) != 1 || names[0] != "relay.retries" {
		t.Fatalf("names = %v, want only relay.retries", names)
	}
	if _, ok := c.Snapshot()["wan.corrupted"]; ok {
		t.Fatal("snapshot lists a counter no event reached")
	}
	if strings.Contains(c.String(), "wan.corrupted") {
		t.Fatal("table lists a counter no event reached")
	}
	h.Inc()
	if names := c.Names(); len(names) != 2 || names[1] != "wan.corrupted" {
		t.Fatalf("names after the first event = %v", names)
	}
}

// TestZeroHandleCountsNothing: components resolve their handles from an
// optional *Counters; without one every handle is the zero Handle.
func TestZeroHandleCountsNothing(t *testing.T) {
	var c *Counters
	h := c.Handle("anything")
	h.Inc()
	h.Add(7)
	Handle{}.Inc()
}

// TestHandleConcurrentInc: laned universes count from concurrent wave
// workers (run under -race).
func TestHandleConcurrentInc(t *testing.T) {
	c := NewCounters()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			h := c.Handle("wan.delivered")
			for i := 0; i < each; i++ {
				h.Inc()
				c.Inc("wan.dropped")
			}
		}()
	}
	wg.Wait()
	if got, want := c.Get("wan.delivered")+c.Get("wan.dropped"), uint64(2*workers*each); got != want {
		t.Fatalf("counted %d events, want %d", got, want)
	}
}

// TestWaitCountsOnlyBlocks: a Wait counts a receive or send that had to
// block, with its wall time, and nothing that went through at once; the
// zero Wait counts nothing, lists nothing and allocates nothing.
func TestWaitCountsOnlyBlocks(t *testing.T) {
	c := NewCounters()
	w := c.Wait(LoopWaitPrefix + "test")
	ready := make(chan int, 1)
	ready <- 1
	Recv(w, ready)
	Send(w, ready, 2)
	if names := c.Names(); len(names) != 0 {
		t.Fatalf("waits that never blocked are listed: %v", names)
	}
	ch := make(chan int)
	go func() {
		time.Sleep(5 * time.Millisecond)
		ch <- 3
		time.Sleep(5 * time.Millisecond)
		<-ch
	}()
	if v := Recv(w, ch); v != 3 {
		t.Fatalf("received %d", v)
	}
	Send(w, ch, 4)
	if got := c.Get("loopwait.test.blocks"); got != 2 {
		t.Fatalf("%d blocks counted, want 2", got)
	}
	if ns := c.Get("loopwait.test.ns"); ns < uint64(5*time.Millisecond) {
		t.Fatalf("%d ns blocked, want at least 5 ms", ns)
	}
	<-ready
	var off Wait
	if n := testing.AllocsPerRun(100, func() {
		Send(off, ready, 5)
		Recv(off, ready)
	}); n != 0 {
		t.Fatalf("the zero Wait allocates %v times per call", n)
	}
	if !ProcessCounter("loopwait.test.ns") || !ProcessCounter("sendercache.hits") || ProcessCounter("wan.dropped") {
		t.Fatal("ProcessCounter must match loopwait.* and sendercache.* only")
	}
}
