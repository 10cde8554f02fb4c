package simnet

import (
	"testing"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/simclock"
)

func TestDuplicationDeliversTwice(t *testing.T) {
	sched, net, boxes := setup(t, Config{Faults: LinkFaults{DupRate: 1.0}, Seed: 3})
	net.Send(1, 2, "x")
	sched.Run()
	if len(boxes[2].msgs) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(boxes[2].msgs))
	}
	stats := net.FaultStats()
	if stats.Duplicated != 1 || stats.Delivered != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestReorderHoldsMessagesBack(t *testing.T) {
	// With ReorderFrac 1.0, every message gets an extra random delay on top
	// of the base latency; with enough messages later sends overtake earlier
	// ones.
	sched := simclock.New()
	net := New(sched, Config{Faults: LinkFaults{ReorderFrac: 1.0, MaxReorderDelay: 500 * time.Millisecond}, Seed: 5})
	var order []int
	for _, id := range []NodeID{1, 2} {
		if err := net.Register(id, 0, func(_ NodeID, payload any) {
			order = append(order, payload.(int))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		net.Send(1, 2, i)
	}
	sched.Run()
	if len(order) != 20 {
		t.Fatalf("delivered %d, want 20", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("reordering must let some later message overtake an earlier one")
	}
	if net.FaultStats().Reordered == 0 {
		t.Fatal("reordered counter must move")
	}
}

func TestPerLinkFaultOverride(t *testing.T) {
	// Global config is perfect; only the 1->2 link drops everything.
	sched, net, boxes := setup(t, Config{Seed: 1})
	net.SetLinkFaults(1, 2, LinkFaults{DropRate: 1.0})
	net.Send(1, 2, "dropped")
	net.Send(1, 3, "ok")
	sched.Run()
	if len(boxes[2].msgs) != 0 {
		t.Fatal("overridden link must drop")
	}
	if len(boxes[3].msgs) != 1 {
		t.Fatal("other links must use the global config")
	}
	net.ClearLinkFaults(1, 2)
	net.Send(1, 2, "healed")
	sched.Run()
	if len(boxes[2].msgs) != 1 {
		t.Fatal("cleared override must restore delivery")
	}
}

func TestSchedulePartitionCutsAndHeals(t *testing.T) {
	sched, net, boxes := setup(t, Config{})
	net.SchedulePartition(time.Second, 2*time.Second, 1)

	sched.After(1500*time.Millisecond, func() { net.Send(1, 2, "during") })
	sched.After(2500*time.Millisecond, func() { net.Send(1, 2, "after") })
	sched.Run()
	if len(boxes[2].msgs) != 1 || boxes[2].msgs[0] != "after" {
		t.Fatalf("msgs = %v: partition must drop, heal must restore", boxes[2].msgs)
	}
}

func TestScheduleCrashDownAndRestart(t *testing.T) {
	sched, net, boxes := setup(t, Config{})
	net.ScheduleCrash(2, time.Second, 2*time.Second)

	sched.After(1500*time.Millisecond, func() { net.Send(1, 2, "while-down") })
	sched.After(2500*time.Millisecond, func() { net.Send(1, 2, "after-restart") })
	sched.Run()
	if len(boxes[2].msgs) != 1 || boxes[2].msgs[0] != "after-restart" {
		t.Fatalf("msgs = %v: crash must drop, restart must restore", boxes[2].msgs)
	}
}

func TestNetworkObserveMirrorsCounters(t *testing.T) {
	sched, net, _ := setup(t, Config{Faults: LinkFaults{DupRate: 1.0}, Seed: 2})
	c := metrics.NewCounters()
	net.Observe(c)
	net.Send(1, 2, "x")
	net.Send(1, 99, "lost")
	sched.Run()
	if c.Get("wan.delivered") != 2 || c.Get("wan.duplicated") != 1 || c.Get("wan.dropped") != 1 {
		t.Fatalf("counters = %v", c.Snapshot())
	}
}

func TestLinkDeliversAfterBaseDelay(t *testing.T) {
	sched := simclock.New()
	link := NewLink(sched, 40*time.Millisecond, LinkFaults{}, 0)
	var at time.Duration
	link.Deliver(func() { at = sched.Now() }, nil, nil)
	sched.Run()
	if at != 40*time.Millisecond {
		t.Fatalf("delivered at %v, want 40ms", at)
	}
}

func TestLinkDropAndDuplicate(t *testing.T) {
	sched := simclock.New()
	drop := NewLink(sched, time.Millisecond, LinkFaults{DropRate: 1.0}, 1)
	ran := 0
	drop.Deliver(func() { ran++ }, nil, nil)
	sched.Run()
	if ran != 0 {
		t.Fatal("a fully lossy link must never deliver")
	}
	if drop.Stats().Dropped != 1 {
		t.Fatalf("stats = %+v", drop.Stats())
	}

	dup := NewLink(sched, time.Millisecond, LinkFaults{DupRate: 1.0}, 1)
	dup.Deliver(func() { ran++ }, nil, nil)
	sched.Run()
	if ran != 2 {
		t.Fatalf("duplicating link ran fn %d times, want 2", ran)
	}
}

func TestLinkCutStopsDelivery(t *testing.T) {
	sched := simclock.New()
	link := NewLink(sched, time.Millisecond, LinkFaults{}, 0)
	ran := 0
	link.SetCut(true)
	if !link.Cut() {
		t.Fatal("Cut must report the severed state")
	}
	link.Deliver(func() { ran++ }, nil, nil)
	link.SetCut(false)
	link.Deliver(func() { ran++ }, nil, nil)
	sched.Run()
	if ran != 1 {
		t.Fatalf("ran = %d: cut must drop, heal must deliver", ran)
	}
}

func TestLinkDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		sched := simclock.New()
		link := NewLink(sched, 50*time.Millisecond,
			LinkFaults{DropRate: 0.3, DupRate: 0.3, JitterFrac: 0.2}, seed)
		var times []time.Duration
		for i := 0; i < 30; i++ {
			link.Deliver(func() { times = append(times, sched.Now()) }, nil, nil)
		}
		sched.Run()
		return times
	}
	a, b := run(9), run(9)
	if len(a) != len(b) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different timing at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLinkObserveMirrorsCounters(t *testing.T) {
	sched := simclock.New()
	c := metrics.NewCounters()
	link := NewLink(sched, time.Millisecond, LinkFaults{DupRate: 1.0}, 4)
	link.Observe(c, "submit")
	link.Deliver(func() {}, nil, nil)
	sched.Run()
	if c.Get("submit.delivered") != 2 || c.Get("submit.duplicated") != 1 {
		t.Fatalf("counters = %v", c.Snapshot())
	}
}
