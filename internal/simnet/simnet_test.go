package simnet

import (
	"testing"
	"time"

	"scmove/internal/simclock"
)

type inbox struct {
	msgs []any
	at   []time.Duration
}

func setup(t *testing.T, cfg Config) (*simclock.Scheduler, *Network, map[NodeID]*inbox) {
	t.Helper()
	sched := simclock.New()
	net := New(sched, cfg)
	boxes := make(map[NodeID]*inbox)
	for id, region := range map[NodeID]Region{1: 0, 2: 4, 3: 10} {
		box := &inbox{}
		boxes[id] = box
		if err := net.Register(id, region, func(_ NodeID, payload any) {
			box.msgs = append(box.msgs, payload)
			box.at = append(box.at, sched.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sched, net, boxes
}

func TestDeliveryWithMatrixLatency(t *testing.T) {
	sched, net, boxes := setup(t, Config{})
	net.Send(1, 2, "hello") // us-east -> ireland: 34 ms
	sched.Run()
	box := boxes[2]
	if len(box.msgs) != 1 || box.msgs[0] != "hello" {
		t.Fatalf("msgs = %v", box.msgs)
	}
	if box.at[0] != 34*time.Millisecond {
		t.Fatalf("delivered at %v, want 34ms", box.at[0])
	}
}

func TestLatencyMatrixSymmetricAndPositive(t *testing.T) {
	for a := Region(0); a < RegionCount; a++ {
		for b := Region(0); b < RegionCount; b++ {
			if Latency(a, b) != Latency(b, a) {
				t.Fatalf("asymmetric latency %s-%s", a.Name(), b.Name())
			}
			if Latency(a, b) <= 0 {
				t.Fatalf("non-positive latency %s-%s", a.Name(), b.Name())
			}
		}
	}
}

func TestUnknownNodesDrop(t *testing.T) {
	sched, net, _ := setup(t, Config{})
	net.Send(1, 99, "x")
	net.Send(99, 1, "x")
	sched.Run()
	if _, dropped := net.Stats(); dropped != 2 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestNodeDown(t *testing.T) {
	sched, net, boxes := setup(t, Config{})
	net.SetNodeDown(2, true)
	net.Send(1, 2, "x") // receiver down
	net.Send(2, 3, "x") // sender down
	sched.Run()
	if len(boxes[2].msgs) != 0 || len(boxes[3].msgs) != 0 {
		t.Fatal("down node must not send or receive")
	}
	net.SetNodeDown(2, false)
	net.Send(1, 2, "y")
	sched.Run()
	if len(boxes[2].msgs) != 1 {
		t.Fatal("revived node must receive again")
	}
}

func TestCrashWhileInFlight(t *testing.T) {
	sched, net, boxes := setup(t, Config{})
	net.Send(1, 2, "x")
	// Crash the receiver before the message lands.
	sched.After(time.Millisecond, func() { net.SetNodeDown(2, true) })
	sched.Run()
	if len(boxes[2].msgs) != 0 {
		t.Fatal("message must not be delivered to a node that crashed in flight")
	}
}

func TestLinkCut(t *testing.T) {
	sched, net, boxes := setup(t, Config{})
	net.SetLinkCut(1, 2, true)
	net.Send(1, 2, "x")
	net.Send(2, 1, "x")
	net.Send(1, 3, "ok")
	sched.Run()
	if len(boxes[2].msgs) != 0 || len(boxes[1].msgs) != 0 {
		t.Fatal("cut link must drop both directions")
	}
	if len(boxes[3].msgs) != 1 {
		t.Fatal("other links must be unaffected")
	}
}

func TestDropRate(t *testing.T) {
	sched := simclock.New()
	net := New(sched, Config{Faults: LinkFaults{DropRate: 1.0}, Seed: 1})
	received := 0
	for _, id := range []NodeID{1, 2} {
		if err := net.Register(id, 0, func(NodeID, any) { received++ }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		net.Send(1, 2, i)
	}
	sched.Run()
	if received != 0 {
		t.Fatalf("received = %d with drop rate 1.0", received)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) time.Duration {
		sched := simclock.New()
		net := New(sched, Config{Faults: LinkFaults{JitterFrac: 0.2}, Seed: seed})
		var at time.Duration
		for _, id := range []NodeID{1, 2} {
			if err := net.Register(id, Region(int(id)), func(NodeID, any) { at = sched.Now() }); err != nil {
				t.Fatal(err)
			}
		}
		net.Send(1, 2, "x")
		sched.Run()
		return at
	}
	if run(7) != run(7) {
		t.Fatal("same seed must give identical timing")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds should differ (jitter active)")
	}
}

func TestRegisterValidation(t *testing.T) {
	net := New(simclock.New(), Config{})
	if err := net.Register(1, Region(99), func(NodeID, any) {}); err == nil {
		t.Fatal("invalid region must be rejected")
	}
	if err := net.Register(1, 0, nil); err == nil {
		t.Fatal("nil handler must be rejected")
	}
}
