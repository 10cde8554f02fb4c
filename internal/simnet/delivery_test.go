package simnet

import (
	"math/rand"
	"testing"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/simclock"
)

// probe is a message that names its own endpoints, so a delivery record
// reused with a stale field shows at the receiver.
type probe struct {
	seq      int
	from, to NodeID
	hops     int
	tampered bool
}

// TestPooledDeliveriesCarryTheirOwnMessage sends over 10 000 message copies
// through recycled delivery records — every message duplicated, a tenth of
// the copies tampered, handlers that send from inside their own delivery,
// and a receiver that crashes with messages in flight and comes back — and
// requires every copy to reach the node it was sent to with the sender and
// payload it was sent with.
func TestPooledDeliveriesCarryTheirOwnMessage(t *testing.T) {
	sched := simclock.New()
	net := New(sched, Config{
		Seed:   5,
		Faults: LinkFaults{DupRate: 1, JitterFrac: 0.3, ReorderFrac: 0.2, CorruptRate: 0.1},
		Tamper: func(_ *rand.Rand, payload any) (any, bool) {
			p := payload.(probe)
			p.tampered = true
			return p, true
		},
	})
	reg := metrics.NewRegistry()
	net.SetRegistry(reg)

	const nodes, crashed = 5, NodeID(3)
	var (
		sent       []probe // by seq
		deliveries []int   // by seq
		tampered   int
		afterCrash int // deliveries to the crashed node after its restart
	)
	send := func(from, to NodeID, hops int) {
		p := probe{seq: len(sent), from: from, to: to, hops: hops}
		sent = append(sent, p)
		deliveries = append(deliveries, 0)
		net.Send(from, to, p)
	}
	const downAt, upAt = 200 * time.Millisecond, 400 * time.Millisecond
	for id := NodeID(1); id <= nodes; id++ {
		if err := net.Register(id, Region(id), func(from NodeID, payload any) {
			p := payload.(probe)
			if want := sent[p.seq]; p.to != id || p.from != from || p.from != want.from || p.hops != want.hops {
				t.Fatalf("node %d got %+v from %d, sent %+v", id, p, from, want)
			}
			deliveries[p.seq]++
			if p.tampered {
				tampered++
			}
			if id == crashed && sched.Now() > upAt {
				afterCrash++
			}
			// Forward once per message; the duplicate copy does not fork.
			if deliveries[p.seq] == 1 && p.hops > 0 {
				send(id, id%nodes+1, p.hops-1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sched.At(downAt, func() { net.SetNodeDown(crashed, true) })
	sched.At(upAt, func() { net.SetNodeDown(crashed, false) })
	for i := 0; i < 1000; i++ {
		from := NodeID(i%nodes + 1)
		sched.At(time.Duration(i)*time.Millisecond, func() { send(from, from%nodes+1, 6) })
	}
	sched.Run()

	total := 0
	for seq, n := range deliveries {
		total += n
		p := sent[seq]
		if p.from != crashed && p.to != crashed && n != 2 {
			t.Fatalf("message %+v delivered %d times, want both copies", p, n)
		}
		if n > 2 {
			t.Fatalf("message %+v delivered %d times", p, n)
		}
	}
	s := net.FaultStats()
	if total < 10_000 || uint64(total) != s.Delivered {
		t.Fatalf("handlers saw %d deliveries, network counted %d; want ≥ 10 000 and equal", total, s.Delivered)
	}
	// The crashed node loses tampered copies too.
	if tampered == 0 || uint64(tampered) > s.Corrupted {
		t.Fatalf("handlers saw %d tampered copies, network made %d", tampered, s.Corrupted)
	}
	if s.Dropped == 0 || afterCrash == 0 {
		t.Fatalf("the crash dropped %d copies and the node got %d after restart; want both > 0", s.Dropped, afterCrash)
	}
	if inflight := reg.Gauge("wan.inflight"); inflight != 0 {
		t.Fatalf("%v copies still in flight after the run", inflight)
	}
	if peak := reg.Gauge("wan.inflight.peak"); len(net.free) == 0 || float64(len(net.free)) > peak {
		t.Fatalf("free list holds %d records, in-flight peak %v", len(net.free), peak)
	}
}

// TestReRegisterWhileInFlight: a node registered again while a message to
// it is in flight gets the message in its new handler, as a restarted node
// would.
func TestReRegisterWhileInFlight(t *testing.T) {
	sched, net, boxes := setup(t, Config{})
	net.Send(1, 2, "x")
	var got []any
	sched.After(time.Millisecond, func() {
		if err := net.Register(2, 4, func(_ NodeID, payload any) { got = append(got, payload) }); err != nil {
			t.Fatal(err)
		}
	})
	sched.Run()
	if len(boxes[2].msgs) != 0 || len(got) != 1 || got[0] != "x" {
		t.Fatalf("old handler got %v, new handler got %v", boxes[2].msgs, got)
	}
}

// TestSendAndStepAllocateNothing pins the per-message cost of the simulated
// WAN on the path every fault-free run takes: once the free list holds a
// record, a jittered Send and the Step that delivers it allocate nothing,
// and neither do a Broadcast to three peers and the Steps that deliver it.
func TestSendAndStepAllocateNothing(t *testing.T) {
	sched := simclock.New()
	net := New(sched, Config{Seed: 1, Faults: LinkFaults{JitterFrac: 0.1}})
	for _, id := range []NodeID{1, 2, 3, 4} {
		if err := net.Register(id, Region(id), func(NodeID, any) {}); err != nil {
			t.Fatal(err)
		}
	}
	var payload any = "vote"
	allocs := testing.AllocsPerRun(1000, func() {
		net.Send(1, 2, payload)
		sched.Step()
	})
	if allocs != 0 {
		t.Fatalf("Send + Step allocates %.1f times per message", allocs)
	}
	peers := []NodeID{2, 3, 4}
	allocs = testing.AllocsPerRun(1000, func() {
		net.Broadcast(1, peers, payload)
		for range peers {
			sched.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("Broadcast to %d peers + Steps allocates %.1f times", len(peers), allocs)
	}
}
