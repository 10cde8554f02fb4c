package simnet

import (
	"math/rand"
	"testing"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/simclock"
)

// probe is a message that names its own endpoints, so a delivery record
// reused with a stale field shows at the receiver. A *probe is a Releaser;
// a tampered copy is a plain probe, which is not.
type probe struct {
	seq      int
	from, to NodeID // to is 0 for a Broadcast
	hops     int
	tampered bool
	release  func(seq int)
}

func (p *probe) Release() { p.release(p.seq) }

// TestPooledDeliveriesCarryTheirOwnMessage sends over 10 000 message copies
// through recycled delivery and flight records — every message duplicated,
// a tenth of the copies tampered, one link dropping all it carries, every
// tenth message a Broadcast, handlers that send from inside their own
// delivery, and a receiver that crashes with messages in flight and comes
// back — and requires every copy to reach the node it was sent to with the
// sender and payload it was sent with. Every payload is a Releaser: each
// must be released exactly once, never while a handler of one of its
// copies runs nor before its last copy landed, and at once when every copy
// dropped at send.
func TestPooledDeliveriesCarryTheirOwnMessage(t *testing.T) {
	sched := simclock.New()
	net := New(sched, Config{
		Seed:   5,
		Faults: LinkFaults{DupRate: 1, JitterFrac: 0.3, ReorderFrac: 0.2, CorruptRate: 0.1},
		Tamper: func(_ *rand.Rand, payload any) (any, bool) {
			p := *payload.(*probe)
			p.tampered = true
			return p, true
		},
	})
	reg := metrics.NewRegistry()
	net.SetRegistry(reg)

	const nodes, crashed = 5, NodeID(3)
	const lossyFrom, lossyTo = NodeID(5), NodeID(2) // every copy drops at send
	net.SetLinkFaults(lossyFrom, lossyTo, LinkFaults{DropRate: 1})
	var (
		sent       []probe // by seq
		deliveries []int   // by seq
		released   []int   // by seq
		running    []int   // by seq: handlers of its copies now running
		tampered   int
		afterCrash int // deliveries to the crashed node after its restart
		atOnce     int // sends whose copies all dropped
	)
	release := func(seq int) {
		if running[seq] > 0 {
			t.Fatalf("message %d released while a handler of one of its copies runs", seq)
		}
		released[seq]++
	}
	newProbe := func(from, to NodeID, hops int) *probe {
		p := &probe{seq: len(sent), from: from, to: to, hops: hops, release: release}
		sent = append(sent, *p)
		deliveries = append(deliveries, 0)
		released = append(released, 0)
		running = append(running, 0)
		return p
	}
	down := func(id NodeID) bool { return id == crashed && net.down[id] }
	send := func(from, to NodeID, hops int) {
		p := newProbe(from, to, hops)
		net.Send(from, to, p)
		if dropsAll := down(from) || from == lossyFrom && to == lossyTo; dropsAll != (released[p.seq] == 1) {
			t.Fatalf("%+v: every copy dropped at send %v, released %d times on return", *p, dropsAll, released[p.seq])
		}
		if released[p.seq] == 1 {
			atOnce++
		}
	}
	broadcast := func(from NodeID) {
		var peers []NodeID
		for id := NodeID(1); id <= nodes; id++ {
			if id != from {
				peers = append(peers, id)
			}
		}
		p := newProbe(from, 0, 0)
		net.Broadcast(from, peers, p)
		if (released[p.seq] == 1) != down(from) {
			t.Fatalf("broadcast %+v from a down node %v, released %d times on return", *p, down(from), released[p.seq])
		}
	}
	const downAt, upAt = 200 * time.Millisecond, 400 * time.Millisecond
	for id := NodeID(1); id <= nodes; id++ {
		if err := net.Register(id, Region(id), func(from NodeID, payload any) {
			var p probe
			switch m := payload.(type) {
			case *probe:
				p = *m
			case probe:
				p = m
			}
			want := sent[p.seq]
			if p.to != 0 && p.to != id || p.from != from || p.from != want.from || p.hops != want.hops {
				t.Fatalf("node %d got %+v from %d, sent %+v", id, p, from, want)
			}
			if released[p.seq] != 0 {
				t.Fatalf("node %d got a copy of message %d after it was released", id, p.seq)
			}
			running[p.seq]++
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
			running[p.seq]--
		}); err != nil {
			t.Fatal(err)
		}
	}
	sched.At(downAt, func() { net.SetNodeDown(crashed, true) })
	sched.At(upAt, func() { net.SetNodeDown(crashed, false) })
	for i := 0; i < 1000; i++ {
		from := NodeID(i%nodes + 1)
		sched.At(time.Duration(i)*time.Millisecond, func() {
			switch i % 10 {
			case 4: // from lossyFrom
				send(from, lossyTo, 0)
			case 7, 9: // from the crashed node and from lossyFrom
				broadcast(from)
			default:
				send(from, from%nodes+1, 7)
			}
		})
	}
	sched.Run()

	total := 0
	for seq, n := range deliveries {
		total += n
		p := sent[seq]
		if released[seq] != 1 {
			t.Fatalf("message %+v released %d times, want once", p, released[seq])
		}
		if p.to == 0 {
			if n > 2*(nodes-1) {
				t.Fatalf("broadcast %+v delivered %d times", p, n)
			}
			continue
		}
		lossy := p.from == lossyFrom && p.to == lossyTo
		if lossy && n != 0 || !lossy && p.from != crashed && p.to != crashed && n != 2 {
			t.Fatalf("message %+v delivered %d times", p, n)
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
	if s.Dropped == 0 || afterCrash == 0 || atOnce == 0 {
		t.Fatalf("the crash dropped %d copies, the node got %d after restart and %d sends dropped every copy; want all > 0",
			s.Dropped, afterCrash, atOnce)
	}
	if inflight := reg.Gauge("wan.inflight"); inflight != 0 {
		t.Fatalf("%v copies still in flight after the run", inflight)
	}
	if peak := reg.Gauge("wan.inflight.peak"); len(net.free) == 0 || float64(len(net.free)) > peak {
		t.Fatalf("free list holds %d records, in-flight peak %v", len(net.free), peak)
	}
	if len(net.flights) == 0 || len(net.flights) > len(net.free) {
		t.Fatalf("%d flight records for %d delivery records", len(net.flights), len(net.free))
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
