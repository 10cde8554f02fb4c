// Package simnet simulates the wide-area network of the paper's deployment:
// nodes placed in 14 cloud regions on four continents, with inter-region
// latencies modeled on the measurements the paper borrows from the Red
// Belly evaluation [27], plus deterministic jitter, message drops, and
// partitions for fault-injection tests.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/simclock"
)

// NodeID identifies a network endpoint.
type NodeID uint64

// Handler receives a delivered message. A handler must not keep a payload
// that is a Releaser past its return.
type Handler func(from NodeID, payload any)

// Releaser is a payload that its sender wants back, to send again: a pooled
// record. A Network calls Release once, when the handler of the payload's
// last copy has returned, or before Send or Broadcast returns when no copy
// travels (a drop, a cut link, a down or unknown node); a TCP transport
// calls it once it has encoded the payload. A Releaser goes to exactly one
// Send or Broadcast.
type Releaser interface{ Release() }

// Region is an index into the latency matrix.
type Region int

// RegionCount is the number of modeled regions.
const RegionCount = 14

// regionNames document the modeled placement (paper §VI: 14 regions on four
// continents).
var regionNames = [RegionCount]string{
	"us-east", "us-west", "canada", "sao-paulo",
	"ireland", "london", "frankfurt", "paris",
	"mumbai", "singapore", "tokyo", "seoul",
	"sydney", "osaka",
}

// Name returns the region's label.
func (r Region) Name() string {
	if r < 0 || r >= RegionCount {
		return "unknown"
	}
	return regionNames[r]
}

// oneWayMillis is the modeled one-way latency matrix in milliseconds,
// derived from public inter-region RTT measurements (values are RTT/2,
// rounded). Intra-region latency is 1 ms (LAN with emulated WAN delays).
var oneWayMillis = [RegionCount][RegionCount]int{
	{1, 31, 8, 57, 34, 37, 44, 39, 91, 106, 73, 89, 98, 75},
	{31, 1, 29, 86, 64, 68, 73, 69, 111, 85, 54, 67, 70, 56},
	{8, 29, 1, 63, 36, 41, 46, 42, 96, 108, 76, 92, 105, 78},
	{57, 86, 63, 1, 88, 93, 98, 94, 151, 163, 129, 145, 155, 131},
	{34, 64, 36, 88, 1, 6, 12, 9, 61, 87, 105, 120, 128, 107},
	{37, 68, 41, 93, 6, 1, 8, 5, 56, 83, 111, 125, 131, 113},
	{44, 73, 46, 98, 12, 8, 1, 4, 55, 81, 117, 131, 138, 119},
	{39, 69, 42, 94, 9, 5, 4, 1, 52, 80, 113, 127, 140, 115},
	{91, 111, 96, 151, 61, 56, 55, 52, 1, 32, 60, 77, 111, 62},
	{106, 85, 108, 163, 87, 83, 81, 80, 32, 1, 34, 49, 46, 36},
	{73, 54, 76, 129, 105, 111, 117, 113, 60, 34, 1, 17, 52, 5},
	{89, 67, 92, 145, 120, 125, 131, 127, 77, 49, 17, 1, 67, 15},
	{98, 70, 105, 155, 128, 131, 138, 140, 111, 46, 52, 67, 1, 54},
	{75, 56, 78, 131, 107, 113, 119, 115, 62, 36, 5, 15, 54, 1},
}

// Latency returns the modeled one-way delay between two regions.
func Latency(a, b Region) time.Duration {
	return time.Duration(oneWayMillis[a][b]) * time.Millisecond
}

// Config tunes network behavior.
type Config struct {
	// Faults applies to every message unless SetLinkFaults overrides its
	// link. Copies drawn as corrupted go through Tamper.
	Faults LinkFaults
	// Tamper corrupts an in-memory WAN payload (WAN messages are typed
	// values, not bytes, so corruption is protocol-aware). It receives a
	// per-corruption derived RNG and must not mutate the original payload.
	// It returns the corrupted payload and true, or (payload, false) for
	// message kinds it does not corrupt; a nil Tamper corrupts nothing.
	Tamper PayloadTamper
	// Seed makes delivery timing reproducible.
	Seed int64
}

// PayloadTamper corrupts an in-memory WAN message. See Config.Tamper.
type PayloadTamper func(rng *rand.Rand, payload any) (any, bool)

// Network delivers messages between registered nodes over the simulated
// clock. It is single-threaded, like everything on the scheduler.
type Network struct {
	sched *simclock.Scheduler
	cfg   Config
	rng   *rand.Rand

	nodes map[NodeID]*nodeInfo
	// down, cut and linkFaults hold only what is in effect — reviving a
	// node or healing a link deletes its entry — so Send skips each lookup
	// while its map is empty, as it is outside chaos, byzantine and
	// partition runs.
	down       map[NodeID]bool
	cut        map[[2]NodeID]bool
	linkFaults map[[2]NodeID]LinkFaults

	// free holds the delivery records not in flight. A record returns to it
	// as its delivery starts, so it never holds more than the in-flight
	// high-water mark. flights does the same for the sends those copies
	// belong to.
	free    []*delivery
	flights []*flight

	stats  LinkStats
	shared eventCounters
	reg    *metrics.Registry // optional; feeds in-flight gauges
}

// The in-flight gauge names.
const (
	gInflight = "wan.inflight"
	gPeak     = "wan.inflight.peak"
)

type nodeInfo struct {
	region  Region
	handler Handler
}

// delivery is one WAN message copy in flight. Its run func, bound when the
// record is first allocated, is what the scheduler calls, so a delivery
// costs no closure: the benchmark's seed-1 move_store runs ≈ 2 930
// scheduler events per Move, 86 % of them deliveries.
type delivery struct {
	net      *Network
	from, to NodeID
	dst      *nodeInfo
	msg      any
	flight   *flight
	run      func()
}

// flight is one Send or Broadcast: its payload, if that is a Releaser, and
// how many of its copies are still in flight, plus one while the send is
// being made.
type flight struct {
	rel  Releaser
	left int
}

// newDelivery takes a record off the free list, or allocates one when every
// record is in flight.
func (n *Network) newDelivery(from, to NodeID, dst *nodeInfo, msg any, f *flight) *delivery {
	var d *delivery
	if k := len(n.free); k > 0 {
		d = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		d = &delivery{net: n}
		d.run = d.deliver
	}
	d.from, d.to, d.dst, d.msg, d.flight = from, to, dst, msg, f
	return d
}

// deliver hands the message to its receiver. The record goes back on the
// free list before the handler runs, because handlers send; the copy lands
// after the handler returns.
func (d *delivery) deliver() {
	n, from, to, dst, msg, f := d.net, d.from, d.to, d.dst, d.msg, d.flight
	d.dst, d.msg, d.flight = nil, nil, nil
	n.free = append(n.free, d)
	if n.reg.Enabled() {
		n.reg.AddGauge(gInflight, -1)
	}
	// Down-state and handler are read at delivery time, so a crash or a
	// re-registration while the message is in flight takes effect (Register
	// updates a known node's record in place).
	if len(n.down) > 0 && n.down[to] {
		count(n.shared.dropped, &n.stats.Dropped)
	} else {
		count(n.shared.delivered, &n.stats.Delivered)
		dst.handler(from, msg)
	}
	n.land(f)
}

// newFlight takes a flight record for payload off its free list.
func (n *Network) newFlight(payload any) *flight {
	var f *flight
	if k := len(n.flights); k > 0 {
		f = n.flights[k-1]
		n.flights = n.flights[:k-1]
	} else {
		f = new(flight)
	}
	f.rel, _ = payload.(Releaser)
	f.left = 1
	return f
}

// land ends one copy of f, or its sending; the last to end hands the
// payload back.
func (n *Network) land(f *flight) {
	if f.left--; f.left > 0 {
		return
	}
	rel := f.rel
	f.rel = nil
	n.flights = append(n.flights, f)
	if rel != nil {
		rel.Release()
	}
}

// New returns an empty network on the given scheduler.
func New(sched *simclock.Scheduler, cfg Config) *Network {
	return &Network{
		sched:      sched,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		nodes:      make(map[NodeID]*nodeInfo),
		down:       make(map[NodeID]bool),
		cut:        make(map[[2]NodeID]bool),
		linkFaults: make(map[[2]NodeID]LinkFaults),
	}
}

// Observe mirrors the network's fault events into the shared counter set
// under the "wan." prefix.
func (n *Network) Observe(c *metrics.Counters) { n.shared = resolveEventCounters(c, "wan") }

// SetRegistry attaches an observability registry: the network then tracks
// the number of WAN messages in flight ("wan.inflight") and its high-water
// mark ("wan.inflight.peak"). Updates happen inside send/delivery paths that
// already run, so enabling them cannot perturb simulated results.
func (n *Network) SetRegistry(reg *metrics.Registry) { n.reg = reg }

// Register adds a node in the given region. Registering an existing id
// replaces its handler (used to restart crashed nodes).
func (n *Network) Register(id NodeID, region Region, h Handler) error {
	if region < 0 || region >= RegionCount {
		return fmt.Errorf("simnet: invalid region %d", region)
	}
	if h == nil {
		return fmt.Errorf("simnet: nil handler for node %d", id)
	}
	if info, ok := n.nodes[id]; ok {
		info.region, info.handler = region, h
		return nil
	}
	n.nodes[id] = &nodeInfo{region: region, handler: h}
	return nil
}

// Send schedules delivery of payload from one node to another, applying the
// latency matrix, jitter, drops, partitions, and node crashes. Messages to
// unknown nodes are dropped. Sending to self delivers after the intra-
// region latency (loopback through the local stack).
func (n *Network) Send(from, to NodeID, payload any) {
	f := n.newFlight(payload)
	n.send(f, from, to, payload)
	n.land(f)
}

// Broadcast is Send to each peer in to, in the given order: the fault,
// jitter and corruption draws are exactly those of the Send loop it
// stands for. Its copies are one flight, so a Releaser payload comes back
// once, after the last of them.
func (n *Network) Broadcast(from NodeID, to []NodeID, payload any) {
	f := n.newFlight(payload)
	for _, id := range to {
		n.send(f, from, id, payload)
	}
	n.land(f)
}

// send schedules the copies of one message from one node to another, as
// part of flight f.
func (n *Network) send(f *flight, from, to NodeID, payload any) {
	src, okFrom := n.nodes[from]
	dst, okTo := n.nodes[to]
	if !okFrom || !okTo || len(n.down) > 0 && n.down[from] || len(n.cut) > 0 && n.cut[linkKey(from, to)] {
		count(n.shared.dropped, &n.stats.Dropped)
		return
	}
	faults := n.cfg.Faults
	if len(n.linkFaults) > 0 {
		if override, ok := n.linkFaults[linkKey(from, to)]; ok {
			faults = override
		}
	}
	copies := faults.copies(n.rng)
	switch copies {
	case 0:
		count(n.shared.dropped, &n.stats.Dropped)
		return
	case 2:
		count(n.shared.duplicated, &n.stats.Duplicated)
	}
	base := Latency(src.region, dst.region)
	for i := 0; i < copies; i++ {
		msg := payload
		if faults.corrupts(n.rng) && n.cfg.Tamper != nil {
			// A derived per-corruption RNG keeps the network's fault stream
			// independent of how many draws the tamper makes (which may
			// depend on non-deterministic payload content).
			trng := rand.New(rand.NewSource(n.cfg.Seed ^ int64(n.stats.Corrupted)*0x6A09E667F3BCC909 ^ 0x2545F4914F6CDD1D))
			if tampered, ok := n.cfg.Tamper(trng, payload); ok {
				msg = tampered
				count(n.shared.corrupted, &n.stats.Corrupted)
				n.shared.byzCorrupted.Inc()
			}
		}
		delay, reordered := faults.delay(n.rng, base)
		if reordered {
			count(n.shared.reordered, &n.stats.Reordered)
		}
		if n.reg.Enabled() {
			n.reg.AddGauge(gInflight, 1)
			n.reg.MaxGauge(gPeak, n.reg.Gauge(gInflight))
		}
		f.left++
		n.sched.After(delay, n.newDelivery(from, to, dst, msg, f).run)
	}
}

// SetNodeDown crashes or revives a node; a down node neither sends nor
// receives.
func (n *Network) SetNodeDown(id NodeID, down bool) {
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// SetLinkCut severs or restores the (bidirectional) link between two nodes.
func (n *Network) SetLinkCut(a, b NodeID, cut bool) {
	if cut {
		n.cut[linkKey(a, b)] = true
		n.cut[linkKey(b, a)] = true
	} else {
		delete(n.cut, linkKey(a, b))
		delete(n.cut, linkKey(b, a))
	}
}

// SetLinkFaults overrides the fault configuration of the (bidirectional)
// link between two nodes, replacing the global Config faults for it.
func (n *Network) SetLinkFaults(a, b NodeID, f LinkFaults) {
	n.linkFaults[linkKey(a, b)] = f
	n.linkFaults[linkKey(b, a)] = f
}

// SchedulePartition cuts every link between the given group and the rest of
// the network at simulated time `at` and heals it at `healAt`. Nodes are
// resolved at fire time, so nodes registered after the call still partition.
func (n *Network) SchedulePartition(at, healAt time.Duration, group ...NodeID) {
	inGroup := make(map[NodeID]bool, len(group))
	for _, id := range group {
		inGroup[id] = true
	}
	setCut := func(cut bool) {
		for id := range n.nodes {
			if inGroup[id] {
				continue
			}
			for _, g := range group {
				n.SetLinkCut(g, id, cut)
			}
		}
	}
	n.sched.At(at, func() { setCut(true) })
	if healAt > at {
		n.sched.At(healAt, func() { setCut(false) })
	}
}

// Stats returns delivered and dropped message counts.
func (n *Network) Stats() (delivered, dropped uint64) {
	return n.stats.Delivered, n.stats.Dropped
}

// FaultStats returns the full delivery event counts, including duplicates
// and reordered messages.
func (n *Network) FaultStats() LinkStats { return n.stats }

func linkKey(a, b NodeID) [2]NodeID { return [2]NodeID{a, b} }
