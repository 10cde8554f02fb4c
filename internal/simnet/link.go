package simnet

import (
	"math/rand"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/simclock"
)

// LinkFaults configures probabilistic faults on one message path. All
// probabilities are per message; the zero value is a perfect link.
type LinkFaults struct {
	// DropRate is the probability a message is silently lost.
	DropRate float64
	// DupRate is the probability a message is delivered twice (the second
	// copy takes an independently jittered delay).
	DupRate float64
	// JitterFrac stretches or shrinks the base delay by up to ±JitterFrac.
	JitterFrac float64
	// ReorderFrac is the probability a message is held back by an extra
	// random delay of up to MaxReorderDelay, letting later messages overtake
	// it.
	ReorderFrac float64
	// MaxReorderDelay bounds the reordering hold-back (defaults to the base
	// delay when zero).
	MaxReorderDelay time.Duration
	// CorruptRate is the probability a delivered copy has its bytes tampered
	// in flight (bit flips, truncation, or junk extension). Corruption only
	// applies to byte-level deliveries (DeliverBytes); closure deliveries
	// have no wire representation to corrupt.
	CorruptRate float64
}

// active reports whether any fault is configured.
func (f LinkFaults) active() bool {
	return f.DropRate > 0 || f.DupRate > 0 || f.JitterFrac > 0 || f.ReorderFrac > 0 ||
		f.CorruptRate > 0
}

// LinkStats counts one link's delivery events.
type LinkStats struct {
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	// Corrupted counts delivered copies whose bytes were tampered in flight.
	Corrupted uint64
	// Rejected counts corrupted copies the receiver refused at ingest
	// (decode failure or validation error reported via NoteRejected).
	Rejected uint64
}

// TamperFunc corrupts a message's bytes. It must treat msg as read-only and
// return a fresh slice; rng is a per-corruption derived RNG, so the number
// of draws a tamper makes cannot desynchronize the link's fault stream.
type TamperFunc func(rng *rand.Rand, msg []byte) []byte

// DefaultTamper flips bytes, truncates, or extends the message with junk,
// choosing uniformly between the three. It models the full range of wire
// corruption an adversarial relayer can apply without forging signatures.
func DefaultTamper(rng *rand.Rand, msg []byte) []byte {
	out := append([]byte(nil), msg...)
	if len(out) == 0 {
		return []byte{byte(rng.Intn(256))}
	}
	switch rng.Intn(3) {
	case 0: // flip 1-4 bytes (each XORed with a non-zero mask)
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
		}
	case 1: // truncate to a strict prefix
		out = out[:rng.Intn(len(out))]
	default: // extend with 1-16 junk bytes
		n := 1 + rng.Intn(16)
		for i := 0; i < n; i++ {
			out = append(out, byte(rng.Intn(256)))
		}
	}
	return out
}

// Link is a lossy unidirectional message path outside the validator WAN:
// the client-to-chain submission path and the inter-chain header relays use
// it. Faults are drawn from a seeded RNG so chaos runs are deterministic,
// and the link can be cut outright to model a partitioned relayer.
type Link struct {
	sched  *simclock.Scheduler
	rng    *rand.Rand
	seed   int64
	base   time.Duration
	faults LinkFaults
	cut    bool

	stats  LinkStats
	shared eventCounters
	prefix string

	reg       *metrics.Registry // optional; feeds in-flight gauges
	gInflight string
	gPeak     string
}

// NewLink returns a link with the given base one-way delay and fault
// configuration, drawing fault decisions from the seeded RNG.
func NewLink(sched *simclock.Scheduler, base time.Duration, faults LinkFaults, seed int64) *Link {
	return &Link{
		sched:  sched,
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
		base:   base,
		faults: faults,
	}
}

// Observe mirrors the link's events into the shared counter set under
// prefix (e.g. "submit" yields "submit.dropped").
func (l *Link) Observe(c *metrics.Counters, prefix string) {
	l.shared = resolveEventCounters(c, prefix)
	l.prefix = prefix
}

// eventCounters are the shared counters a network or link mirrors its
// delivery events into, resolved once: the mirror runs for every message.
type eventCounters struct {
	delivered, dropped, duplicated, reordered, corrupted, rejected metrics.Handle
	// byzCorrupted and byzRejected are universe-wide totals over every
	// path, beside the per-prefix counts.
	byzCorrupted, byzRejected metrics.Handle
}

func resolveEventCounters(c *metrics.Counters, prefix string) eventCounters {
	return eventCounters{
		delivered:    c.Handle(prefix + ".delivered"),
		dropped:      c.Handle(prefix + ".dropped"),
		duplicated:   c.Handle(prefix + ".duplicated"),
		reordered:    c.Handle(prefix + ".reordered"),
		corrupted:    c.Handle(prefix + ".corrupted"),
		rejected:     c.Handle(prefix + ".rejected"),
		byzCorrupted: c.Handle("byzantine.corrupted"),
		byzRejected:  c.Handle("byzantine.rejected"),
	}
}

// count records one event in the owner's own tally and the shared counter.
func count(shared metrics.Handle, own *uint64) {
	*own++
	shared.Inc()
}

// SetRegistry attaches an observability registry: the link then tracks its
// in-flight message count ("<prefix>.inflight") and high-water mark
// ("<prefix>.inflight.peak"). Call after Observe so the gauge names pick up
// the link's counter prefix.
func (l *Link) SetRegistry(reg *metrics.Registry) {
	l.reg = reg
	prefix := l.prefix
	if prefix == "" {
		prefix = "link"
	}
	l.gInflight = prefix + ".inflight"
	l.gPeak = prefix + ".inflight.peak"
}

// SetCut severs (true) or heals (false) the link. A cut link drops every
// message.
func (l *Link) SetCut(cut bool) { l.cut = cut }

// Cut reports whether the link is currently severed.
func (l *Link) Cut() bool { return l.cut }

// Corrupts reports whether the link can tamper message bytes; senders use
// it to decide whether a byte-level delivery path is needed at all.
func (l *Link) Corrupts() bool { return l.faults.CorruptRate > 0 }

// Stats returns the link's delivery counters.
func (l *Link) Stats() LinkStats { return l.stats }

// NoteRejected records that the receiver refused a corrupted copy at ingest.
// Callers must only invoke it for deterministic rejections (content derived
// from seeded state); see the byzantine design note in DESIGN.md §12.
func (l *Link) NoteRejected() {
	count(l.shared.rejected, &l.stats.Rejected)
	l.shared.byzRejected.Inc()
}

// tamperRNG returns a fresh RNG for the idx-th corruption event on this
// link. Deriving a per-event RNG (instead of sharing l.rng) keeps the
// link's fault stream independent of how many draws a tamper makes, which
// depends on the message's length — for a transaction, on its ECDSA
// signature lengths (deterministic since RFC 6979 signing, but a property of
// the content, not of the link's seed).
func (l *Link) tamperRNG(idx uint64) *rand.Rand {
	return rand.New(rand.NewSource(l.seed ^ int64(idx)*0x6A09E667F3BCC909 ^ 0x5DEECE66D))
}

// delay draws one delivery delay: base latency, ±jitter, plus an optional
// reordering hold-back.
func (l *Link) delay() time.Duration {
	d := l.base
	if l.faults.JitterFrac > 0 {
		jitter := (l.rng.Float64()*2 - 1) * l.faults.JitterFrac
		d = time.Duration(float64(d) * (1 + jitter))
	}
	if l.faults.ReorderFrac > 0 && l.rng.Float64() < l.faults.ReorderFrac {
		max := l.faults.MaxReorderDelay
		if max <= 0 {
			max = l.base
		}
		if max > 0 {
			d += time.Duration(l.rng.Int63n(int64(max) + 1))
		}
		count(l.shared.reordered, &l.stats.Reordered)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// DeliverBytes schedules delivery of an encoded message across the link,
// applying the same drop/dup/delay faults as Deliver plus byte corruption.
// encode is invoked lazily — only for copies the link actually corrupts —
// so clean deliveries cost no serialization. For clean copies fn receives
// (nil, false) and the receiver should use its captured original message;
// for corrupted copies it receives the tampered bytes and must treat them
// as fully untrusted input.
func (l *Link) DeliverBytes(encode func() []byte, fn func(b []byte, corrupted bool)) {
	if l.cut || (l.faults.DropRate > 0 && l.rng.Float64() < l.faults.DropRate) {
		count(l.shared.dropped, &l.stats.Dropped)
		return
	}
	copies := 1
	if l.faults.DupRate > 0 && l.rng.Float64() < l.faults.DupRate {
		copies = 2
		count(l.shared.duplicated, &l.stats.Duplicated)
	}
	for i := 0; i < copies; i++ {
		var b []byte
		corrupted := false
		if l.faults.CorruptRate > 0 && l.rng.Float64() < l.faults.CorruptRate {
			corrupted = true
			b = DefaultTamper(l.tamperRNG(l.stats.Corrupted), encode())
			count(l.shared.corrupted, &l.stats.Corrupted)
			l.shared.byzCorrupted.Inc()
		}
		count(l.shared.delivered, &l.stats.Delivered)
		deliver := func() { fn(b, corrupted) }
		if l.reg.Enabled() {
			l.reg.AddGauge(l.gInflight, 1)
			l.reg.MaxGauge(l.gPeak, l.reg.Gauge(l.gInflight))
			l.sched.After(l.delay(), func() {
				l.reg.AddGauge(l.gInflight, -1)
				deliver()
			})
			continue
		}
		l.sched.After(l.delay(), deliver)
	}
}

// Deliver schedules fn across the link: it may run never (drop or cut),
// once, or twice (duplication), each copy after an independently drawn
// delay.
func (l *Link) Deliver(fn func()) {
	if l.cut || (l.faults.DropRate > 0 && l.rng.Float64() < l.faults.DropRate) {
		count(l.shared.dropped, &l.stats.Dropped)
		return
	}
	copies := 1
	if l.faults.DupRate > 0 && l.rng.Float64() < l.faults.DupRate {
		copies = 2
		count(l.shared.duplicated, &l.stats.Duplicated)
	}
	for i := 0; i < copies; i++ {
		count(l.shared.delivered, &l.stats.Delivered)
		if l.reg.Enabled() {
			l.reg.AddGauge(l.gInflight, 1)
			l.reg.MaxGauge(l.gPeak, l.reg.Gauge(l.gInflight))
			l.sched.After(l.delay(), func() {
				l.reg.AddGauge(l.gInflight, -1)
				fn()
			})
			continue
		}
		l.sched.After(l.delay(), fn)
	}
}
