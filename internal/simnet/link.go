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
	// CorruptRate is the probability a delivered copy is tampered in
	// flight. A Link hands the copy's encoded bytes through DefaultTamper to
	// Deliver's forged handler; a Network passes its typed payload to
	// Config.Tamper.
	CorruptRate float64
}

// copies draws whether a message is dropped, then whether it is
// duplicated, and returns how many copies travel: 0, 1 or 2.
func (f *LinkFaults) copies(rng *rand.Rand) int {
	if f.DropRate > 0 && rng.Float64() < f.DropRate {
		return 0
	}
	if f.DupRate > 0 && rng.Float64() < f.DupRate {
		return 2
	}
	return 1
}

// corrupts draws whether one copy is tampered in flight.
func (f *LinkFaults) corrupts(rng *rand.Rand) bool {
	return f.CorruptRate > 0 && rng.Float64() < f.CorruptRate
}

// delay draws one copy's delivery delay: base ±jitter, then whether it is
// held back for reordering and by how much. It reports the hold-back.
func (f *LinkFaults) delay(rng *rand.Rand, base time.Duration) (time.Duration, bool) {
	d := base
	if f.JitterFrac > 0 {
		jitter := (rng.Float64()*2 - 1) * f.JitterFrac
		d = time.Duration(float64(d) * (1 + jitter))
	}
	reordered := f.ReorderFrac > 0 && rng.Float64() < f.ReorderFrac
	if reordered {
		hold := f.MaxReorderDelay
		if hold <= 0 {
			hold = base
		}
		if hold > 0 {
			d += time.Duration(rng.Int63n(int64(hold) + 1))
		}
	}
	return max(d, 0), reordered
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

// Deliver schedules fn across the link: it may run never (drop or cut),
// once, or twice (duplication), each copy after an independently drawn
// delay. A copy the link corrupts runs forged instead, on DefaultTamper of
// encode's bytes; the receiver must treat those as untrusted input. encode
// runs only for corrupted copies, so a link without CorruptRate never
// calls encode or forged, and both may be nil there.
func (l *Link) Deliver(fn func(), encode func() []byte, forged func([]byte)) {
	copies := 0
	if !l.cut {
		copies = l.faults.copies(l.rng)
	}
	switch copies {
	case 0:
		count(l.shared.dropped, &l.stats.Dropped)
		return
	case 2:
		count(l.shared.duplicated, &l.stats.Duplicated)
	}
	for i := 0; i < copies; i++ {
		run := fn
		if l.faults.corrupts(l.rng) {
			b := DefaultTamper(l.tamperRNG(l.stats.Corrupted), encode())
			count(l.shared.corrupted, &l.stats.Corrupted)
			l.shared.byzCorrupted.Inc()
			run = func() { forged(b) }
		}
		count(l.shared.delivered, &l.stats.Delivered)
		d, reordered := l.faults.delay(l.rng, l.base)
		if reordered {
			count(l.shared.reordered, &l.stats.Reordered)
		}
		if l.reg.Enabled() {
			l.reg.AddGauge(l.gInflight, 1)
			l.reg.MaxGauge(l.gPeak, l.reg.Gauge(l.gInflight))
			deliver := run
			run = func() {
				l.reg.AddGauge(l.gInflight, -1)
				deliver()
			}
		}
		l.sched.After(d, run)
	}
}
