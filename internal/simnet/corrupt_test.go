package simnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/simclock"
)

func TestDefaultTamperAlwaysChangesMessage(t *testing.T) {
	msg := []byte("length-prefixed wire message with some entropy 0123456789")
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out := DefaultTamper(rng, msg)
		if bytes.Equal(out, msg) {
			t.Fatalf("seed %d: tamper returned the original message", seed)
		}
		if &out[:1][0] == &msg[:1][0] {
			t.Fatalf("seed %d: tamper aliased the input slice", seed)
		}
	}
	// The empty message still corrupts to something (there are no bytes to
	// flip or truncate, so it must extend).
	if out := DefaultTamper(rand.New(rand.NewSource(1)), nil); len(out) == 0 {
		t.Fatal("tampering an empty message produced an empty message")
	}
}

// TestDefaultTamperPreservesInput: the tamper copies before it changes a
// byte, and returns no view of the input's array. Consensus rests on it: an
// honest proposal is one slice that the proposing app later compares decided
// payloads against, and that validators' hash memo knows by identity.
func TestDefaultTamperPreservesInput(t *testing.T) {
	msg := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]byte(nil), msg...)
	for seed := int64(0); seed < 50; seed++ {
		out := DefaultTamper(rand.New(rand.NewSource(seed)), msg)
		if !bytes.Equal(msg, orig) {
			t.Fatalf("seed %d: tamper mutated the input", seed)
		}
		if len(out) > 0 && &out[0] == &msg[0] {
			t.Fatalf("seed %d: tamper returned the input's array", seed)
		}
	}
}

// corruptionRun drives n byte-deliveries through a corrupting link and
// returns a full transcript: every delivered copy's bytes and corruption
// flag, the final stats, and the mirrored counter fingerprint.
func corruptionRun(t *testing.T, seed int64, n int) (string, LinkStats) {
	t.Helper()
	sched := simclock.New()
	link := NewLink(sched, 10*time.Millisecond,
		LinkFaults{DropRate: 0.1, DupRate: 0.1, CorruptRate: 0.3, JitterFrac: 0.1}, seed)
	counters := metrics.NewCounters()
	link.Observe(counters, "test")
	var transcript bytes.Buffer
	encodes := 0
	for i := 0; i < n; i++ {
		i := i
		msg := []byte(fmt.Sprintf("message-%03d", i))
		link.Deliver(
			// Clean copies carry no bytes; the receiver uses its captured
			// original.
			func() { fmt.Fprintf(&transcript, "%d clean %q\n", i, msg) },
			func() []byte { encodes++; return msg },
			func(b []byte) {
				fmt.Fprintf(&transcript, "%d corrupt %q\n", i, b)
				link.NoteRejected()
			})
	}
	sched.Run()
	stats := link.Stats()
	if uint64(encodes) != stats.Corrupted {
		t.Fatalf("encode ran %d times for %d corruptions — clean copies must not serialize",
			encodes, stats.Corrupted)
	}
	fmt.Fprintf(&transcript, "stats=%+v\n", stats)
	for _, name := range []string{"test.delivered", "test.dropped", "test.duplicated",
		"test.corrupted", "test.rejected", "byzantine.corrupted", "byzantine.rejected"} {
		fmt.Fprintf(&transcript, "%s=%d\n", name, counters.Get(name))
	}
	return transcript.String(), stats
}

// TestLinkCorruptionDeterministicPerSeed is the determinism contract of the
// corruption fault: the same seed reproduces the exact delivery transcript —
// which copies are corrupted, the tampered bytes themselves, the stats, and
// the counter table — while a different seed produces a different stream.
func TestLinkCorruptionDeterministicPerSeed(t *testing.T) {
	a1, stats := corruptionRun(t, 42, 400)
	a2, _ := corruptionRun(t, 42, 400)
	if a1 != a2 {
		t.Fatal("same seed must reproduce the identical corruption transcript")
	}
	if b, _ := corruptionRun(t, 43, 400); b == a1 {
		t.Fatal("different seeds must produce different corruption streams")
	}
	if stats.Corrupted == 0 {
		t.Fatal("no copy was ever corrupted at CorruptRate=0.3")
	}
	if stats.Rejected != stats.Corrupted {
		t.Fatalf("every corrupted copy was rejected by the receiver: rejected=%d corrupted=%d",
			stats.Rejected, stats.Corrupted)
	}
	if stats.Delivered <= stats.Corrupted {
		t.Fatalf("clean copies must still flow: delivered=%d corrupted=%d",
			stats.Delivered, stats.Corrupted)
	}
}

// TestLinkCorruptionAcrossGOMAXPROCS pins byte-identical Link.Stats and
// counter fingerprints across GOMAXPROCS 1, 2, and NumCPU: the fault stream
// is a pure function of the seed, never of host scheduling.
func TestLinkCorruptionAcrossGOMAXPROCS(t *testing.T) {
	baseline := ""
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(p)
		transcript, _ := corruptionRun(t, 7, 300)
		runtime.GOMAXPROCS(prev)
		if baseline == "" {
			baseline = transcript
		} else if transcript != baseline {
			t.Fatalf("GOMAXPROCS=%d: corruption transcript diverged", p)
		}
	}
}

// TestLinkZeroCorruptRateNeverCorrupts pins that a link without
// CorruptRate never calls encode or forged.
func TestLinkZeroCorruptRateNeverCorrupts(t *testing.T) {
	sched := simclock.New()
	link := NewLink(sched, time.Millisecond, LinkFaults{DropRate: 0.2, DupRate: 0.2}, 9)
	encodes := 0
	for i := 0; i < 100; i++ {
		link.Deliver(
			func() {},
			func() []byte { encodes++; return []byte("x") },
			func([]byte) { t.Fatal("clean link delivered a corrupted copy") })
	}
	sched.Run()
	if encodes != 0 {
		t.Fatalf("encode ran %d times on a non-corrupting link", encodes)
	}
	if s := link.Stats(); s.Corrupted != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestNetworkCorruptionTampersTypedPayloads covers the WAN variant: typed
// payloads pass through the configured PayloadTamper at CorruptRate, the
// tampered value reaches the handler, and the fault is counted.
func TestNetworkCorruptionTampersTypedPayloads(t *testing.T) {
	sched := simclock.New()
	net := New(sched, Config{
		Seed:   11,
		Faults: LinkFaults{CorruptRate: 0.5},
		Tamper: func(rng *rand.Rand, payload any) (any, bool) {
			return payload.(int) + 1000 + rng.Intn(10), true
		},
	})
	var got []int
	for _, id := range []NodeID{1, 2} {
		if err := net.Register(id, 0, func(_ NodeID, payload any) {
			got = append(got, payload.(int))
		}); err != nil {
			t.Fatal(err)
		}
	}
	counters := metrics.NewCounters()
	net.Observe(counters)
	for i := 0; i < 100; i++ {
		net.Send(1, 2, i)
	}
	sched.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d, want 100", len(got))
	}
	tampered := 0
	for _, v := range got {
		if v >= 1000 {
			tampered++
		}
	}
	stats := net.FaultStats()
	if uint64(tampered) != stats.Corrupted {
		t.Fatalf("handler saw %d tampered payloads, stats say %d", tampered, stats.Corrupted)
	}
	if stats.Corrupted == 0 || stats.Corrupted == 100 {
		t.Fatalf("corrupted = %d, want a strict subset at rate 0.5", stats.Corrupted)
	}
	if counters.Get("byzantine.corrupted") != stats.Corrupted {
		t.Fatalf("counter mirror = %d, stats = %d",
			counters.Get("byzantine.corrupted"), stats.Corrupted)
	}
}

// TestNetworkTamperDeclineLeavesPayload pins the PayloadTamper contract: a
// tamper that declines (ok=false) leaves the payload untouched and
// uncounted.
func TestNetworkTamperDeclineLeavesPayload(t *testing.T) {
	sched := simclock.New()
	net := New(sched, Config{
		Seed:   13,
		Faults: LinkFaults{CorruptRate: 1.0},
		Tamper: func(rng *rand.Rand, payload any) (any, bool) { return payload, false },
	})
	var got []any
	for _, id := range []NodeID{1, 2} {
		if err := net.Register(id, 0, func(_ NodeID, payload any) {
			got = append(got, payload)
		}); err != nil {
			t.Fatal(err)
		}
	}
	net.Send(1, 2, "untouchable")
	sched.Run()
	if len(got) != 1 || got[0] != "untouchable" {
		t.Fatalf("got = %v", got)
	}
	if s := net.FaultStats(); s.Corrupted != 0 {
		t.Fatalf("declined tampers must not count: %+v", s)
	}
}
