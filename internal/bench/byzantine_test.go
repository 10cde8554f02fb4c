package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"scmove/internal/journal"
	"scmove/internal/oracle"
	"scmove/internal/universe"
)

// byzantineJournal runs the Byzantine cell once, with the safety oracle
// checking every committed block, and returns its result and journal: the
// blocks, the Move latencies, the final state roots and the counters.
func byzantineJournal(t *testing.T, metricsOn bool) (*ByzantineResult, *journal.Journal) {
	t.Helper()
	cfg := DefaultByzantineConfig()
	cfg.Moves = 2
	cfg.Metrics = metricsOn
	var res *ByzantineResult
	j := oracle.During(t, &inspectUniverse, func() {
		var err error
		if res, err = RunByzantine(cfg); err != nil {
			t.Fatal(err)
		}
	})
	j.Tail("latencies", res.Latency)
	j.Tail("roots", res.Roots)
	j.Counters(res.Counters)
	return res, j
}

// TestByzantineCellInvariants exercises the full adversarial scenario once:
// corruption on every path, an equivocating validator, replayed and forged
// Move2s, and a forged confirmed header. RunByzantine itself enforces the
// safety invariants (all rejections, evidence recorded, consensus alive);
// the test pins the shape of the result on top.
func TestByzantineCellInvariants(t *testing.T) {
	res, _ := byzantineJournal(t, false)
	if got := len(res.Latency); got != 2 {
		t.Fatalf("completed moves = %d, want 2", got)
	}
	for i, d := range res.Latency {
		if d <= 0 {
			t.Fatalf("move %d: non-positive latency %s", i+1, d)
		}
	}
	if res.HostileRejected != 4 {
		t.Fatalf("hostile rejections = %d, want 4 (replay+forgery per move)", res.HostileRejected)
	}
	if len(res.Roots) != 2 {
		t.Fatalf("state roots = %d chains, want 2", len(res.Roots))
	}
	for _, name := range []string{"byzantine.corrupted", "byzantine.equivocation.vote", "byzantine.header.conflict"} {
		if _, ok := res.Counters[name]; !ok {
			t.Fatalf("counters miss %s: %v", name, res.Counters)
		}
	}
	out := res.String()
	for _, want := range []string{"Byzantine chaos", "Hostile Move2 submissions rejected: 4", "Final state roots"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered result missing %q:\n%s", want, out)
		}
	}
}

// byzantineCellJournal is the digest of the two-Move Byzantine cell's
// journal, and byzantineCellLedger its event loop's count of events and WAN
// deliveries.
const byzantineCellJournal = "294a96daf7b07342da6f371e8a799a251e14061ea36f799bdbde2b578f166725"

var byzantineCellLedger = universe.Ledger{Events: 9446, Deliveries: 8227}

// TestByzantineDeterminism is the determinism contract under active
// corruption: the same seed must produce the same journal at GOMAXPROCS 1,
// 2, and the host's CPU count, with the observability layer on or off — and
// that journal must hash to byzantineCellJournal, with byzantineCellLedger's
// events and deliveries. Corruption decisions and
// tamper bytes all come from seeded RNGs keyed by event index, so any
// divergence means a fault drew from a nondeterministic source. Wired into
// `make detsmoke`.
func TestByzantineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS byzantine runs are slow in -short mode")
	}
	var (
		base   *journal.Journal
		logged bool
	)
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(p)
		resOff, off := byzantineJournal(t, false)
		resOn, on := byzantineJournal(t, true)
		runtime.GOMAXPROCS(prev)
		checkLedger(t, &logged, resOff.Ledger, byzantineCellLedger)
		checkLedger(t, &logged, resOn.Ledger, byzantineCellLedger)
		journal.Same(t, fmt.Sprintf("GOMAXPROCS=%d, metrics off and on", p), off, on)
		base = journal.Same(t, fmt.Sprintf("GOMAXPROCS=1 and %d", p), base, off)
	}
	base.Check(t, byzantineCellJournal)
}
