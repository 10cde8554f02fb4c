package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"scmove/internal/journal"
	"scmove/internal/oracle"
	"scmove/internal/universe"
)

// chaosJournal runs the chaos cell once, with the safety oracle checking
// every committed block, and returns its result and journal: the blocks,
// the Move latencies and the counters.
func chaosJournal(t *testing.T, metricsOn, trace bool) (*ChaosResult, *journal.Journal) {
	t.Helper()
	cfg := ChaosConfig{DropRate: 0.20, DupRate: 0.20, Seed: 12345, Moves: 2,
		Metrics: metricsOn, Trace: trace}
	var res *ChaosResult
	j := oracle.During(t, &inspectUniverse, func() {
		var err error
		if res, err = RunChaos(cfg); err != nil {
			t.Fatal(err)
		}
	})
	j.Tail("latencies", res.Latency)
	j.Counters(res.Counters)
	return res, j
}

// checkLedger marks the test failed unless a cell's event loop ran the
// pinned number of events and WAN deliveries; the first call of a test logs
// both as identity lines. It does not stop the test, so a moved ledger
// still lets the cell log and check its journal.
func checkLedger(t *testing.T, logged *bool, got, want universe.Ledger) {
	t.Helper()
	if !*logged {
		t.Logf("identity: %s events %d", t.Name(), got.Events)
		t.Logf("identity: %s deliveries %d", t.Name(), got.Deliveries)
		*logged = true
	}
	if got != want {
		t.Errorf("the event loop ran %d events and %d WAN deliveries, pinned %d and %d",
			got.Events, got.Deliveries, want.Events, want.Deliveries)
	}
}

// TestMetricsDoNotPerturbSimulation is the determinism contract of the
// observability layer: running the chaos scenario with histograms, gauges,
// and span tracing fully enabled must produce the journal of running with
// the layer off — at GOMAXPROCS 1, 2, and the host's CPU count alike.
// Recording only reads state inside callbacks that already run, so any
// divergence means an instrumentation point scheduled an event, drew
// randomness, or mutated simulation state.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS chaos runs are slow in -short mode")
	}
	var base *journal.Journal
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(p)
		_, off := chaosJournal(t, false, false)
		_, on := chaosJournal(t, true, true)
		runtime.GOMAXPROCS(prev)
		journal.Same(t, fmt.Sprintf("GOMAXPROCS=%d, metrics and trace off and on", p), off, on)
		base = journal.Same(t, fmt.Sprintf("GOMAXPROCS=1 and %d", p), base, off)
	}
}

// chaosCellJournal is the digest of the chaos cell's journal (metrics on,
// no trace), and chaosCellLedger its event loop's count of events and WAN
// deliveries.
const chaosCellJournal = "d61e66c9f6eec7a7f70d76f4911598f60e2bc629bbc3b057b9953c75240a0891"

var chaosCellLedger = universe.Ledger{Events: 12765, Deliveries: 10919}

// TestChaosCellCrossGOMAXPROCS is the chaos cell of the determinism suite:
// the full fault-injected Move scenario (20% drops, 20% duplicates on every
// path) must produce the same journal on one CPU and on all of them (sender
// pre-recovery and the harness fan out across the worker pool; what they
// compute may not depend on it), and it must hash to chaosCellJournal and
// run chaosCellLedger's events and deliveries.
func TestChaosCellCrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS chaos runs are slow in -short mode")
	}
	var logged bool
	prev := runtime.GOMAXPROCS(1)
	res, serial := chaosJournal(t, true, false)
	checkLedger(t, &logged, res.Ledger, chaosCellLedger)
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, parallel := chaosJournal(t, true, false)
	checkLedger(t, &logged, res.Ledger, chaosCellLedger)
	runtime.GOMAXPROCS(prev)
	journal.Same(t, "GOMAXPROCS=1 and NumCPU", serial, parallel)
	serial.Check(t, chaosCellJournal)
}

// TestChaosStageHistogramsPopulated pins the end-to-end wiring: a chaos run
// with metrics on reports every Move-protocol stage in its histograms with
// one sample per completed move, and the rendered result carries the
// stage-latency table next to the counters.
func TestChaosStageHistogramsPopulated(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Moves = 2
	cfg.Metrics = true
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Registry
	if reg == nil {
		t.Fatal("metrics run must carry a registry")
	}
	for _, stage := range []string{"move1.commit", "p.wait", "move2.commit", "move.total"} {
		h := reg.Histogram(stage)
		if h == nil {
			t.Fatalf("stage %q has no histogram", stage)
		}
		if h.Count() != uint64(cfg.Moves) {
			t.Fatalf("stage %q: %d samples, want %d", stage, h.Count(), cfg.Moves)
		}
		if h.Max() <= 0 || h.Max() > 2*time.Hour {
			t.Fatalf("stage %q: implausible max %s", stage, h.Max())
		}
	}
	// move.total must be the sum of its parts per move; with 2 moves the
	// aggregate check is max(total) >= max(move1)+max(p.wait) is too strong
	// across different moves, so check the weaker sum-of-sums identity.
	total := reg.Histogram("move.total").Sum()
	parts := reg.Histogram("move1.commit").Sum() +
		reg.Histogram("p.wait").Sum() + reg.Histogram("move2.commit").Sum()
	if total != parts {
		t.Fatalf("stage sums don't add up: move.total=%s, move1+p.wait+move2=%s", total, parts)
	}
	out := res.String()
	for _, want := range []string{"Stage latency (simulated time)", "p.wait", "move1.commit", "Gauges"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered chaos result missing %q:\n%s", want, out)
		}
	}
	// No tracing requested: spans must not accumulate.
	if len(reg.Spans()) != 0 {
		t.Fatalf("metrics-only run retained %d spans", len(reg.Spans()))
	}
}
