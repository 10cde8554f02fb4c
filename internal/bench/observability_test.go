package bench

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"scmove/internal/metrics"
	"scmove/internal/oracle"
)

// chaosFingerprint reduces one chaos run to everything simulated: per-move
// latencies plus the counter table, minus the process counters
// (metrics.ProcessCounter: loop waits are wall time; every other counter is
// driven solely by this run's seeded RNGs). The
// safety oracle checks every committed block of the run.
func chaosFingerprint(t *testing.T, metricsOn, trace bool) string {
	t.Helper()
	cfg := ChaosConfig{DropRate: 0.20, DupRate: 0.20, Seed: 12345, Moves: 2,
		Metrics: metricsOn, Trace: trace}
	var res *ChaosResult
	oracle.During(t, &inspectUniverse, func() {
		var err error
		if res, err = RunChaos(cfg); err != nil {
			t.Fatal(err)
		}
	})
	var sb strings.Builder
	for i, d := range res.Latency {
		fmt.Fprintf(&sb, "move%d=%d\n", i+1, int64(d))
	}
	names := make([]string, 0, len(res.Counters))
	for name := range res.Counters {
		if !metrics.ProcessCounter(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s=%d\n", name, res.Counters[name])
	}
	return sb.String()
}

// TestMetricsDoNotPerturbSimulation is the determinism contract of the
// observability layer: running the chaos scenario with histograms, gauges,
// and span tracing fully enabled must produce byte-identical simulated
// results to running with the layer off — at GOMAXPROCS 1, 2, and the
// host's CPU count alike. Recording only reads state inside callbacks that
// already run, so any divergence means an instrumentation point scheduled
// an event, drew randomness, or mutated simulation state.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS chaos runs are slow in -short mode")
	}
	procs := []int{1, 2, runtime.NumCPU()}
	baseline := ""
	for _, p := range procs {
		prev := runtime.GOMAXPROCS(p)
		off := chaosFingerprint(t, false, false)
		on := chaosFingerprint(t, true, true)
		runtime.GOMAXPROCS(prev)
		if off != on {
			t.Fatalf("GOMAXPROCS=%d: enabling metrics+trace changed simulated results\noff:\n%son:\n%s",
				p, off, on)
		}
		if baseline == "" {
			baseline = off
		} else if off != baseline {
			t.Fatalf("GOMAXPROCS=%d: simulated results diverged from GOMAXPROCS=%d run\nbase:\n%sgot:\n%s",
				p, procs[0], baseline, off)
		}
	}
}

// chaosCellDigest is the sha256 of the chaos cell's fingerprint (metrics
// on, no trace), computed at commit 95d553f.
const chaosCellDigest = "0812c3dba8bd794d1103ca3524445b21f11a77b2ff942858c127b070ad50ea90"

// TestChaosCellCrossGOMAXPROCS is the chaos cell of the determinism suite:
// the full fault-injected Move scenario (20% drops, 20% duplicates on every
// path) must produce identical simulated results on one CPU and on all of
// them — sender pre-recovery and the harness fan out across the worker
// pool; what they compute may not depend on it — and those results must
// hash to chaosCellDigest.
func TestChaosCellCrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS chaos runs are slow in -short mode")
	}
	prev := runtime.GOMAXPROCS(1)
	serial := chaosFingerprint(t, true, false)
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := chaosFingerprint(t, true, false)
	runtime.GOMAXPROCS(prev)
	if serial != parallel {
		t.Fatalf("GOMAXPROCS changed simulated chaos results\none CPU:\n%sall CPUs:\n%s",
			serial, parallel)
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(serial)))
	t.Logf("identity: %s %s", t.Name(), got)
	if got != chaosCellDigest {
		t.Fatalf("fingerprint digest %s, want %s:\n%s", got, chaosCellDigest, serial)
	}
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
