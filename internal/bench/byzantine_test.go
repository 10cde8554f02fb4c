package bench

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// byzantineFingerprint runs the Byzantine cell once and reduces it to its
// simulated-results fingerprint.
func byzantineFingerprint(t *testing.T, metricsOn bool) (*ByzantineResult, string) {
	t.Helper()
	cfg := DefaultByzantineConfig()
	cfg.Moves = 2
	cfg.Metrics = metricsOn
	res, err := RunByzantine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Fingerprint()
}

// TestByzantineCellInvariants exercises the full adversarial scenario once:
// corruption on every path, an equivocating validator, replayed and forged
// Move2s, and a forged confirmed header. RunByzantine itself enforces the
// safety invariants (all rejections, evidence recorded, consensus alive);
// the test pins the shape of the result on top.
func TestByzantineCellInvariants(t *testing.T) {
	res, fp := byzantineFingerprint(t, false)
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
		if !strings.Contains(fp, name+"=") {
			t.Fatalf("fingerprint missing %s:\n%s", name, fp)
		}
	}
	out := res.String()
	for _, want := range []string{"Byzantine chaos", "Hostile Move2 submissions rejected: 4", "Final state roots"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered result missing %q:\n%s", want, out)
		}
	}
}

// byzantineCellDigest is the sha256 of the two-Move Byzantine cell's
// fingerprint, computed at commit 95d553f. The cell drives every fault path
// of the consensus WAN at once: drops, duplicates, tampered proposals and
// votes, and an equivocating validator's evidence.
const byzantineCellDigest = "02ea980fcb51ad45234c887da17c4b1b4aaf4304da81efc41adf914c78866f48"

// TestByzantineDeterminism is the determinism contract under active
// corruption: the same seed must produce byte-identical latencies, final
// state roots, and fault counters at GOMAXPROCS 1, 2, and the host's CPU
// count, with the observability layer on or off — and that fingerprint must
// hash to byzantineCellDigest. Corruption decisions and tamper bytes all
// come from seeded RNGs keyed by event index, so any divergence means a
// fault drew from a nondeterministic source. Wired into `make detsmoke`.
func TestByzantineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GOMAXPROCS byzantine runs are slow in -short mode")
	}
	procs := []int{1, 2, runtime.NumCPU()}
	baseline := ""
	for _, p := range procs {
		prev := runtime.GOMAXPROCS(p)
		_, off := byzantineFingerprint(t, false)
		_, on := byzantineFingerprint(t, true)
		runtime.GOMAXPROCS(prev)
		if off != on {
			t.Fatalf("GOMAXPROCS=%d: enabling metrics changed simulated results\noff:\n%son:\n%s", p, off, on)
		}
		if baseline == "" {
			baseline = off
		} else if off != baseline {
			t.Fatalf("GOMAXPROCS=%d: results diverged from GOMAXPROCS=%d\nbase:\n%sgot:\n%s",
				p, procs[0], baseline, off)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(baseline))); got != byzantineCellDigest {
		t.Fatalf("fingerprint digest %s, want %s:\n%s", got, byzantineCellDigest, baseline)
	}
}
