package workload

import (
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// shardedCellDigest is the sha256 of the 16-chain policy-on cell's
// fingerprint, computed at commit bf5749c — the last one with the parallel
// per-tick driver, where the serial driver and the worker pool both produced
// it at GOMAXPROCS 1 and 2.
const shardedCellDigest = "4f4fba323908678973f28afccc0ddf0f3af84133a61600da2f173ba317041aa6"

// TestShardedScalingCrossGOMAXPROCSDeterminism pins a 16-chain policy-on
// scaling cell's fingerprint (state roots, contract locations, move stats,
// deterministic counters) to shardedCellDigest at every GOMAXPROCS: the
// crypto pool still varies with it, the event order must not. Wired into `make detsmoke`.
func TestShardedScalingCrossGOMAXPROCSDeterminism(t *testing.T) {
	seen := map[int]bool{}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		if seen[procs] {
			continue
		}
		seen[procs] = true
		old := runtime.GOMAXPROCS(procs)
		cfg := DefaultShardedScalingConfig(16, true)
		cfg.Users = 320 // provisioning scale has its own gate (shardsmoke)
		cfg.Duration = 2 * time.Minute
		res, err := RunShardedScaling(cfg)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if res.Moves.Completed == 0 {
			t.Fatal("cell completed no migrations; determinism check would be vacuous")
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint))); got != shardedCellDigest {
			t.Fatalf("GOMAXPROCS=%d: fingerprint digest %s, want %s:\n%.800s", procs, got, shardedCellDigest, res.Fingerprint)
		}
	}
}

// TestShardedScalingPolicyGain pins the experiment's headline, the paper's
// §IV-B congestion scenario: with every contract deployed on one congested
// shard, turning the migration engine on spreads contracts across at least
// three of the four shards, both signals fire (caller affinity and load
// shedding), and committed throughput clearly beats the hot-shard baseline.
func TestShardedScalingPolicyGain(t *testing.T) {
	run := func(policy bool) *ShardedScalingResult {
		cfg := DefaultShardedScalingConfig(4, policy)
		cfg.Users = 64
		cfg.Duration = 3 * time.Minute
		res, err := RunShardedScaling(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	if off.FinalSpread != 1 {
		t.Fatalf("baseline spread = %d, want 1 (all contracts stay on the hot shard)", off.FinalSpread)
	}
	if on.Moves.Completed == 0 {
		t.Fatal("policy run completed no migrations")
	}
	if on.FinalSpread < 3 {
		t.Fatalf("policy run spread = %d, want >= 3", on.FinalSpread)
	}
	for _, signal := range []string{"affinity", "load"} {
		if !regexp.MustCompile(`(?m)^shard\.moves_` + signal + `=[1-9]`).MatchString(on.Fingerprint) {
			t.Fatalf("the %s signal moved no contract", signal)
		}
	}
	if float64(on.Committed) < 1.3*float64(off.Committed) {
		t.Fatalf("policy gain = %d/%d < 1.3; migration should relieve the hot shard",
			on.Committed, off.Committed)
	}
	t.Logf("policy gain %.2f (%d vs %d committed), %d moves, spread %d",
		float64(on.Committed)/float64(off.Committed), on.Committed, off.Committed,
		on.Moves.Completed, on.FinalSpread)
}

// TestShardSmoke is the full-scale gate behind `make shardsmoke`: a
// 64-chain universe with a 100k keyed-user population (SCMOVE_SHARDSMOKE_USERS
// scales it up to the 1M target), lazy relay mesh, and the migration engine
// live. The run must complete with migrations landing.
func TestShardSmoke(t *testing.T) {
	if os.Getenv("SCMOVE_SHARDSMOKE") == "" {
		t.Skip("set SCMOVE_SHARDSMOKE=1 (make shardsmoke) to run")
	}
	users := 100_000
	if s := os.Getenv("SCMOVE_SHARDSMOKE_USERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SCMOVE_SHARDSMOKE_USERS %q", s)
		}
		users = n
	}
	cfg := DefaultShardedScalingConfig(64, true)
	cfg.Users = users
	cfg.Duration = 3 * time.Minute
	res, err := RunShardedScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Moves.Completed == 0 {
		t.Fatal("policy completed no migrations at 64 chains")
	}
	if res.FinalSpread < 2 {
		t.Fatalf("contracts never left the hot shard (spread %d)", res.FinalSpread)
	}
	t.Logf("64 chains, %d users: %d committed (%.1f tx/s sim), %d/%d moves, spread %d, wall %s",
		users, res.Committed, res.Throughput, res.Moves.Completed, res.Moves.Issued,
		res.FinalSpread, res.Wall.Round(time.Millisecond))
}
