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

	"scmove/internal/hashing"
	"scmove/internal/oracle"
	"scmove/internal/universe"
)

// shardedCellDigest is the sha256 of the 16-chain policy-on cell's
// fingerprint, and shardedCellLedger the events and WAN deliveries its event
// loop runs.
const shardedCellDigest = "b956213057cbf25b0300c88c3c9804235170c77b55c6be9b8d79ac6a1353911e"

var shardedCellLedger = universe.Ledger{Events: 243125, Deliveries: 178038}

// TestShardedScalingCrossGOMAXPROCSDeterminism pins a 16-chain policy-on
// scaling cell's fingerprint (state roots, contract locations, move stats,
// deterministic counters) to shardedCellDigest and its event loop's work to
// shardedCellLedger at every GOMAXPROCS: the crypto pool still varies with
// it, the event order must not. The safety oracle checks every committed
// block of each run. Wired into `make detsmoke`.
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
		var res *ShardedScalingResult
		oracle.During(t, &inspectUniverse, func() {
			var err error
			res, err = RunShardedScaling(cfg)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
		})
		if res.Moves.Completed == 0 {
			t.Fatal("cell completed no migrations; determinism check would be vacuous")
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint)))
		if procs == 1 {
			t.Logf("identity: %s %s", t.Name(), got)
			t.Logf("identity: %s events %d", t.Name(), res.Ledger.Events)
			t.Logf("identity: %s deliveries %d", t.Name(), res.Ledger.Deliveries)
		}
		if got != shardedCellDigest {
			t.Fatalf("GOMAXPROCS=%d: fingerprint digest %s, want %s:\n%.800s", procs, got, shardedCellDigest, res.Fingerprint)
		}
		if res.Ledger != shardedCellLedger {
			t.Fatalf("GOMAXPROCS=%d: the event loop ran %d events and %d WAN deliveries, pinned %d and %d", procs,
				res.Ledger.Events, res.Ledger.Deliveries, shardedCellLedger.Events, shardedCellLedger.Deliveries)
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
// scales it up to the 1M target), header relays built per moving pair, and
// the migration engine live. The run must complete with migrations landing.
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

// TestShardMigrateRound0 pins the repository benchmark's shard_migrate
// round 0 at --seed 1 (benchmark/wl_sim.go: shardConfig) inside the main
// module: 64 chains, 4 validators each, the policy on, a 7-minute window
// after the default warm-up, and the round's seed written in as a
// constant. Its values are the ones a traced run prints for round 0; a
// change that moves any of them changed simulated behaviour. It takes 5 s
// on a 2-core host, so it runs with shardsmoke.
func TestShardMigrateRound0(t *testing.T) {
	if os.Getenv("SCMOVE_SHARDSMOKE") == "" {
		t.Skip("set SCMOVE_SHARDSMOKE=1 (make shardsmoke) to run")
	}
	// shardRound0Seed is subSeed(1, "shard/0") of benchmark/gen.go: the
	// first 8 bytes of hashing.Sum("1/shard/0"), shifted right by one.
	const shardRound0Seed = 8210383099364558552
	cfg := DefaultShardedScalingConfig(64, true)
	cfg.Validators = 4
	cfg.Seed = shardRound0Seed
	cfg.Duration = 7 * time.Minute
	res, err := RunShardedScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := hashing.Sum([]byte(res.Fingerprint))
	got := fmt.Sprintf("committed=%d sim_tx_s=%v moves=%d spread=%d fingerprint=%x",
		res.Committed, res.Throughput, res.Moves.Completed, res.FinalSpread, sum[:8])
	const want = "committed=110160 sim_tx_s=262.2857142857143 moves=185 spread=64 fingerprint=99010484b6252d2a"
	t.Logf("identity: %s %s", t.Name(), got)
	if got != want {
		t.Fatalf("round 0:\n got %s\nwant %s", got, want)
	}
}
