package workload

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"scmove/internal/journal"
	"scmove/internal/oracle"
	"scmove/internal/types"
	"scmove/internal/universe"
)

// kittiesCellJournal is the digest of the Kitties cell's journal.
const kittiesCellJournal = "e6fc429df1b6b94e7d037a3ef8395753c9436dcd5a375350fd7db7d00b8e5926"

// TestKittiesReplayCrossGOMAXPROCSDeterminism replays the same seeded trace
// serially and with the parallel signing/recovery/commit pipeline enabled,
// and pins every block, the result and the starvation markers to
// kittiesCellJournal: deferred signing fixes tx ids before any event can
// order on them, sender recovery and subtree hashing land by input position,
// so parallelism may only change wall clock. The oracle checks every block.
func TestKittiesReplayCrossGOMAXPROCSDeterminism(t *testing.T) {
	var first *journal.Journal
	seen := map[int]bool{}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		if seen[procs] {
			continue
		}
		seen[procs] = true
		prev := runtime.GOMAXPROCS(procs)
		var res *KittiesResult
		j := oracle.During(t, &inspectUniverse, func() {
			var err error
			res, err = RunKitties(KittiesConfig{
				Shards: 2, Users: 8, PromoCats: 30, Breeds: 60,
				LocalityBias: 0.9, OutstandingLimit: 100, Seed: 11, MaxDuration: time.Hour,
			})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
		})
		j.Tail("result", "throughput", res.Throughput, "sim", res.SimDuration, "txs", res.TxsCommitted,
			"ops", res.OpsCompleted, "failed", res.FailedOps, "cross", res.CrossRate)
		j.Tail("starved", res.StarvedAt)
		first = journal.Same(t, fmt.Sprintf("GOMAXPROCS=1 and %d", procs), first, j)
	}
	first.Check(t, kittiesCellJournal)
}

// TestKittiesReplayRound0 pins the repository benchmark's kitties_replay
// round 0 at --seed 1 (benchmark/wl_sim.go: kittiesConfig) inside the main
// module, with the round's seed written in as a constant. Its values are the
// round signature a traced run prints; a change that moves any of them
// changed simulated behaviour.
func TestKittiesReplayRound0(t *testing.T) {
	// kittiesRound0Seed is subSeed(1, "kitties/0") of benchmark/gen.go: the
	// first 8 bytes of hashing.Sum("1/kitties/0"), shifted right by one.
	const kittiesRound0Seed = 1982634216270082870
	res, err := RunKitties(KittiesConfig{
		Shards: 4, Users: 512, PromoCats: 4000, Breeds: 8000,
		LocalityBias: 0.93, OutstandingLimit: 250, ShardCapacity: 175,
		Seed: kittiesRound0Seed, MaxDuration: 12 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("planned=%d completed=%d failed=%d txs=%d sim=%v sim_tx_s=%v cross=%v",
		res.PlannedOps, res.OpsCompleted, res.FailedOps, res.TxsCommitted, res.SimDuration, res.Throughput, res.CrossRate)
	const want = "planned=10768 completed=10706 failed=62 txs=19476 sim=5m31.5s sim_tx_s=58.751131221719454 cross=0.11687926431326016"
	t.Logf("identity: %s %s", t.Name(), got)
	if got != want {
		t.Fatalf("round 0:\n got %s\nwant %s", got, want)
	}
}

// TestCommittedSignaturesVerify reads back every transaction of every block
// the Kitties cell above and the 16-chain sharded cell commit, with the
// client signatures deferred to the crypto pool, through a full ECDSA
// recovery: no verifiedID memo and an id re-hashed from
// the decoded fields. Admission trusts a pending signature's From; this
// holds every committed transaction to the key that signed it.
func TestCommittedSignaturesVerify(t *testing.T) {
	var blocks []*types.Block
	inspectUniverse = func(u *universe.Universe) {
		for _, id := range u.ChainIDs() {
			u.Chain(id).OnBlock(func(b *types.Block, _ []*types.Receipt) { blocks = append(blocks, b) })
		}
	}
	defer func() { inspectUniverse = nil }()
	check := func(t *testing.T) {
		txs := 0
		for _, b := range blocks {
			for _, tx := range b.Txs {
				txs++
				dec, err := types.DecodeTransaction(tx.Encode())
				if err != nil {
					t.Fatalf("chain %s height %d: %v", b.Header.ChainID, b.Header.Height, err)
				}
				if dec.ID() != tx.ID() {
					t.Fatalf("chain %s height %d: id %s, fields hash to %s", b.Header.ChainID, b.Header.Height, tx.ID(), dec.ID())
				}
				if addr, err := dec.Sig.Verify(dec.ID()); err != nil || addr != tx.From {
					t.Fatalf("chain %s height %d: tx %s from %s recovers (%s, %v)",
						b.Header.ChainID, b.Header.Height, tx.ID(), tx.From, addr, err)
				}
			}
		}
		t.Logf("%d blocks, %d txs", len(blocks), txs)
		if txs == 0 {
			t.Fatal("no committed transaction; the check would be vacuous")
		}
		blocks = nil
	}

	t.Run("kitties", func(t *testing.T) {
		if _, err := RunKitties(KittiesConfig{
			Shards: 2, Users: 8, PromoCats: 30, Breeds: 60,
			LocalityBias: 0.9, OutstandingLimit: 100, Seed: 11, MaxDuration: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
		check(t)
	})
	t.Run("sharded", func(t *testing.T) {
		cfg := DefaultShardedScalingConfig(16, true)
		cfg.Users = 320
		cfg.Duration = 2 * time.Minute
		res, err := RunShardedScaling(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint))); got != shardedCellDigest {
			t.Fatalf("the block listeners moved the fingerprint: digest %s, want %s", got, shardedCellDigest)
		}
		check(t)
	})
}
