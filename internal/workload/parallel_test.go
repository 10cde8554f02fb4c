package workload

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"scmove/internal/types"
	"scmove/internal/universe"
)

// TestKittiesReplayCrossGOMAXPROCSDeterminism replays the same seeded trace
// serially and with the parallel signing/recovery/commit pipeline enabled,
// and requires identical simulated outcomes: deferred signing fixes tx ids
// before any event can order on them, sender recovery and subtree hashing
// land by input position, so parallelism may only change wall clock.
func TestKittiesReplayCrossGOMAXPROCSDeterminism(t *testing.T) {
	run := func(procs int) *KittiesResult {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		res, err := RunKitties(KittiesConfig{
			Shards: 2, Users: 8, PromoCats: 30, Breeds: 60,
			LocalityBias: 0.9, OutstandingLimit: 100, Seed: 11, MaxDuration: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(1)
	for _, procs := range []int{2, runtime.NumCPU()} {
		got := run(procs)
		if got.Throughput != want.Throughput || got.SimDuration != want.SimDuration {
			t.Fatalf("GOMAXPROCS=%d: throughput %v/%v, duration %v/%v",
				procs, got.Throughput, want.Throughput, got.SimDuration, want.SimDuration)
		}
		if got.TxsCommitted != want.TxsCommitted || got.OpsCompleted != want.OpsCompleted ||
			got.FailedOps != want.FailedOps || got.CrossRate != want.CrossRate {
			t.Fatalf("GOMAXPROCS=%d: counts diverge: %+v vs %+v", procs, got, want)
		}
		if !reflect.DeepEqual(got.Timeline.Series(), want.Timeline.Series()) {
			t.Fatalf("GOMAXPROCS=%d: committed-tx timeline diverges", procs)
		}
		if !reflect.DeepEqual(got.StarvedAt, want.StarvedAt) {
			t.Fatalf("GOMAXPROCS=%d: starvation markers diverge", procs)
		}
	}
}

// TestCommittedSignaturesVerify reads back every transaction of every block
// the Kitties cell above and the 16-chain sharded cell commit, with the
// client signatures deferred to the crypto pool, through a full ECDSA
// recovery: no verifiedID memo, no sender cache, and an id re-hashed from
// the decoded fields. Admission trusts a pending signature's From; this
// holds every committed transaction to the key that signed it.
func TestCommittedSignaturesVerify(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))) // deferral needs a second CPU
	defer runtime.GOMAXPROCS(prev)
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
