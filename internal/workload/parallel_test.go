package workload

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"scmove/internal/types"
	"scmove/internal/universe"
)

// kittiesCellDigest is the sha256 of the Kitties cell's fingerprint
// (kittiesFingerprint), computed at commit 96053c1.
const kittiesCellDigest = "f0e1aea65a96fc5dfcac79643ef1d673e3e41c6079162ff2ee34d65aa12200f4"

// kittiesFingerprint renders what a Kitties replay is judged by: throughput,
// simulated duration, the four counts, the committed-tx timeline and the
// starvation markers in chain order.
func kittiesFingerprint(r *KittiesResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "throughput %v sim %v txs %d ops %d failed %d cross %v\n",
		r.Throughput, r.SimDuration, r.TxsCommitted, r.OpsCompleted, r.FailedOps, r.CrossRate)
	for _, p := range r.Timeline.Series() {
		fmt.Fprintf(&b, "at %v tps %v\n", p.At, p.TPS)
	}
	for _, id := range slices.Sorted(maps.Keys(r.StarvedAt)) {
		fmt.Fprintf(&b, "starved %s at %v\n", id, r.StarvedAt[id])
	}
	return b.String()
}

// TestKittiesReplayCrossGOMAXPROCSDeterminism replays the same seeded trace
// serially and with the parallel signing/recovery/commit pipeline enabled,
// and pins every outcome to kittiesCellDigest: deferred signing fixes tx
// ids before any event can order on them, sender recovery and subtree
// hashing land by input position, so parallelism may only change wall
// clock.
func TestKittiesReplayCrossGOMAXPROCSDeterminism(t *testing.T) {
	seen := map[int]bool{}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		if seen[procs] {
			continue
		}
		seen[procs] = true
		prev := runtime.GOMAXPROCS(procs)
		res, err := RunKitties(KittiesConfig{
			Shards: 2, Users: 8, PromoCats: 30, Breeds: 60,
			LocalityBias: 0.9, OutstandingLimit: 100, Seed: 11, MaxDuration: time.Hour,
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		fp := kittiesFingerprint(res)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != kittiesCellDigest {
			t.Fatalf("GOMAXPROCS=%d: fingerprint digest %s, want %s:\n%s", procs, got, kittiesCellDigest, fp)
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
