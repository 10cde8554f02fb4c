package workload

import (
	"math/rand"
	"testing"
	"time"
)

func TestSCoinControlledTwoShards(t *testing.T) {
	res, err := RunSCoin(SCoinConfig{
		Shards: 2, ClientsPerShard: 20, ReceiversPerShard: 4,
		CrossFraction: 0.10, Duration: 2 * time.Minute, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedOps != 0 {
		t.Fatalf("failed ops = %d", res.FailedOps)
	}
	if res.Throughput <= 0 || res.OpsPerSec <= 0 {
		t.Fatalf("throughput = %v ops/s = %v", res.Throughput, res.OpsPerSec)
	}
	// The realized cross rate tracks the configured one.
	if res.MeasuredCrossFraction < 0.03 || res.MeasuredCrossFraction > 0.25 {
		t.Fatalf("cross fraction = %v, want ≈0.10", res.MeasuredCrossFraction)
	}
	// Paper §VII-B: single-shard ≈7 s, cross-shard ≈34 s — cross is the
	// five-block sequence (Move1 + two-block proof wait + Move2 + transfer).
	single, cross := res.Single.Mean(), res.Cross.Mean()
	if single < 3*time.Second || single > 12*time.Second {
		t.Errorf("single-shard mean = %v, want ≈7 s", single)
	}
	if cross < 20*time.Second || cross > 50*time.Second {
		t.Errorf("cross-shard mean = %v, want ≈34 s", cross)
	}
	if cross < 3*single {
		t.Errorf("cross (%v) must be several times single (%v)", cross, single)
	}
}

func TestSCoinSingleShardHasNoCrossOps(t *testing.T) {
	res, err := RunSCoin(SCoinConfig{
		Shards: 1, ClientsPerShard: 10, ReceiversPerShard: 4,
		CrossFraction: 0.30, Duration: time.Minute, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cross.Len() != 0 || res.MeasuredCrossFraction != 0 {
		t.Fatal("one shard cannot have cross-shard operations")
	}
	if res.Single.Len() == 0 {
		t.Fatal("single-shard ops must complete")
	}
}

func TestSCoinThroughputGrowsWithShards(t *testing.T) {
	run := func(shards int) float64 {
		res, err := RunSCoin(SCoinConfig{
			Shards: shards, ClientsPerShard: 15, ReceiversPerShard: 4,
			CrossFraction: 0.05, Duration: 2 * time.Minute, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	t1, t4 := run(1), run(4)
	// Fig. 6's headline: throughput grows with the shard count.
	if t4 < 2.5*t1 {
		t.Fatalf("4 shards (%.1f tx/s) must far exceed 1 shard (%.1f tx/s)", t4, t1)
	}
}

func TestSCoinRetriesSkew(t *testing.T) {
	res, err := RunSCoin(SCoinConfig{
		Shards: 4, ClientsPerShard: 25, ReceiversPerShard: 4,
		CrossFraction: 0.10, Duration: 3 * time.Minute, Retries: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedOps != 0 {
		t.Fatalf("abandoned ops = %d", res.FailedOps)
	}
	total := 0
	for _, n := range res.RetryCounts {
		total += n
	}
	if total == 0 {
		t.Fatal("conflict mode must produce retries")
	}
	// §VII-B1: the retry distribution is highly skewed — most retried
	// operations retried exactly once.
	if res.RetryCounts[1]*2 < total {
		t.Errorf("retry skew: once=%d of %d (%v)", res.RetryCounts[1], total, res.RetryCounts)
	}
	// Conflict mode has strictly higher latency than the oracle mode would
	// (Fig. 7 left vs right): sanity floor only.
	if res.All.Mean() < res.Single.Mean() {
		t.Error("latency accounting inconsistent")
	}
}

func TestKittiesReplayCompletes(t *testing.T) {
	res, err := RunKitties(KittiesConfig{
		Shards: 2, Users: 16, PromoCats: 60, Breeds: 150,
		LocalityBias: 0.93, OutstandingLimit: 100, Seed: 5, MaxDuration: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedOps != 0 {
		t.Fatalf("failed ops = %d", res.FailedOps)
	}
	if res.OpsCompleted != res.PlannedOps {
		t.Fatalf("ops completed = %d of %d", res.OpsCompleted, res.PlannedOps)
	}
	if res.PlannedOps < 150 {
		t.Fatalf("planned ops = %d, trace too small", res.PlannedOps)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput must be positive")
	}
	// Every replayed transaction succeeded (the paper's requirement).
	if res.CrossRate <= 0 || res.CrossRate > 0.5 {
		t.Fatalf("cross rate = %v", res.CrossRate)
	}
}

func TestKittiesSingleShardHasNoCrossBreeds(t *testing.T) {
	res, err := RunKitties(KittiesConfig{
		Shards: 1, Users: 8, PromoCats: 30, Breeds: 60,
		LocalityBias: 0.9, OutstandingLimit: 100, Seed: 6, MaxDuration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossRate != 0 {
		t.Fatalf("cross rate on one shard = %v", res.CrossRate)
	}
}

func TestSynthesizeDAGProperties(t *testing.T) {
	cfg := KittiesConfig{Shards: 4, Users: 20, PromoCats: 100, Breeds: 400, LocalityBias: 0.9}
	rng := rand.New(rand.NewSource(1))
	ops, cats := synthesize(cfg, rng)

	if len(ops) < cfg.PromoCats {
		t.Fatal("all promos must be emitted")
	}
	// Dependencies always point backwards: the DAG is acyclic by id order.
	for _, op := range ops {
		for _, dep := range op.dependents {
			if dep <= op.id {
				t.Fatalf("dependent %d not after op %d", dep, op.id)
			}
		}
	}
	// No breed pairs siblings or parent-child (the replay must succeed).
	for _, op := range ops {
		if op.kind != opBreed {
			continue
		}
		if related(cats, op.catA, op.catB) || op.catA == op.catB {
			t.Fatalf("op %d breeds related cats", op.id)
		}
	}
	// Children record their parents.
	for i := cfg.PromoCats; i < len(cats); i++ {
		if cats[i].parents[0] < 0 || cats[i].parents[1] < 0 {
			t.Fatalf("child %d has no parents", i)
		}
	}
	// Determinism: same seed, same trace.
	ops2, _ := synthesize(cfg, rand.New(rand.NewSource(1)))
	if len(ops2) != len(ops) {
		t.Fatal("synthesis must be deterministic")
	}
}

func TestSCoinRejectsBadConfig(t *testing.T) {
	if _, err := RunSCoin(SCoinConfig{Shards: 0}); err == nil {
		t.Fatal("zero shards must be rejected")
	}
	if _, err := RunKitties(KittiesConfig{Shards: 0}); err == nil {
		t.Fatal("zero shards must be rejected")
	}
}
