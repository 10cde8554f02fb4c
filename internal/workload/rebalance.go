package workload

import (
	"fmt"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/shard"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// RebalanceConfig parameterizes the load-balancing extension: the paper's
// conclusion names "decentralized load balancing smart contracts for
// sharded blockchains" as the natural next step on top of the Move
// primitive (§X); this workload drives the shard.Engine's load-shedding
// policy against a congested shard and measures the recovery.
type RebalanceConfig struct {
	Shards int
	// Contracts are deployed (all on shard 1, the hot spot) and hammered by
	// one closed-loop client each.
	Contracts int
	// Interval is how often the rebalancer inspects shard load.
	Interval time.Duration
	// Duration is the measured window.
	Duration time.Duration
	// Enabled turns the rebalancer on; with it off the run is the
	// hot-shard baseline.
	Enabled bool
	Seed    int64
	// ShardCapacity models the per-block execution budget (as in the
	// kitties replay).
	ShardCapacity int
}

// DefaultRebalanceConfig returns the demo configuration.
func DefaultRebalanceConfig(shards int, enabled bool) RebalanceConfig {
	return RebalanceConfig{
		Shards:    shards,
		Contracts: 120,
		Interval:  30 * time.Second,
		Duration:  6 * time.Minute,
		Enabled:   enabled,
		Seed:      21,
		// Low per-block capacity makes the single hot shard the bottleneck
		// (the §IV-B congestion scenario); spreading contracts then pays.
		ShardCapacity: 60,
	}
}

// RebalanceResult reports the run.
type RebalanceResult struct {
	Config RebalanceConfig
	// Throughput is committed successful txs/s over the window.
	Throughput float64
	// Timeline shows throughput recovering as contracts spread out.
	Timeline *metrics.Timeline
	// MovesIssued counts rebalancing migrations.
	MovesIssued int
	// FinalDistribution is the contract count per shard at the end.
	FinalDistribution map[hashing.ChainID]int
}

// rebalanceContract tracks one managed contract.
type rebalanceContract struct {
	addr  hashing.Address
	owner *relay.Client
}

// RunRebalance measures a hot shard with and without Move-based load
// balancing: all contracts start on shard 1; the shard.Engine's greedy
// load-shedding policy migrates contracts from the deepest transaction
// pool to the shallowest every Interval. This is the same engine and
// policy code path the scaling experiments run — the workload only differs
// in traffic shape.
func RunRebalance(cfg RebalanceConfig) (*RebalanceResult, error) {
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("workload: rebalancing needs at least two shards")
	}
	ucfg := universe.ShardedConfig(cfg.Shards, cfg.Contracts+1)
	for i := range ucfg.Specs {
		ucfg.Specs[i].Config.MaxBlockTxs = cfg.ShardCapacity
	}
	u, err := universe.New(ucfg)
	if err != nil {
		return nil, err
	}
	u.Start()

	res := &RebalanceResult{
		Config:            cfg,
		Timeline:          metrics.NewTimeline(30 * time.Second),
		FinalDistribution: make(map[hashing.ChainID]int),
	}

	// Deploy every contract on shard 1 (the congestion scenario of §IV-B:
	// "as shards get congested and fees increase, users are tempted to
	// move their contracts to underused shards").
	cts := make([]*rebalanceContract, cfg.Contracts)
	hot := u.Chain(1)
	for i := range cts {
		cl := u.Client(i)
		addr, err := u.MustDeploy(cl, hot, contracts.StoreName,
			contracts.StoreConstructorArgs(cl.Address(), 1), u256.Zero(), 20*time.Minute)
		if err != nil {
			return nil, err
		}
		cts[i] = &rebalanceContract{addr: addr, owner: cl}
	}

	startAt := u.Sched.Now()
	endAt := startAt + cfg.Duration
	for s := 0; s < cfg.Shards; s++ {
		c := u.Chain(hashing.ChainID(s + 1))
		c.OnBlock(func(_ *types.Block, receipts []*types.Receipt) {
			now := u.Sched.Now()
			if now < startAt || now > endAt {
				return
			}
			good := 0
			for _, rec := range receipts {
				if rec.Succeeded() {
					good++
				}
			}
			res.Timeline.Record(now-startAt, good)
		})
	}

	// The rebalancer is the shared migration engine under its pure
	// load-shedding policy (no caller-home affinity — the clients here are
	// not homed anywhere).
	var eng *shard.Engine
	loc := func(ct *rebalanceContract) hashing.ChainID { return 1 }
	if cfg.Enabled {
		ecfg := shard.Config{
			Clock:    u.Sched,
			Mover:    u.Mover,
			Interval: cfg.Interval,
			Policy:   &shard.Greedy{Capacity: cfg.ShardCapacity, MaxMoves: 16},
			Counters: u.Counters(),
			Registry: u.Metrics(),
		}
		for _, id := range u.ChainIDs() {
			ecfg.Chains = append(ecfg.Chains, u.Chain(id))
		}
		eng = shard.New(ecfg)
		for _, ct := range cts {
			eng.Track(ct.addr, 1, ct.owner)
		}
		eng.Start()
		loc = func(ct *rebalanceContract) hashing.ChainID { return eng.Location(ct.addr) }
	}

	// Closed-loop writers, one per contract; traffic follows the contract
	// and pauses while it is mid-move.
	var drive func(ct *rebalanceContract, i uint64)
	drive = func(ct *rebalanceContract, i uint64) {
		if u.Sched.Now() >= endAt {
			return
		}
		if eng != nil && eng.IsMoving(ct.addr) {
			u.Sched.After(time.Second, func() { drive(ct, i) })
			return
		}
		c := u.Chain(loc(ct))
		var v [32]byte
		v[31] = byte(i%250) + 1
		txid, err := ct.owner.Call(c, ct.addr,
			contracts.EncodeCall("set", contracts.ArgUint(0), contracts.ArgWord(v)), u256.Zero())
		if err != nil {
			return
		}
		c.NotifyTx(txid, func(*types.Receipt) { drive(ct, i+1) })
	}
	for _, ct := range cts {
		drive(ct, 0)
	}

	u.RunUntil(func() bool { return u.Sched.Now() >= endAt+time.Minute }, cfg.Duration+20*time.Minute)
	res.Throughput = float64(res.Timeline.Total()) / cfg.Duration.Seconds()
	if eng != nil {
		res.MovesIssued = int(eng.Stats().Issued)
		eng.Stop()
	}
	for _, ct := range cts {
		res.FinalDistribution[loc(ct)]++
	}
	return res, nil
}
